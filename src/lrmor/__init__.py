"""Low-rank solvers for large sparse matrix equations and their use in
(parametric) model order reduction."""

from .benchmarks import BenchConfig, gen_fd_laplacian, gen_thermal_block_mini
from .equations import (LowRankFactor, LyapunovSpec, ResidualReport,
                        RiccatiSpec, lyap_residual, riccati_residual)
from .errors import SingularOperatorError, SolverError
from .lradi import (AdiOptions, AdiResult, ShiftSet, heuristic_shifts,
                    lr_adi, projection_shifts)
from .lrnm import NewtonResult, lr_newton
from .mmio import load_system, read_dense, read_matrix, write_matrix
from .mor import (BalancingTransform, HsvReport, IrkaOptions, IrkaResult,
                  Rom, balanced_truncation, br_transform, irka, lqg_transform,
                  pr_transform, project, square_root_method, transfer_eval)
from .operators import OperatorSet
from .pmor import (InterpolatoryRom, ParametricSystem, PiecewiseRom,
                   TrainingSet, bspline2_coefficients, chebyshev_samples,
                   interpolatory_assemble, lagrange_coefficients, log_samples,
                   piecewise_assemble, train)
from .sgrid import (SigmaGrid, read_grid_csv, sigma_error_grid, sigma_grid,
                    write_grid_csv)
from .system import LtiSystem

__version__ = "0.1.0"
