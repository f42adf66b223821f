"""Command-line driver.

Subcommands cover the solver and reduction pipelines end to end: ``lyap``,
``care``, ``bt``, ``irka``, ``pmor-piecewise``, ``pmor-interp``,
``sigma-grid`` and ``gen-bench``.  Inputs come from Matrix Market files or
the built-in benchmark generators; outputs are Matrix Market matrices, CSV
grids (``mu,omega,value``) and plain-text run reports.

Exit codes: 0 success, 1 usage error (bad flags, missing files), 2
numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .benchmarks import BenchConfig, gen_fd_laplacian, gen_thermal_block_mini
from .equations import LyapunovSpec, RiccatiSpec
from .errors import SingularOperatorError, SolverError
from .lradi import AdiOptions, lr_adi
from .lrnm import lr_newton
from .mmio import load_system, read_dense, read_matrix, write_matrix
from .mor import balanced_truncation, irka
from .pmor import (ParametricSystem, chebyshev_samples,
                   interpolatory_assemble, log_samples, piecewise_assemble,
                   train)
from .sgrid import sigma_error_grid, sigma_grid, write_grid_csv

# the two input file families; --e-file is the only optional file flag
_PLAIN = ("a", "e", "b", "c")
_AFFINE = ("a0", "a1", "b", "c")


def _parse_range(text):
    try:
        lo, hi = text.split(":")
        lo, hi = float(lo), float(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"range must look like 'lo:hi', got {text!r}") from exc
    if lo <= 0 or hi <= lo:
        raise argparse.ArgumentTypeError("need 0 < lo < hi")
    return lo, hi


def _input_files(args, names):
    """Paths of the ``--<x>-file`` flags for ``x`` in ``names``, in order."""
    paths = [getattr(args, f"{x}_file") for x in names]
    missing = [f"--{x}-file" for x, path in zip(names, paths)
               if path is None and x != "e"]
    if missing:
        raise ValueError("file input needs " + ", ".join(missing))
    for path in paths:
        if path is not None and not os.path.exists(path):
            raise FileNotFoundError(f"input file not found: {path}")
    return paths


def _plain_system(args):
    a, e, b, c = _input_files(args, _PLAIN)
    return load_system(a, b, c, e_path=e)


def _config(args, **kw):
    return BenchConfig(grid_size=args.grid, mu_range=args.mu_range,
                       omega_range=args.omega_range, **kw)


def _fd_or_files(args):
    if args.demo_fd is not None:
        return gen_fd_laplacian(args.demo_fd)
    return _plain_system(args)


def _bench_model(args):
    if args.model == "fd":
        system = gen_fd_laplacian(args.grid)
        return {"A": system.a, "B": system.b, "C": system.c}
    psys = gen_thermal_block_mini(_config(args))
    return {"A0": psys.a0, "A1": psys.a1, "B": psys.b, "C": psys.c}


def _parametric_input(args):
    cfg = _config(args, samples_per_axis=args.grid_points)
    if args.a0_file is None:
        return gen_thermal_block_mini(cfg), cfg
    a0, a1, b, c = _input_files(args, _AFFINE)
    psys = ParametricSystem(read_matrix(a0), read_matrix(a1), read_dense(b),
                            read_dense(c), domain=tuple(args.mu_range))
    return psys, cfg


def _sweep_input(args):
    cfg = _config(args, samples_per_axis=args.samples)
    if args.a_file is not None:
        return _plain_system(args), cfg
    if args.model == "fd":
        return gen_fd_laplacian(args.grid), cfg
    return gen_thermal_block_mini(cfg), cfg


def _write_matrices(args, matrices):
    for name, m in matrices.items():
        write_matrix(os.path.join(args.out, f"{name}.mtx"), m)


def _rom_matrices(rom):
    return {f"rom_{x}": getattr(rom, x.lower()) for x in "EABCD"}


def _write_report(args, lines):
    name = args.command.replace("-", "_") + "_report.txt"
    with open(os.path.join(args.out, name), "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_gen_bench(args, matrices):
    _write_matrices(args, matrices)
    print(f"benchmark model written to {args.out}")
    return 0


def cmd_equation(args, system):
    """``lyap`` (LR-ADI) and ``care`` (low-rank RADI)."""
    opts = AdiOptions(rel_tolerance=args.tol)
    if args.command == "lyap":
        result = lr_adi(LyapunovSpec(system, args.side), opts)
        history, factors = result.residual_history, {"Z": result.z.z}
        steps, method = f"{len(history)} iterations", "ADI"
    else:
        result = lr_newton(RiccatiSpec(system, args.side), opts)
        history = result.newton_residuals
        factors = {"Z": result.z.z, "K": result.k}
        steps, method = f"{len(history) - 1} RADI steps", "RADI"
    final = history[-1] if history else 0.0
    print(f"final relative residual: {final:.6e} after {steps} "
          f"(converged: {result.converged})")
    _write_matrices(args, factors)
    _write_report(args, [f"equation side: {args.side}",
                         f"order: {system.order}",
                         f"tolerance: {args.tol:g}",
                         f"converged: {result.converged}",
                         f"factor columns: {result.z.columns}",
                         "relative residual history:"] +
                  [f"  {i + 1:4d}  {r:.6e}" for i, r in enumerate(history)])
    if not result.converged:
        raise SolverError(f"{method} iteration did not converge")
    return 0


def cmd_bt(args, system):
    if args.order is None and args.tol is None:
        raise ValueError("bt needs --order or --tol")
    rom, report = balanced_truncation(
        system, order=args.order, tol=args.tol if args.order is None else None)
    print(f"reduced order: {rom.order}, error bound: "
          f"{report.error_bound:.6e}")
    _write_matrices(args, {**_rom_matrices(rom),
                           "hsv": report.singular_values.reshape(-1, 1)})
    _write_report(args, [f"full order: {system.order}",
                         f"reduced order: {rom.order}",
                         f"error bound (2*sum truncated HSV): "
                         f"{report.error_bound:.6e}",
                         f"rank limited: {report.rank_limited}"])
    return 0


def cmd_irka(args, system):
    result = irka(system, args.order)
    print(f"IRKA order {result.rom.order}, converged: {result.converged} "
          f"after {result.n_iter} iterations")
    _write_matrices(args, _rom_matrices(result.rom))
    _write_report(args, [f"full order: {system.order}",
                         f"reduced order: {result.rom.order}",
                         f"converged: {result.converged}",
                         f"iterations: {result.n_iter}",
                         "final interpolation points:"] +
                  [f"  {s.real:+.6e} {s.imag:+.6e}j" for s in result.shifts])
    if not result.converged:
        raise SolverError("IRKA did not converge")
    return 0


def cmd_pmor(args, model):
    """``pmor-piecewise`` and ``pmor-interp``: train, assemble, error grid."""
    psys, cfg = model
    piecewise = args.command == "pmor-piecewise"
    sample, rule = ((log_samples, "log equi-spaced") if piecewise
                    else (chebyshev_samples, "chebyshev"))
    ts = train(psys, sample(*psys.domain, args.samples), args.method,
               tol=args.tol, order=args.order)
    if piecewise:
        prom = piecewise_assemble(ts, truncation_tol=args.trunc_tol,
                                  one_sided=args.one_sided)
        summary = (f"piecewise ROM order {prom.order} "
                   f"(one_sided={args.one_sided})")
        variant = f"one sided: {args.one_sided}"
        assembly = [f"concatenated columns: {prom.concatenated_columns}",
                    f"order after rank truncation "
                    f"({prom.truncation_tol:.1e}): {prom.order}"]
    else:
        prom = interpolatory_assemble(ts, basis_kind=args.basis)
        summary = f"interpolatory ROM ({args.basis}) order {prom.order}"
        variant, assembly = f"basis: {args.basis}", []
    grid = sigma_error_grid(psys, prom, cfg)
    write_grid_csv(grid, os.path.join(args.out, "error_grid.csv"))
    frac = float(np.mean(grid.values[np.isfinite(grid.values)] <= 1e-2))
    print(f"{summary}; relative error <= 1e-2 on {100 * frac:.1f}% of the "
          "grid")
    _write_report(args, [f"method: {args.method}", variant,
                         f"training samples: {args.samples} ({rule})",
                         f"error grid: {args.grid_points} x "
                         f"{args.grid_points}",
                         f"fraction of cells with relative error <= 1e-2: "
                         f"{frac:.3f}", "",
                         "sample      mu           local order", "-" * 38] +
                  [f"{i + 1:4d}   {mu:12.4e}   {r:6d}" for i, (mu, r)
                   in enumerate(zip(ts.samples, ts.local_orders))] +
                  ["-" * 38, f"sum of local orders: {sum(ts.local_orders)}"]
                  + assembly)
    return 0


def cmd_sigma_grid(args, model):
    obj, cfg = model
    grid = sigma_grid(obj, cfg)
    write_grid_csv(grid, os.path.join(args.out, "sigma_grid.csv"))
    print(f"sigma grid written ({grid.values.shape[0]} x "
          f"{grid.values.shape[1]} cells)")
    return 0


def _command(sub, name, help, func, inputs, files=(), grid=None, model=None):
    """Add a subcommand; every flag shared by two commands is declared here."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func, inputs=inputs)
    if model is not None:
        p.add_argument("--model", choices=("fd", "thermal"), default=model)
    if grid is not None:
        p.add_argument("--grid", type=int, default=grid)
        p.add_argument("--mu-range", type=_parse_range, default=(1e-6, 1e2))
        p.add_argument("--omega-range", type=_parse_range,
                       default=(1e-4, 1e4))
    if inputs is _fd_or_files:
        p.add_argument("--demo-fd", type=int, default=None, metavar="N",
                       help="use the generated FD Laplacian model of grid "
                            "size N")
    for x in files:
        p.add_argument(f"--{x}-file",
                       help=f"matrix {x.upper()} (Matrix Market)")
    p.add_argument("--out", default=".", help="output directory")
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lrmor",
        description="low-rank matrix equation solvers and model reduction")
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "gen-bench", "write a benchmark model", cmd_gen_bench,
             _bench_model, grid=10, model="fd")

    for name, help, tol, side in (
            ("lyap", "solve a Lyapunov equation by LR-ADI", 1e-10, "N"),
            ("care", "solve a Riccati equation by low-rank RADI",
             1e-9, "T")):
        p = _command(sub, name, help, cmd_equation, _fd_or_files, _PLAIN)
        p.add_argument("--tol", type=float, default=tol)
        p.add_argument("--side", choices=("N", "T"), default=side)

    p = _command(sub, "bt", "balanced truncation", cmd_bt, _fd_or_files,
                 _PLAIN)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)

    p = _command(sub, "irka", "tangential IRKA", cmd_irka, _fd_or_files,
                 _PLAIN)
    p.add_argument("--order", type=int, required=True)

    for name in ("pmor-piecewise", "pmor-interp"):
        p = _command(sub, name, f"{name} reduction of the thermal block "
                                "benchmark",
                     cmd_pmor, _parametric_input, _AFFINE, grid=24)
        p.add_argument("--samples", type=int, default=10,
                       help="number of training parameters")
        p.add_argument("--method", choices=("bt-tol", "bt-fixed", "irka"),
                       default="bt-tol")
        p.add_argument("--tol", type=float, default=1e-4)
        p.add_argument("--order", type=int, default=20)
        p.add_argument("--grid-points", type=int, default=30,
                       help="error grid resolution per axis")
        if name == "pmor-piecewise":
            p.add_argument("--one-sided", action="store_true")
            p.add_argument("--trunc-tol", type=float, default=None)
        else:
            p.add_argument("--basis", choices=("lagrange", "bspline2"),
                           default="lagrange")

    p = _command(sub, "sigma-grid", "sample the transfer magnitude",
                 cmd_sigma_grid, _sweep_input, _PLAIN, grid=24,
                 model="thermal")
    p.add_argument("--samples", type=int, default=100,
                   help="samples per grid axis")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        model = args.inputs(args)
        os.makedirs(args.out, exist_ok=True)
        return args.func(args, model)
    except SystemExit as exc:  # argparse: --help or a bad flag
        return 0 if exc.code in (0, None) else 1
    except (SolverError, SingularOperatorError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
