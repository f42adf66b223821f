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
from .lrnm import NewtonOptions, lr_newton
from .mmio import load_system, read_dense, read_matrix, write_matrix
from .mor import balanced_truncation, irka
from .pmor import (ParametricSystem, chebyshev_samples,
                   interpolatory_assemble, log_samples, piecewise_assemble,
                   train)
from .sgrid import sigma_error_grid, sigma_grid, write_grid_csv


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


def _outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _require_files(*paths):
    for path in paths:
        if path is not None and not os.path.exists(path):
            raise FileNotFoundError(f"input file not found: {path}")


def _input_system(args):
    if args.demo_fd is not None:
        return gen_fd_laplacian(args.demo_fd)
    if args.a_file is None or args.b_file is None:
        raise _UsageError("give --demo-fd N or --a-file/--b-file inputs")
    _require_files(args.a_file, args.b_file, args.c_file, args.e_file)
    if args.c_file is None:
        raise _UsageError("--c-file is required with file inputs")
    return load_system(args.a_file, args.b_file, args.c_file,
                       e_path=args.e_file)


class _UsageError(Exception):
    pass


def _add_input_flags(p):
    p.add_argument("--demo-fd", type=int, default=None, metavar="N",
                   help="use the generated FD Laplacian model of grid size N")
    p.add_argument("--a-file")
    p.add_argument("--e-file")
    p.add_argument("--b-file")
    p.add_argument("--c-file")


def _add_common_flags(p):
    p.add_argument("--out", default=".", help="output directory")


def _write_report(path, lines):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _history_lines(history):
    return [f"  {i + 1:4d}  {r:.6e}" for i, r in enumerate(history)]


def cmd_gen_bench(args):
    out = _outdir(args)
    if args.model == "fd":
        system = gen_fd_laplacian(args.grid)
        write_matrix(os.path.join(out, "A.mtx"), system.a)
        write_matrix(os.path.join(out, "B.mtx"), system.b)
        write_matrix(os.path.join(out, "C.mtx"), system.c)
    else:
        cfg = BenchConfig(grid_size=args.grid, mu_range=args.mu_range,
                          omega_range=args.omega_range)
        psys = gen_thermal_block_mini(cfg)
        a0, a1 = psys.a_affine
        write_matrix(os.path.join(out, "A0.mtx"), a0)
        write_matrix(os.path.join(out, "A1.mtx"), a1)
        write_matrix(os.path.join(out, "B.mtx"), psys.b_fn(1.0))
        write_matrix(os.path.join(out, "C.mtx"), psys.c_fn(1.0))
    print(f"benchmark model written to {out}")
    return 0


def cmd_lyap(args):
    system = _input_system(args)
    out = _outdir(args)
    opts = AdiOptions(rel_tolerance=args.tol)
    result = lr_adi(LyapunovSpec(system, args.side), opts)
    final = result.residual_history[-1] if result.residual_history else 0.0
    print(f"final relative residual: {final:.6e} after "
          f"{len(result.residual_history)} iterations "
          f"(converged: {result.converged})")
    write_matrix(os.path.join(out, "Z.mtx"), result.z.z)
    _write_report(os.path.join(out, "lyap_report.txt"),
                  [f"equation side: {args.side}",
                   f"order: {system.order}",
                   f"tolerance: {args.tol:g}",
                   f"converged: {result.converged}",
                   f"factor columns: {result.z.columns}",
                   "relative residual history:"] +
                  _history_lines(result.residual_history))
    if not result.converged:
        raise SolverError("ADI iteration did not converge")
    return 0


def cmd_care(args):
    system = _input_system(args)
    out = _outdir(args)
    opts = NewtonOptions(rel_tolerance=args.tol)
    result = lr_newton(RiccatiSpec(system, args.side), opts)
    final = result.newton_residuals[-1]
    print(f"final relative residual: {final:.6e} after "
          f"{len(result.newton_residuals) - 1} Newton steps "
          f"(converged: {result.converged})")
    write_matrix(os.path.join(out, "Z.mtx"), result.z.z)
    write_matrix(os.path.join(out, "K.mtx"), result.k)
    _write_report(os.path.join(out, "care_report.txt"),
                  [f"equation side: {args.side}",
                   f"order: {system.order}",
                   f"tolerance: {args.tol:g}",
                   f"converged: {result.converged}",
                   f"factor columns: {result.z.columns}",
                   "newton relative residual history:"] +
                  _history_lines(result.newton_residuals))
    if not result.converged:
        raise SolverError("Newton iteration did not converge")
    return 0


def _write_rom(out, rom, prefix="rom"):
    write_matrix(os.path.join(out, f"{prefix}_E.mtx"), rom.e)
    write_matrix(os.path.join(out, f"{prefix}_A.mtx"), rom.a)
    write_matrix(os.path.join(out, f"{prefix}_B.mtx"), rom.b)
    write_matrix(os.path.join(out, f"{prefix}_C.mtx"), rom.c)
    write_matrix(os.path.join(out, f"{prefix}_D.mtx"), rom.d)


def cmd_bt(args):
    system = _input_system(args)
    out = _outdir(args)
    if args.order is None and args.tol is None:
        raise _UsageError("bt needs --order or --tol")
    rom, report = balanced_truncation(
        system, order=args.order, tol=args.tol if args.order is None else None)
    print(f"reduced order: {rom.order}, error bound: "
          f"{report.error_bound:.6e}")
    _write_rom(out, rom)
    write_matrix(os.path.join(out, "hsv.mtx"),
                 report.singular_values.reshape(-1, 1))
    _write_report(os.path.join(out, "bt_report.txt"),
                  [f"full order: {system.order}",
                   f"reduced order: {rom.order}",
                   f"error bound (2*sum truncated HSV): "
                   f"{report.error_bound:.6e}",
                   f"rank limited: {report.rank_limited}"])
    return 0


def cmd_irka(args):
    system = _input_system(args)
    out = _outdir(args)
    result = irka(system, args.order)
    print(f"IRKA order {result.rom.order}, converged: {result.converged} "
          f"after {result.n_iter} iterations")
    _write_rom(out, result.rom)
    _write_report(os.path.join(out, "irka_report.txt"),
                  [f"full order: {system.order}",
                   f"reduced order: {result.rom.order}",
                   f"converged: {result.converged}",
                   f"iterations: {result.n_iter}",
                   "final interpolation points:"] +
                  [f"  {s.real:+.6e} {s.imag:+.6e}j" for s in result.shifts])
    if not result.converged:
        raise SolverError("IRKA did not converge")
    return 0


def _order_table(ts, prom=None):
    lines = ["sample      mu           local order",
             "-" * 38]
    for i, (mu, r) in enumerate(zip(ts.samples, ts.local_orders)):
        lines.append(f"{i + 1:4d}   {mu:12.4e}   {r:6d}")
    lines.append("-" * 38)
    lines.append(f"sum of local orders: {sum(ts.local_orders)}")
    if prom is not None:
        lines.append(f"concatenated columns: {prom.concatenated_columns}")
        lines.append(f"order after rank truncation "
                     f"({prom.truncation_tol:.1e}): {prom.order}")
    return lines


def _parametric_input(args):
    cfg = BenchConfig(grid_size=args.grid, mu_range=args.mu_range,
                      omega_range=args.omega_range,
                      samples_per_axis=args.grid_points)
    if args.a0_file is not None:
        if args.a1_file is None or args.b_file is None or \
                args.c_file is None:
            raise _UsageError("affine file input needs --a0-file, --a1-file, "
                              "--b-file and --c-file")
        _require_files(args.a0_file, args.a1_file, args.b_file, args.c_file)
        a0 = read_matrix(args.a0_file).tocsr()
        a1 = read_matrix(args.a1_file).tocsr()
        b = read_dense(args.b_file)
        c = read_dense(args.c_file)
        psys = ParametricSystem(a_fn=lambda mu: (a0 + mu * a1).tocsr(),
                                b_fn=lambda mu: b, c_fn=lambda mu: c,
                                domain=tuple(args.mu_range),
                                a_affine=(a0, a1))
        return psys, cfg
    return gen_thermal_block_mini(cfg), cfg


def cmd_pmor_piecewise(args):
    psys, cfg = _parametric_input(args)
    out = _outdir(args)
    mus = log_samples(*psys.domain, args.samples)
    ts = train(psys, mus, args.method, tol=args.tol, order=args.order,
               sampling_rule="log_equispaced")
    prom = piecewise_assemble(ts, truncation_tol=args.trunc_tol,
                              one_sided=args.one_sided)
    grid = sigma_error_grid(psys, prom, cfg)
    write_grid_csv(grid, os.path.join(out, "error_grid.csv"))
    frac = float(np.mean(grid.values[np.isfinite(grid.values)] <= 1e-2))
    print(f"piecewise ROM order {prom.order} "
          f"(one_sided={args.one_sided}); relative error <= 1e-2 on "
          f"{100 * frac:.1f}% of the grid")
    _write_report(os.path.join(out, "pmor_piecewise_report.txt"),
                  [f"method: {args.method}",
                   f"one sided: {args.one_sided}",
                   f"training samples: {args.samples} (log equi-spaced)",
                   f"error grid: {args.grid_points} x {args.grid_points}",
                   f"fraction of cells with relative error <= 1e-2: "
                   f"{frac:.3f}", ""] + _order_table(ts, prom))
    return 0


def cmd_pmor_interp(args):
    psys, cfg = _parametric_input(args)
    out = _outdir(args)
    mus = chebyshev_samples(*psys.domain, args.samples)
    ts = train(psys, mus, args.method, tol=args.tol, order=args.order,
               sampling_rule="chebyshev")
    prom = interpolatory_assemble(ts, basis_kind=args.basis)
    grid = sigma_error_grid(psys, prom, cfg)
    write_grid_csv(grid, os.path.join(out, "error_grid.csv"))
    frac = float(np.mean(grid.values[np.isfinite(grid.values)] <= 1e-2))
    print(f"interpolatory ROM ({args.basis}) order {prom.order}; relative "
          f"error <= 1e-2 on {100 * frac:.1f}% of the grid")
    _write_report(os.path.join(out, "pmor_interp_report.txt"),
                  [f"method: {args.method}",
                   f"basis: {args.basis}",
                   f"training samples: {args.samples} (chebyshev)",
                   f"error grid: {args.grid_points} x {args.grid_points}",
                   f"fraction of cells with relative error <= 1e-2: "
                   f"{frac:.3f}", ""] + _order_table(ts))
    return 0


def cmd_sigma_grid(args):
    out = _outdir(args)
    cfg = BenchConfig(grid_size=args.grid, mu_range=args.mu_range,
                      omega_range=args.omega_range,
                      samples_per_axis=args.samples)
    if args.a_file is not None:
        if args.b_file is None or args.c_file is None:
            raise _UsageError("file input needs --a-file, --b-file and "
                              "--c-file")
        _require_files(args.a_file, args.e_file, args.b_file, args.c_file)
        obj = load_system(args.a_file, args.b_file, args.c_file,
                          e_path=args.e_file)
    elif args.model == "fd":
        obj = gen_fd_laplacian(args.grid)
    else:
        obj = gen_thermal_block_mini(cfg)
    grid = sigma_grid(obj, cfg)
    write_grid_csv(grid, os.path.join(out, "sigma_grid.csv"))
    print(f"sigma grid written ({grid.values.shape[0]} x "
          f"{grid.values.shape[1]} cells)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lrmor",
        description="low-rank matrix equation solvers and model reduction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-bench", help="write a benchmark model")
    p.add_argument("--model", choices=("fd", "thermal"), default="fd")
    p.add_argument("--grid", type=int, default=10)
    p.add_argument("--mu-range", type=_parse_range, default=(1e-6, 1e2))
    p.add_argument("--omega-range", type=_parse_range, default=(1e-4, 1e4))
    _add_common_flags(p)
    p.set_defaults(func=cmd_gen_bench)

    p = sub.add_parser("lyap", help="solve a Lyapunov equation by LR-ADI")
    _add_input_flags(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--side", choices=("N", "T"), default="N")
    _add_common_flags(p)
    p.set_defaults(func=cmd_lyap)

    p = sub.add_parser("care", help="solve a Riccati equation by low-rank "
                                    "Kleinman-Newton")
    _add_input_flags(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--side", choices=("N", "T"), default="T")
    _add_common_flags(p)
    p.set_defaults(func=cmd_care)

    p = sub.add_parser("bt", help="balanced truncation")
    _add_input_flags(p)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    _add_common_flags(p)
    p.set_defaults(func=cmd_bt)

    p = sub.add_parser("irka", help="tangential IRKA")
    _add_input_flags(p)
    p.add_argument("--order", type=int, required=True)
    _add_common_flags(p)
    p.set_defaults(func=cmd_irka)

    for name, func in (("pmor-piecewise", cmd_pmor_piecewise),
                       ("pmor-interp", cmd_pmor_interp)):
        p = sub.add_parser(name, help=f"{name} reduction of the thermal "
                                      "block benchmark")
        p.add_argument("--grid", type=int, default=24)
        p.add_argument("--samples", type=int, default=10,
                       help="number of training parameters")
        p.add_argument("--method", choices=("bt-tol", "bt-fixed", "irka"),
                       default="bt-tol")
        p.add_argument("--tol", type=float, default=1e-4)
        p.add_argument("--order", type=int, default=20)
        p.add_argument("--mu-range", type=_parse_range, default=(1e-6, 1e2))
        p.add_argument("--omega-range", type=_parse_range,
                       default=(1e-4, 1e4))
        p.add_argument("--grid-points", type=int, default=30,
                       help="error grid resolution per axis")
        p.add_argument("--a0-file", help="affine part A0 (Matrix Market)")
        p.add_argument("--a1-file", help="affine part A1 (Matrix Market)")
        p.add_argument("--b-file")
        p.add_argument("--c-file")
        if name == "pmor-piecewise":
            p.add_argument("--one-sided", action="store_true")
            p.add_argument("--trunc-tol", type=float, default=None)
        else:
            p.add_argument("--basis", choices=("lagrange", "bspline2"),
                           default="lagrange")
        _add_common_flags(p)
        p.set_defaults(func=func)

    p = sub.add_parser("sigma-grid", help="sample the transfer magnitude")
    p.add_argument("--model", choices=("fd", "thermal"), default="thermal")
    p.add_argument("--grid", type=int, default=24)
    p.add_argument("--a-file", help="plain system from files instead")
    p.add_argument("--e-file")
    p.add_argument("--b-file")
    p.add_argument("--c-file")
    p.add_argument("--samples", type=int, default=100,
                   help="samples per grid axis")
    p.add_argument("--mu-range", type=_parse_range, default=(1e-6, 1e2))
    p.add_argument("--omega-range", type=_parse_range, default=(1e-4, 1e4))
    _add_common_flags(p)
    p.set_defaults(func=cmd_sigma_grid)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, SingularOperatorError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
