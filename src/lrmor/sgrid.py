"""Sigma-magnitude grids over log-spaced (parameter, frequency) samples.

A grid cell holds ||H(mu, i*omega)||_2 (the largest singular value of the
transfer matrix) or, for error grids, the relative deviation
||H - Hhat||_2 / ||H||_2.  Singular evaluation points are recorded as NaN
cells rather than aborting the sweep.  Grids round-trip through CSV files
with header ``mu,omega,value``.

The sweeps know no model type: a parametric model's ``instantiate(mu)`` is
called once per grid row and returns a non-parametric model, whose
``transfer(s)`` takes the row's points as one vector.  A model without
``instantiate`` is non-parametric and serves every row as it is.  A row
that hits a singular point is redone point by point, so that only its
singular cells become NaN.

Rows run on worker threads, one per CPU the process may use, since sparse
LUs release the GIL.  The calling thread makes every ``instantiate(mu)``
call, in row order; workers only call ``transfer``.  No LU depends on which
row ran first (see :mod:`lrmor.operators`), so every value is bit-identical
to a serial sweep's.  The sweep returns once its threads have left the OS,
so the process may fork right after it.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import SingularOperatorError
from .pmor import log_samples


@dataclass
class SigmaGrid:
    mus: np.ndarray
    omegas: np.ndarray
    values: np.ndarray  # (len(mus), len(omegas)), >= 0 or NaN

    def __post_init__(self):
        self.mus = np.atleast_1d(np.asarray(self.mus, dtype=float))
        self.omegas = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.mus), len(self.omegas)):
            raise ValueError("grid shape does not match the sample lists")


def _at(obj, mu):
    """The non-parametric model of ``obj`` at ``mu``."""
    return obj.instantiate(mu) if hasattr(obj, "instantiate") else obj


def _cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep(row, objs, mus, omegas):
    """``row(models, points)`` per row, ``models`` being ``objs`` at its mu."""
    values = np.empty((len(mus), len(omegas)))
    points = 1j * omegas

    def fill(i, models):
        try:
            values[i] = row(models, points)
        except (SingularOperatorError, np.linalg.LinAlgError):
            for j, s in enumerate(points):
                try:
                    values[i, j] = row(models, s)
                except (SingularOperatorError, np.linalg.LinAlgError):
                    values[i, j] = np.nan

    rows = ((i, [_at(obj, mu) for obj in objs]) for i, mu in enumerate(mus))
    workers = min(_cpus(), len(mus))
    if workers <= 1:
        for i, models in rows:
            fill(i, models)
        return values
    tids = []
    try:
        with ThreadPoolExecutor(workers, initializer=lambda: tids.append(
                threading.get_native_id())) as pool:
            running = set()
            for i, models in rows:
                running.add(pool.submit(fill, i, models))
                if len(running) == workers:
                    done, running = wait(running, return_when=FIRST_COMPLETED)
                    for future in done:
                        future.result()
            for future in running:
                future.result()
    finally:
        _await_exit(tids)
    return values


def _await_exit(tids):
    """Wait, at most 1 s, until the OS threads ``tids`` are gone: a joined
    Python thread can linger in the OS for a few ms, and a process that
    forks meanwhile copies a half-dead thread."""
    deadline = time.monotonic() + 1.0
    for tid in tids:
        while (os.path.exists(f"/proc/self/task/{tid}")
               and time.monotonic() < deadline):
            time.sleep(1e-4)


def _sigma_max(h):
    """||H||_2 of each (p, m) matrix of ``h``."""
    return np.linalg.norm(h, 2, axis=(-2, -1))


def sigma_grid(obj, cfg=None, mus=None, omegas=None) -> SigmaGrid:
    """||H(mu, i*omega)||_2 over the grid.

    Samples default to the log-spaced lists of ``cfg``; explicit ``mus`` /
    ``omegas`` override them.  Non-parametric inputs ignore the parameter
    axis (a single row with mu = 0 is produced unless ``mus`` is given).
    """
    mus, omegas = _resolve_samples(obj, cfg, mus, omegas)

    def row(models, s):
        return _sigma_max(models[0].transfer(s))

    return SigmaGrid(mus, omegas, _sweep(row, [obj], mus, omegas))


def sigma_error_grid(full_obj, rom_obj, cfg=None, mus=None,
                     omegas=None) -> SigmaGrid:
    """Relative sigma-magnitude error ||H - Hhat||_2 / ||H||_2 per cell."""
    mus, omegas = _resolve_samples(full_obj, cfg, mus, omegas)

    def row(models, s):
        full, rom = models
        h = full.transfer(s)
        return _sigma_max(h - rom.transfer(s)) / _sigma_max(h)

    return SigmaGrid(mus, omegas,
                     _sweep(row, [full_obj, rom_obj], mus, omegas))


def _resolve_samples(obj, cfg, mus, omegas):
    if mus is None:
        if hasattr(obj, "instantiate"):
            if cfg is None:
                raise ValueError("need cfg or explicit mus for parametric "
                                 "input")
            mus = log_samples(*cfg.mu_range, cfg.samples_per_axis)
        else:
            mus = np.array([0.0])
    if omegas is None:
        if cfg is None:
            raise ValueError("need cfg or explicit omegas")
        omegas = log_samples(*cfg.omega_range, cfg.samples_per_axis)
    return np.atleast_1d(np.asarray(mus, float)), \
        np.atleast_1d(np.asarray(omegas, float))


def write_grid_csv(grid: SigmaGrid, path):
    """Write ``mu,omega,value`` rows; float repr keeps the round trip
    bit-exact."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("mu,omega,value\n")
        for i, mu in enumerate(grid.mus):
            for j, om in enumerate(grid.omegas):
                fh.write(f"{float(mu)!r},{float(om)!r},"
                         f"{float(grid.values[i, j])!r}\n")


def read_grid_csv(path) -> SigmaGrid:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "mu,omega,value":
            raise ValueError(f"unexpected CSV header {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    mus_seq = [float(r[0]) for r in rows]
    omegas_seq = [float(r[1]) for r in rows]
    vals = np.array([float(r[2]) for r in rows])
    mus = list(dict.fromkeys(mus_seq))
    omegas = list(dict.fromkeys(omegas_seq))
    values = vals.reshape(len(mus), len(omegas))
    return SigmaGrid(np.array(mus), np.array(omegas), values)
