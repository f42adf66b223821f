"""Low-rank RADI iteration for algebraic Riccati equations.

RADI (Benner, Bujanovic, Kuerschner and Saak, Numer. Math. 138, 2018; the
``mess_lrradi`` of M-M.E.S.S.) solves the observability side with one
linear solve per shift and no inner iteration.  From R = C^T, K = 0 and an
empty Z, each shift s does, with A the effective A + U V^T,

    V = sqrt(-2 Re s) (A^T - K B^T + s E^T)^{-1} R
    Y = I - (V^H B)(V^H B)^H / (2 Re s)
    R += sqrt(-2 Re s) E^T V Y^{-1},  K += E^T V Y^{-1} V^H B,
    Z gains V Y^{-1/2}

The residual at Q = Z Z^T is exactly R R^T, so the monitor ||R^T R|| /
||C C^T|| is the true residual.  The feedback is the low-rank update of the
closed loop A + [U, -B] [V, K]^T, so each shift is one ``sol_ape`` on the
pencil's cached LU of A + sE with one Woodbury step for the update.  A
conjugate pair takes one complex solve: the conjugate shift's block is
V P + conj(V) (I - P) for a p x p matrix P, so the pair updates R, K and Z
on the real basis [Re V, Im V].  Side "N" runs on the transposed system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .equations import (LowRankFactor, RiccatiSpec, constant_term_factor,
                        riccati_residual, spectral_norm)
from .errors import SolverError
from .lradi import AdiOptions, _schedule, heuristic_shifts
from .operators import OperatorSet


@dataclass
class NewtonResult:
    z: LowRankFactor
    k: np.ndarray
    newton_residuals: list
    converged: bool


def _update(s, width, u, b):
    """The step on the real basis ``u`` (V, or [Re V, Im V] for a conjugate
    pair): R and K gain E^T u [C_R, C_K], and Z gains u L."""
    q, p = u.shape[1], u.shape[1] // width
    eye, ub = np.eye(p), u.T @ b
    ts = [eye]
    if width == 2:
        # V = u T1; putting V P + conj(V) (I - P) into the conjugate shift's
        # solve leaves a p x p equation for P, so that solve is never made
        t1 = np.vstack([eye, 1j * eye])
        w1 = t1.conj().T @ ub
        lhs = -2j * s.imag * eye - np.conj(s) / s.real * w1 @ w1.conj().T \
            + w1 @ w1.T
        pp = np.linalg.solve(lhs, -2.0 * s.real * eye + w1 @ w1.T)
        ts = [t1, np.vstack([eye, 1j * (2.0 * pp - eye)])]
    coef = 0.0
    for t in ts:
        w = t.conj().T @ ub
        y = eye - w @ w.conj().T / (2.0 * s.real)
        coef = coef + t @ np.linalg.solve(
            y, np.hstack([np.sqrt(-2.0 * s.real) * eye, w, t.conj().T]))
    lam, vecs = la.eigh(coef[:, -q:].real)
    return coef[:, :-q].real, vecs * np.sqrt(np.maximum(lam, 0.0))


def lr_newton(spec: RiccatiSpec, opts: AdiOptions | None = None
              ) -> NewtonResult:
    """Solve the Riccati equation of ``spec`` by RADI for Q ~ Z Z^T and the
    feedback K = B^T Q E (side "T"; the dual side returns K = C P E^T).

    RADI is an ADI iteration and takes :class:`~lrmor.lradi.AdiOptions`; its
    pool of ``shifts`` is cycled, one LU per shift, and without one the pool
    is the pencil's 10 heuristic shifts.

    ``newton_residuals`` holds the relative residual before the first step
    and after each shift (a conjugate pair records its residual twice); the
    last entry, and ``converged``, come from :func:`riccati_residual` of the
    returned factor.  Running out of steps returns the partial factor with
    ``converged=False``; a residual that is not finite or exceeds 1/eps
    raises :class:`SolverError`.
    """
    opts = opts or AdiOptions()
    if spec.side == "N":
        return lr_newton(RiccatiSpec(spec.system.transposed(), "T"), opts)
    system = spec.system
    ops = OperatorSet(system)
    n, b = system.order, system.b
    u, v = (system.u, system.v) if system.have_uv else (b[:, :0], b[:, :0])
    loop = OperatorSet(system.with_update(np.hstack([u, -b]),
                                          np.hstack([v, np.zeros_like(b)])))
    # K is the closed loop's trailing m update columns, updated in place
    r, k = constant_term_factor(system, "T"), loop.system.v[:, -b.shape[1]:]
    c_norm = spectral_norm(r)
    if c_norm == 0.0:
        return NewtonResult(LowRankFactor(np.zeros((n, 0))), k.T, [0.0], True)

    pool = opts.shifts if opts.shifts is not None else heuristic_shifts(ops)
    schedule, block = _schedule(ops, pool, r), None
    zblocks, residuals, it = [], [1.0], 0
    # the pencil keeps every pool shift (and A, E) for the whole iteration
    with system.lu_cache.holding(len(pool) + 2):
        while residuals[-1] > opts.rel_tolerance \
                and it < opts.max_iterations:
            s, width = schedule.send(block)
            v = np.sqrt(-2.0 * s.real) * loop.sol_ape(
                "T", s.real if width == 1 else s, "T", r)
            block = v if width == 1 else np.hstack([v.real, v.imag])
            coef, zfac = _update(s, width, block, b)
            update = ops.mul_e("T", block) @ coef
            r = r + update[:, :r.shape[1]]
            k += update[:, r.shape[1]:]
            zblocks.append(block @ zfac)
            it += width
            ratio = spectral_norm(r) / c_norm if np.isfinite(r).all() \
                else np.inf
            if not ratio <= np.finfo(float).eps ** -0.5:
                raise SolverError(
                    f"RADI diverged: the residual exceeds 1/eps or is not "
                    f"finite after {it} steps (is the pencil unstable?)")
            residuals.extend([ratio ** 2] * width)
    z = LowRankFactor(np.hstack(zblocks) if zblocks else np.zeros((n, 0)))
    residuals[-1] = riccati_residual(spec, z).relative
    return NewtonResult(z, k.T, residuals,
                        residuals[-1] <= opts.rel_tolerance)

