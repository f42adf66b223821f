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
on the real basis [Re V, Im V].  Side "N" runs on the same pencil and its
LUs, untransposed: R starts at B, C^T takes B's place, and the closed loop
is A + [U, K] [V, -C^T]^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .equations import LowRankFactor, RiccatiSpec, riccati_residual
from .lradi import (AdiOptions, _AdiRun, _drive, _schedule,
                    heuristic_shifts)
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


class _RadiRun(_AdiRun):
    """RADI on ``side``: W is R, the solves are with the closed loop, and K
    is the trailing columns of the loop's update, updated in place."""

    def __init__(self, system, side, opts):
        self.quad = system.b if side == "T" else system.c.T
        zero = np.zeros_like(self.quad)
        u, v = (system.u, system.v) if system.have_uv else (zero[:, :0],) * 2
        tail = (-self.quad, zero) if side == "T" else (zero, -self.quad)
        loop = system.with_update(np.hstack([u, tail[0]]),
                                  np.hstack([v, tail[1]]))
        self.k = (loop.v if side == "T" else loop.u)[:, -zero.shape[1]:]
        super().__init__(OperatorSet(loop), side, opts)

    def _advance(self, s, width, v):
        v = np.sqrt(-2.0 * s.real) * v
        block = v if width == 1 else np.hstack([v.real, v.imag])
        coef, zfac = _update(s, width, block, self.quad)
        update = self.ops.mul_e(self.side, block) @ coef
        self.w = self.w + update[:, :self.w.shape[1]]
        self.k += update[:, self.w.shape[1]:]
        self.zblocks.append(block @ zfac)
        return block


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
    ``converged=False``; a residual that exceeds 1/eps or is not finite
    raises :class:`SolverError`.
    """
    opts = opts or AdiOptions()
    run = _RadiRun(spec.system, spec.side, opts)
    if not run.done:
        pool = opts.shifts if opts.shifts is not None \
            else heuristic_shifts(OperatorSet(spec.system))
        # the pencil keeps every pool shift (and A, E) for the whole run
        with spec.system.lu_cache.holding(len(pool) + 2):
            _drive(run, _schedule(run.ops, pool, run.w))
    z = run.result().z
    residuals = [1.0] + run.history
    residuals[-1] = riccati_residual(spec, z).relative
    return NewtonResult(z, run.k.T, residuals,
                        residuals[-1] <= opts.rel_tolerance)
