"""Low-rank Kleinman-Newton iteration for algebraic Riccati equations.

Each Newton step solves the Lyapunov step equation

    (A - B K)^T X E + E^T X (A - B K) = -[C; K]^T [C; K]

by LR-ADI, with the closed-loop coefficient expressed as the low-rank update
A + (-B) K^T -- it is never formed.  The observability side ("T") is native;
the controllability side is handled on the transposed realization.  An
Armijo-type backtracking line search on the factored Riccati residual guards
against residual growth of a full step.

Every step system shares the sparse pencil (A, E) and its LU cache with the
Riccati system, since the feedback only enters the update.  By default one
heuristic shift pool of that pencil is computed once and cycled by every
step's LR-ADI (as M-M.E.S.S. reuses its shifts), so each shift is factorized
once for the whole iteration instead of once per step.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .equations import (LowRankFactor, LyapunovSpec, RiccatiSpec,
                        riccati_residual, spectral_norm, stability_check)
from .errors import SolverError
from .lradi import AdiOptions, lr_adi, shift_pool
from .operators import OperatorSet
from .system import LtiSystem

_MAX_HALVINGS = 8


@dataclass
class NewtonOptions:
    """Options of :func:`lr_newton`.

    ``inner`` configures every step's LR-ADI; its tolerance is replaced by
    the forcing term.  With the default heuristic strategy and no
    ``shifts``, one pool of ``max(shift_batch, 10)`` heuristic shifts of
    the open-loop pencil serves every step, and the pencil's LU cache keeps
    one factorization per pool shift.  ``shift_strategy="projection"``
    takes fresh projection shifts in every step instead, which factorizes
    anew in every step.
    """

    max_newton_steps: int = 30
    rel_tolerance: float = 1e-9
    inner: AdiOptions = field(
        default_factory=lambda: AdiOptions(shift_strategy="heuristic"))

    def __post_init__(self):
        if self.rel_tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass
class NewtonResult:
    z: LowRankFactor
    k: np.ndarray
    newton_residuals: list
    converged: bool


def _feedback(ops: OperatorSet, b, z):
    # K = B^T (Z Z^T) E, assembled thin
    ez = ops.mul_e("T", z)
    return (b.T @ z) @ ez.T


def lr_newton(spec: RiccatiSpec, opts: NewtonOptions | None = None
              ) -> NewtonResult:
    """Solve the Riccati equation of ``spec`` for Q ~ Z Z^T and the feedback
    K = B^T Q E (side "T"; the dual side returns K = C P E^T).

    Starts from K_0 = 0, which requires a stable pencil.  Inner ADI
    tolerances follow the Newton residual (forcing term
    ``min(0.1, 0.9 * previous residual)``, floored at the configured inner
    tolerance), so early steps are solved loosely.
    """
    if opts is None:
        opts = NewtonOptions()
    if spec.side == "N":
        dual = RiccatiSpec(spec.system.transposed(), side="T")
        res = lr_newton(dual, opts)
        return res

    system = spec.system
    ops = OperatorSet(system)
    n = ops.size()
    b, c = system.b, system.c
    ref = spectral_norm(c) ** 2
    if ref == 0.0:
        return NewtonResult(LowRankFactor.empty(n), np.zeros((b.shape[1], n)),
                            [0.0], True)

    pool = shift_pool(ops, opts.inner)
    inner_opts = dataclasses.replace(opts.inner, shifts=pool)
    z = LowRankFactor.empty(n)
    k = np.zeros((b.shape[1], n))
    prev_res = riccati_residual(spec, z).relative
    residuals = [prev_res]
    converged = False
    # the pencil keeps every pool shift (and A, E) for the whole iteration
    with system.lu_cache.holding(0 if pool is None else len(pool) + 2):
        for _ in range(opts.max_newton_steps):
            # inexact forcing: the inner Lyapunov residual must undercut the
            # current Riccati residual, measured against the step equation's
            # own constant term ||[C; K]||^2
            forcing = min(0.1, 0.9 * prev_res)
            g_norm = spectral_norm(np.vstack([c, k])) ** 2
            inner_tol = max(forcing * prev_res * ref / g_norm,
                            inner_opts.rel_tolerance)
            u_step = -b
            v_step = k.T
            if system.have_uv:
                u_step = np.hstack([system.u, u_step])
                v_step = np.hstack([system.v, v_step])
            step_sys = LtiSystem(a=system.a, b=b, c=np.vstack([c, k]),
                                 e=system.e,
                                 d=np.zeros((c.shape[0] + k.shape[0],
                                             b.shape[1])),
                                 u=u_step, v=v_step, lu_cache=system.lu_cache)
            inner = lr_adi(LyapunovSpec(step_sys, side="T"),
                           dataclasses.replace(inner_opts,
                                               rel_tolerance=inner_tol))
            if not inner.converged:
                raise SolverError(
                    "inner ADI did not converge within its iteration budget")
            cand = inner.z
            cand_res = riccati_residual(spec, cand).relative
            if cand_res > prev_res * (1.0 + 1e-12):
                accepted, accepted_res = cand, cand_res
                lam = 1.0
                for _ in range(_MAX_HALVINGS):
                    lam *= 0.5
                    blend = LowRankFactor(np.hstack([
                        np.sqrt(1.0 - lam) * z.z, np.sqrt(lam) * cand.z]))
                    blend_res = riccati_residual(spec, blend).relative
                    if blend_res < accepted_res:
                        accepted, accepted_res = blend, blend_res
                    if blend_res < prev_res:
                        break
                cand, cand_res = accepted, accepted_res
            z, prev_res = cand, cand_res
            k = _feedback(ops, b, z.z)
            residuals.append(prev_res)
            if prev_res <= opts.rel_tolerance:
                converged = True
                break
    return NewtonResult(z, k, residuals, converged)


def closed_loop_check(spec: RiccatiSpec, k: np.ndarray) -> bool:
    """Whether the closed-loop pencil (A_eff - B K, E) is stable."""
    system = spec.system if spec.side == "T" else spec.system.transposed()
    acl = system.dense_a_eff() - system.b @ np.atleast_2d(k)
    stable, _ = stability_check(system.e, acl)
    return stable
