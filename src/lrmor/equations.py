"""Equation descriptors and factored residuals.

The continuous-time equations come in dual pairs.  ``side="N"`` selects the
controllability equation (constant term built from B), ``side="T"`` the
observability equation (built from C):

    N:  A P E^T + E P A^T + B B^T (- E P C^T C P E^T)  = 0
    T:  A^T Q E + E^T Q A + C^T C (- E^T Q B B^T Q E)  = 0

Solutions are carried as tall factors Z with P ~ Z Z^T.  Residual norms are
always spectral and are evaluated in factored form, never materializing an
n x n residual.  If the system carries a low-rank update, the effective
coefficient A + U V^T is used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .operators import OperatorSet
from .system import LtiSystem

_SIDES = ("N", "T")


@dataclass
class LowRankFactor:
    """Tall matrix Z representing the SPSD matrix Z Z^T."""

    z: np.ndarray

    def __post_init__(self):
        self.z = np.atleast_2d(np.asarray(self.z, dtype=float))

    @property
    def columns(self) -> int:
        return self.z.shape[1]

    def dense(self) -> np.ndarray:
        return self.z @ self.z.T


@dataclass
class ResidualReport:
    absolute: float
    relative: float


@dataclass
class LyapunovSpec:
    """One of the dual Lyapunov equations for a given system."""

    system: LtiSystem
    side: str = "N"

    def __post_init__(self):
        if self.side not in _SIDES:
            raise ValueError(f"side must be 'N' or 'T', got {self.side!r}")


@dataclass
class RiccatiSpec:
    """One of the dual Riccati equations; needs both B and C."""

    system: LtiSystem
    side: str = "T"

    def __post_init__(self):
        if self.side not in _SIDES:
            raise ValueError(f"side must be 'N' or 'T', got {self.side!r}")


def spectral_norm(m) -> float:
    m = np.atleast_2d(m)
    if min(m.shape) == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def orthonormal_basis(m, tol: float | None = None) -> np.ndarray:
    """Left singular vectors of ``m`` with singular value above ``tol`` times
    the largest (default ``tol = max(m.shape) * eps``); none for a zero m."""
    u, s, _ = la.svd(m, full_matrices=False)
    if tol is None:
        tol = max(m.shape) * np.finfo(float).eps
    return u[:, s > tol * (s[0] if len(s) else 0.0)]


def constant_term_factor(system: LtiSystem, side: str) -> np.ndarray:
    """Factor G of the constant term G G^T (B for side N, C^T for side T)."""
    return np.array(system.b if side == "N" else system.c.T, dtype=float)


def _factored_residual(spec, zf: LowRankFactor, quad=None) -> ResidualReport:
    # ||F S F^T|| for F = [A_eff Z, E Z, G] (and E Z Z^T quad when given), S
    # the swap block for the first two, +I for G and -I for the quadratic
    # term: the largest |eigenvalue| of R S R^T, R from a thin QR of F (Q is
    # never formed).  R S only swaps and negates R's column blocks
    ops = OperatorSet(spec.system)
    side, z, n = spec.side, zf.z, spec.system.order
    if z.shape[0] != n:
        raise ValueError(f"factor has {z.shape[0]} rows, expected {n}")
    g = constant_term_factor(spec.system, side)
    k, m = z.shape[1], g.shape[1]
    ez = ops.mul_e(side, z)
    blocks = [ops.mul_a(side, z), ez, g]
    if quad is not None:
        blocks.append(ez @ (z.T @ quad))
    r = np.linalg.qr(np.hstack(blocks), mode="r")
    ra, re, rg, rq = np.split(r, [k, 2 * k, 2 * k + m], axis=1)
    small = np.hstack([re, ra, rg, -rq]) @ r.T
    small = (small + small.T) / 2.0
    absolute = float(np.abs(la.eigvalsh(small)).max(initial=0.0))
    ref = spectral_norm(g) ** 2
    return ResidualReport(absolute, absolute / ref if ref > 0 else absolute)


def lyap_residual(spec: LyapunovSpec, zf: LowRankFactor) -> ResidualReport:
    """Spectral norm of the Lyapunov residual at P = Z Z^T, factored.

    Stacks F = [A_eff Z, E Z, G] and evaluates the norm of the compressed
    product; cost is O(n (2k + m)^2).
    """
    return _factored_residual(spec, zf)


def riccati_residual(spec: RiccatiSpec, zf: LowRankFactor) -> ResidualReport:
    """Spectral norm of the Riccati residual at Q = Z Z^T, factored; F gains
    the quadratic term's block E Z Z^T B (E Z Z^T C^T on side "N")."""
    sys_ = spec.system
    return _factored_residual(spec, zf,
                              quad=sys_.b if spec.side == "T" else sys_.c.T)
