"""Equation descriptors, factored residuals and dense desk-scale oracles.

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
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import SingularOperatorError, SolverError
from .operators import OperatorSet
from .system import LtiSystem

_SIDES = ("N", "T")


@dataclass
class LowRankFactor:
    """Tall matrix Z representing the SPSD matrix Z Z^T."""

    z: np.ndarray

    def __post_init__(self):
        self.z = np.atleast_2d(np.asarray(self.z, dtype=float))

    @classmethod
    def empty(cls, n: int) -> "LowRankFactor":
        return cls(np.zeros((n, 0)))

    @property
    def order(self) -> int:
        return self.z.shape[0]

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


def _swap_block(k):
    s = np.zeros((2 * k, 2 * k))
    s[:k, k:] = np.eye(k)
    s[k:, :k] = np.eye(k)
    return s


def _sym_eig_norm(f, signs):
    """max |eig| of F S F^T via the R factor of a thin QR of F (Q is never
    formed).

    ``signs`` holds (block_width, sign_block) pairs describing the small
    symmetric middle matrix S; the norm of F S F^T equals the largest
    eigenvalue magnitude of R S R^T.
    """
    if f.shape[1] == 0:
        return 0.0
    r = np.linalg.qr(f, mode="r")
    s = np.zeros((f.shape[1], f.shape[1]))
    off = 0
    for width, block in signs:
        s[off:off + width, off:off + width] = block
        off += width
    small = r @ s @ r.T
    small = (small + small.T) / 2.0
    return float(np.abs(la.eigvalsh(small)).max())


def _factored_residual(spec, zf: LowRankFactor, quad=None) -> ResidualReport:
    # ||F S F^T|| for F = [A_eff Z, E Z, G] (and E Z Z^T quad when given), S
    # the swap block for the first two, +I for G and -I for the quadratic term
    ops = OperatorSet(spec.system)
    side = spec.side
    z = zf.z
    if z.shape[0] != ops.size():
        raise ValueError(f"factor has {z.shape[0]} rows, expected {ops.size()}")
    g = constant_term_factor(spec.system, side)
    k, m = z.shape[1], g.shape[1]
    ez = ops.mul_e(side, z)
    blocks = [ops.mul_a(side, z), ez, g]
    signs = [(2 * k, _swap_block(k)), (m, np.eye(m))]
    if quad is not None:
        blocks.append(ez @ (z.T @ quad))
        signs.append((quad.shape[1], -np.eye(quad.shape[1])))
    absolute = _sym_eig_norm(np.hstack(blocks), signs)
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


# -- dense oracles -----------------------------------------------------------

_ORACLE_CAP = 200
_DENSE_KRON_CAP = 60


def dense_lyap_solve(e, a, g) -> np.ndarray:
    """Solve A P E^T + E P A^T + G G^T = 0 by Kronecker vectorization.

    The n^2 x n^2 system (E (x) A + A (x) E) vec(P) = -vec(G G^T) is set up
    explicitly and solved directly; ``e=None`` means the identity.  Intended
    as an independent desk-scale oracle, n <= 200 (n <= 60 for dense input).
    Raises :class:`SolverError` when the pencil has a mirrored eigenvalue
    pair (singular Kronecker system).
    """
    sparse_in = sp.issparse(a) or sp.issparse(e)
    a_s = a.tocsr() if sp.issparse(a) else sp.csr_matrix(np.atleast_2d(a))
    n = a_s.shape[0]
    if n > _ORACLE_CAP:
        raise ValueError(f"oracle limited to n <= {_ORACLE_CAP}, got {n}")
    if not sparse_in and n > _DENSE_KRON_CAP:
        raise ValueError(
            f"dense input limited to n <= {_DENSE_KRON_CAP}, got {n}")
    if e is None:
        e_s = sp.identity(n, format="csr")
    else:
        e_s = e.tocsr() if sp.issparse(e) else sp.csr_matrix(np.atleast_2d(e))
    g = np.atleast_2d(np.asarray(g, dtype=float))
    if g.shape[0] != n:
        raise ValueError("right-hand-side factor has wrong row count")
    rhs = -(g @ g.T).ravel(order="F")
    kron = (sp.kron(e_s, a_s) + sp.kron(a_s, e_s)).tocsc()
    try:
        x = splu(kron).solve(rhs)
    except RuntimeError as exc:
        raise SolverError(
            "singular Kronecker system: pencil has a mirrored eigenvalue "
            "pair") from exc
    if not np.isfinite(x).all():
        raise SolverError("Kronecker solve produced non-finite values")
    p = x.reshape((n, n), order="F")
    asym = np.abs(p - p.T).max()
    scale = max(np.abs(p).max(), 1.0)
    if asym > 1e-10 * scale:
        raise SolverError(f"oracle solution not symmetric (defect {asym:.2e})")
    return (p + p.T) / 2.0


def _dense_lyap_newton_step(e, a, g):
    # Bartels-Stewart on the E-reduced equation; inner engine of the dense
    # Riccati Newton iteration (the Kronecker oracle is too slow once the
    # closed-loop matrix goes dense).
    if e is None:
        f, h = a, g
    else:
        f = la.solve(e, a)
        h = la.solve(e, g)
    p = la.solve_continuous_lyapunov(f, -(h @ h.T))
    return (p + p.T) / 2.0


def dense_are_solve(e, a, b, c, max_steps: int = 50,
                    tol: float = 1e-12) -> np.ndarray:
    """Stabilizing solution Q of the observability-side Riccati equation.

        A^T Q E + E^T Q A + C^T C - E^T Q B B^T Q E = 0

    Dense Newton iteration started from Q = 0, valid for stable pencils;
    the closed loop A - B B^T Q E is verified stable before returning.
    """
    a_d = a.toarray() if sp.issparse(a) else np.atleast_2d(np.asarray(a, float))
    e_d = None if e is None else (
        e.toarray() if sp.issparse(e) else np.atleast_2d(np.asarray(e, float)))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    n = a_d.shape[0]
    if n > _ORACLE_CAP:
        raise ValueError(f"oracle limited to n <= {_ORACLE_CAP}, got {n}")
    stable, abscissa = stability_check(e_d, a_d)
    if not stable:
        raise SolverError(
            f"dense Riccati oracle requires a stable pencil (abscissa "
            f"{abscissa:.3e}); unstable initialization is unsupported")
    ref = spectral_norm(c) ** 2
    if ref == 0.0:
        return np.zeros((n, n))
    ed = np.eye(n) if e_d is None else e_d
    q = np.zeros((n, n))
    for _ in range(max_steps):
        k = b.T @ q @ ed
        acl = a_d - b @ k
        g = np.hstack([c.T, k.T])
        # observability-side step equation == controllability form on the
        # transposed data
        q = _dense_lyap_newton_step(None if e_d is None else ed.T, acl.T, g)
        res = a_d.T @ q @ ed + ed.T @ q @ a_d + c.T @ c \
            - ed.T @ q @ b @ (b.T @ q @ ed)
        if spectral_norm(res) <= tol * ref:
            break
    else:
        raise SolverError(f"dense Riccati Newton: no convergence in "
                          f"{max_steps} steps")
    closed, _ = stability_check(e_d, a_d - b @ (b.T @ q @ ed))
    if not closed:
        raise SolverError("dense Riccati oracle: closed loop not stable")
    return q


def stability_check(e, a):
    """Whether all generalized eigenvalues of (A, E) lie in the open left
    half-plane; returns ``(stable, spectral_abscissa)``."""
    a_d = a.toarray() if sp.issparse(a) else np.atleast_2d(np.asarray(a, float))
    if e is None:
        lam = la.eigvals(a_d)
    else:
        e_d = e.toarray() if sp.issparse(e) else np.atleast_2d(
            np.asarray(e, float))
        lam = la.eigvals(a_d, e_d)
    if not np.isfinite(lam).all():
        raise SingularOperatorError(
            "singular E: pencil has infinite eigenvalues")
    abscissa = float(lam.real.max())
    return abscissa < 0.0, abscissa

