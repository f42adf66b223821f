"""Referees for the tests, kept out of the library: dense desk-scale
oracles for the Lyapunov and Riccati equations and the stability check,
dense residuals of the PR/BR/LQG Riccati reformulations, dense closed-loop
and PSD-factor helpers (small test systems only: every matrix is formed
densely), and the per-node loop assembly of the benchmark models that the
array assembly in ``lrmor.benchmarks`` must reproduce bit for bit."""

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from lrmor import (BalancingTransform, LowRankFactor, LtiSystem, RiccatiSpec,
                   SingularOperatorError, SolverError)
from lrmor.benchmarks import COEFFICIENTS, _block_boxes
from lrmor.equations import spectral_norm

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


def dense_a_eff(system: LtiSystem) -> np.ndarray:
    """Densified A + U V^T of ``system``."""
    a = system.a.toarray()
    if system.have_uv:
        a = a + system.u @ system.v.T
    return a


def variant_residual(system: LtiSystem, variant: str, x: np.ndarray,
                     side: str = "N") -> np.ndarray:
    """Dense residual of the original PR/BR/LQG Riccati equation at ``x``."""
    a = dense_a_eff(system)
    e = system.dense_e()
    b, c, d = system.b, system.c, system.d
    x = np.atleast_2d(x)
    if side == "T":
        a, e, b, c, d = a.T, e.T, c.T, b.T, d.T
    lin = a @ x @ e.T + e @ x @ a.T
    epc = e @ x @ c.T
    if variant == "positive_real":
        core = la.solve(d + d.T, (epc - b).T)
        return lin + (epc - b) @ core
    if variant == "bounded_real":
        core = la.solve(np.eye(d.shape[0]) - d @ d.T, (epc + b @ d.T).T)
        return lin + b @ b.T + (epc + b @ d.T) @ core
    if variant == "lqg":
        core = la.solve(np.eye(d.shape[0]) + d @ d.T, (epc + b @ d.T).T)
        return lin + b @ b.T - (epc + b @ d.T) @ core
    raise ValueError(f"unknown variant {variant!r}")


def transformed_residual(transform: BalancingTransform, x: np.ndarray,
                         side: str = "N") -> np.ndarray:
    """Dense residual of the rewritten (tilde) Riccati equation at ``x``."""
    sys_ = transform.system
    a = dense_a_eff(sys_)
    e = sys_.dense_e()
    b, c = sys_.b, sys_.c
    x = np.atleast_2d(x)
    if side == "T":
        a, e, b, c = a.T, e.T, c.T, b.T
    lin = a @ x @ e.T + e @ x @ a.T
    quad = (e @ x @ c.T) @ (c @ x @ e.T)
    return lin + b @ b.T + transform.quad_sign * quad


def transposed(system: LtiSystem) -> LtiSystem:
    """The dual realization (E^T, A^T, C^T, B^T, D^T); U, V swap roles."""
    u = v = None
    if system.have_uv:
        u, v = system.v, system.u
    return LtiSystem(a=system.a.T, b=system.c.T, c=system.b.T,
                     e=system.e.T if system.have_e else None,
                     d=system.d.T, u=u, v=v)


def closed_loop_check(spec: RiccatiSpec, k: np.ndarray) -> bool:
    """Whether the closed-loop pencil (A_eff - B K, E) is stable; side "N"
    checks (A_eff^T - C^T K, E^T)."""
    system = spec.system if spec.side == "T" else transposed(spec.system)
    acl = dense_a_eff(system) - system.b @ np.atleast_2d(k)
    stable, _ = stability_check(system.e, acl)
    return stable


def spsd_factor(p: np.ndarray, tol: float = 1e-12) -> LowRankFactor:
    """Factor a symmetric PSD matrix as Z Z^T via its eigendecomposition."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    w, vecs = la.eigh((p + p.T) / 2.0)
    cut = max(w.max(), 0.0) * tol
    keep = w > cut
    return LowRankFactor(vecs[:, keep] * np.sqrt(w[keep]))


def _node_index(ix, iy, g):
    return iy * g + ix


def loop_weighted_laplacian(g: int, kappa: np.ndarray,
                            boundary_kappa: float) -> sp.csr_matrix:
    """Per-node loop assembly of ``benchmarks._weighted_laplacian``."""
    rows, cols, vals = [], [], []
    diag = np.zeros(g * g)
    for iy in range(g):
        for ix in range(g):
            u = _node_index(ix, iy, g)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                jx, jy = ix + dx, iy + dy
                if 0 <= jx < g and 0 <= jy < g:
                    w = 0.5 * (kappa[ix, iy] + kappa[jx, jy])
                    rows.append(u)
                    cols.append(_node_index(jx, jy, g))
                    vals.append(w)
                else:
                    w = 0.5 * (kappa[ix, iy] + boundary_kappa)
                diag[u] += w
    lap = sp.coo_matrix((vals, (rows, cols)), shape=(g * g, g * g)).tocsr()
    return lap - sp.diags(diag)


def loop_fd_laplacian(g: int):
    """(A, B, C) of ``gen_fd_laplacian(g)``, assembled node by node."""
    h = 1.0 / (g + 1)
    a = loop_weighted_laplacian(g, np.ones((g, g)), 1.0) / h ** 2
    xs = (np.arange(g) + 1) * h
    src_cols = np.flatnonzero(xs <= 0.25)
    if len(src_cols) == 0:
        src_cols = np.array([0])
    obs_cols = np.flatnonzero(xs >= 0.75)
    if len(obs_cols) == 0:
        obs_cols = np.array([g - 1])
    b = np.zeros((g * g, 1))
    c = np.zeros((1, g * g))
    for iy in range(g):
        for ix in src_cols:
            b[_node_index(ix, iy, g), 0] = 1.0
        for ix in obs_cols:
            c[0, _node_index(ix, iy, g)] = 1.0
    c /= c.sum()
    return a, b, c


def loop_thermal_block(g: int):
    """(A0, A1, B, C) of ``gen_thermal_block_mini`` at grid ``g``,
    assembled node by node."""
    h = 1.0 / (g + 1)
    kappa_mu = np.zeros((g, g))
    block_nodes = []
    for coef, (x0, x1, y0, y1) in zip(COEFFICIENTS, _block_boxes(g)):
        nodes = []
        for ix in range(x0, x1 + 1):
            for iy in range(y0, y1 + 1):
                kappa_mu[ix, iy] = coef
                nodes.append(_node_index(ix, iy, g))
        block_nodes.append(nodes)
    a0 = (loop_weighted_laplacian(g, np.ones((g, g)), 1.0) / h ** 2).tocsr()
    a1 = (loop_weighted_laplacian(g, kappa_mu, 0.0) / h ** 2).tocsr()
    b = np.zeros((g * g, 1))
    for ix in range(g):
        b[_node_index(ix, 0, g), 0] = 1.0 / h
    c = np.zeros((4, g * g))
    for i, nodes in enumerate(block_nodes):
        c[i, nodes] = 1.0 / len(nodes)
    return a0, a1, b, c
