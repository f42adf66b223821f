"""Referees for the tests, kept out of the library: dense residuals of the
PR/BR/LQG Riccati reformulations, dense closed-loop and PSD-factor helpers
(small test systems only: every matrix is formed densely), and the
per-node loop assembly of the benchmark models that the array assembly in
``lrmor.benchmarks`` must reproduce bit for bit."""

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from lrmor import (BalancingTransform, LowRankFactor, LtiSystem, RiccatiSpec,
                   stability_check)
from lrmor.benchmarks import COEFFICIENTS, _block_boxes


def variant_residual(system: LtiSystem, variant: str, x: np.ndarray,
                     side: str = "N") -> np.ndarray:
    """Dense residual of the original PR/BR/LQG Riccati equation at ``x``."""
    a = system.dense_a_eff()
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
    a = sys_.dense_a_eff()
    e = sys_.dense_e()
    b, c = sys_.b, sys_.c
    x = np.atleast_2d(x)
    if side == "T":
        a, e, b, c = a.T, e.T, c.T, b.T
    lin = a @ x @ e.T + e @ x @ a.T
    quad = (e @ x @ c.T) @ (c @ x @ e.T)
    return lin + b @ b.T + transform.quad_sign * quad


def closed_loop_check(spec: RiccatiSpec, k: np.ndarray) -> bool:
    """Whether the closed-loop pencil (A_eff - B K, E) is stable."""
    system = spec.system if spec.side == "T" else spec.system.transposed()
    acl = system.dense_a_eff() - system.b @ np.atleast_2d(k)
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
