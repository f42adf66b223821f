"""Self-contained benchmark model generators.

Both models discretize heat conduction on the unit square with a 5-point
finite difference stencil and homogeneous Dirichlet boundaries, on a
``grid_size x grid_size`` interior grid with spacing h = 1/(grid_size+1).
Generation is fully deterministic: identical configuration gives bitwise
identical matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .pmor import ParametricSystem
from .system import LtiSystem


# heat transfer coefficients of the thermal block's four sub-blocks, per mu
COEFFICIENTS = (0.2, 0.4, 0.6, 0.8)


@dataclass
class BenchConfig:
    grid_size: int
    mu_range: tuple = (1e-6, 1e2)
    omega_range: tuple = (1e-4, 1e4)
    samples_per_axis: int = 100

    def __post_init__(self):
        if self.mu_range[0] <= 0 or self.omega_range[0] <= 0:
            raise ValueError("ranges must be positive for log spacing")


def _node_index(ix, iy, g):
    return iy * g + ix


def _weighted_laplacian(g: int, kappa: np.ndarray,
                        boundary_kappa: float) -> sp.csr_matrix:
    """Graph Laplacian part W - D for edge weights arithmetically averaged
    from nodal coefficients; Dirichlet boundary edges use
    ``boundary_kappa`` for the ghost side.  Unscaled (no 1/h^2)."""
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


def gen_fd_laplacian(grid_size: int) -> LtiSystem:
    """Standard heat equation test model: A = Dirichlet 5-point Laplacian
    scaled by 1/h^2, E = I, point sources on a left strip, averaged
    observation over a right strip (single input, single output)."""
    g = int(grid_size)
    if g < 2:
        raise ValueError("grid_size must be >= 2")
    h = 1.0 / (g + 1)
    ones = np.ones((g, g))
    a = _weighted_laplacian(g, ones, 1.0) / h ** 2
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
    return LtiSystem(a=a, b=b, c=c, e=None)


def _block_boxes(g: int):
    r = g // 8
    quarter, three_quarter = g // 4, (3 * g) // 4
    centers = [(quarter, quarter), (three_quarter, quarter),
               (quarter, three_quarter), (three_quarter, three_quarter)]
    boxes = [(cx - r, cx + r, cy - r, cy + r) for cx, cy in centers]
    for x0, x1, y0, y1 in boxes:
        if x0 < 0 or y0 < 0 or x1 >= g or y1 >= g:
            raise ValueError("grid too small to contain the four sub-blocks")
    for i in range(4):
        for j in range(i + 1, 4):
            a, b = boxes[i], boxes[j]
            if not (a[1] < b[0] or b[1] < a[0] or a[3] < b[2] or b[3] < a[2]):
                raise ValueError("sub-blocks overlap; increase grid_size")
    return boxes


def gen_thermal_block_mini(cfg: BenchConfig) -> ParametricSystem:
    """Parametric heat equation with four square sub-blocks whose
    conductivities grow as 0.2 mu, 0.4 mu, 0.6 mu and 0.8 mu on top of unit
    background conductivity, so A(mu) = A0 + mu * A1 is affine, symmetric,
    and stable down to mu = 0.  One boundary-flux input on the bottom edge
    and four outputs averaging the sub-block temperatures."""
    g = int(cfg.grid_size)
    if g < 8:
        raise ValueError("grid_size must be >= 8")
    h = 1.0 / (g + 1)
    boxes = _block_boxes(g)
    kappa_mu = np.zeros((g, g))
    block_nodes = []
    for coef, (x0, x1, y0, y1) in zip(COEFFICIENTS, boxes):
        nodes = []
        for ix in range(x0, x1 + 1):
            for iy in range(y0, y1 + 1):
                kappa_mu[ix, iy] = coef
                nodes.append(_node_index(ix, iy, g))
        block_nodes.append(nodes)
    a0 = (_weighted_laplacian(g, np.ones((g, g)), 1.0) / h ** 2).tocsr()
    a1 = (_weighted_laplacian(g, kappa_mu, 0.0) / h ** 2).tocsr()
    b = np.zeros((g * g, 1))
    for ix in range(g):
        # unit flux density through the bottom boundary face
        b[_node_index(ix, 0, g), 0] = 1.0 / h
    c = np.zeros((4, g * g))
    for i, nodes in enumerate(block_nodes):
        c[i, nodes] = 1.0 / len(nodes)
    return ParametricSystem(
        a_fn=lambda mu: (a0 + mu * a1).tocsr(),
        b_fn=lambda mu: b,
        c_fn=lambda mu: c,
        domain=tuple(cfg.mu_range),
        a_affine=(a0, a1))
