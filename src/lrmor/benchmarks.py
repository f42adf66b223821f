"""Self-contained benchmark model generators.

Both models discretize heat conduction on the unit square with a 5-point
finite difference stencil and homogeneous Dirichlet boundaries, on a
``grid_size x grid_size`` interior grid with spacing h = 1/(grid_size+1).
The matrices are assembled from index arrays over all nodes at once, in
one sparse assembly each; they are bit-identical to those of a per-node
loop (``tests/referees.py`` keeps that loop as the referee).  Generation is
fully deterministic: identical configuration gives bitwise identical
matrices.
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


def _weighted_laplacian(g: int, kappa: np.ndarray,
                        boundary_kappa: float) -> sp.csr_matrix:
    """Graph Laplacian part W - D for edge weights arithmetically averaged
    from nodal coefficients; Dirichlet boundary edges use
    ``boundary_kappa`` for the ghost side.  Unscaled (no 1/h^2).

    Node u = iy * g + ix; ``kappa`` is indexed [ix, iy].  Each row is
    written straight in CSR order (columns u - g, u - 1, u, u + 1, u + g).
    The diagonal sums the four weights from 0 in the order +x, -x, +y, -y,
    so it rounds as a per-node loop does, and zero entries are not stored,
    as in the sparse difference W - D."""
    n = g * g
    k = np.asarray(kappa, dtype=float).T  # [iy, ix]: raveled in node order
    ghost = np.pad(k, 1, constant_values=boundary_kappa)
    w = 0.5 * (k[..., None] + np.stack(  # +x, -x, +y, -y
        [ghost[1:-1, 2:], ghost[1:-1, :-2], ghost[2:, 1:-1], ghost[:-2, 1:-1]],
        axis=-1))
    diag = ((w[..., 0] + w[..., 1]) + w[..., 2]) + w[..., 3]
    vals = np.stack([w[..., 3], w[..., 1], -diag, w[..., 0], w[..., 2]],
                    axis=-1).reshape(n, 5)
    ix, iy = np.meshgrid(np.arange(g), np.arange(g))
    keep = np.stack([iy > 0, ix > 0, np.full((g, g), True), ix < g - 1,
                     iy < g - 1], axis=-1).reshape(n, 5) & (vals != 0)
    cols = np.arange(n)[:, None] + np.array([-g, -1, 0, 1, g])
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(n, n))


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
    b.reshape(g, g)[:, src_cols] = 1.0  # [iy, ix] views of the node axis
    c.reshape(g, g)[:, obs_cols] = 1.0
    c /= c.sum()
    return LtiSystem(a=a, b=b, c=c, e=None)


def _block_boxes(g: int):
    """Inclusive index ranges (x0, x1, y0, y1) of the four sub-blocks,
    inside the grid and pairwise disjoint for g >= 8."""
    r = g // 8
    quarter, three_quarter = g // 4, (3 * g) // 4
    centers = [(quarter, quarter), (three_quarter, quarter),
               (quarter, three_quarter), (three_quarter, three_quarter)]
    return [(cx - r, cx + r, cy - r, cy + r) for cx, cy in centers]


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
    c = np.zeros((4, g * g))
    for i, (coef, (x0, x1, y0, y1)) in enumerate(zip(COEFFICIENTS, boxes)):
        kappa_mu[x0:x1 + 1, y0:y1 + 1] = coef
        block = c[i].reshape(g, g)[y0:y1 + 1, x0:x1 + 1]
        block[...] = 1.0 / block.size
    a0 = (_weighted_laplacian(g, np.ones((g, g)), 1.0) / h ** 2).tocsr()
    a1 = (_weighted_laplacian(g, kappa_mu, 0.0) / h ** 2).tocsr()
    b = np.zeros((g * g, 1))
    b[:g, 0] = 1.0 / h  # unit flux density through the bottom boundary face
    return ParametricSystem(a0, a1, b, c, domain=tuple(cfg.mu_range))
