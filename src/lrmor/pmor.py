"""Parametric model order reduction over a scalar parameter.

Two families are provided on top of the non-parametric reductions:

* piecewise: train local ROMs at parameter samples, concatenate their bases
  into constant global V, W (rank-truncated), optionally merged one-sided
  (W := V) for guaranteed stability of symmetric problems;
* interpolatory: blend the local reduced transfer functions with scalar
  coefficient functions (Lagrange polynomials or order-2 B-splines) in the
  log10 parameter coordinate, realized block-diagonally with the parameter
  dependence carried by the output matrix.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .equations import orthonormal_basis
from .errors import SolverError
from .mor import IrkaOptions, IrkaResult, Rom, _pencil_solve, \
    balanced_truncation, irka, project
from .system import LtiSystem, as_sparse

_METHODS = ("bt-tol", "bt-fixed", "irka")


class _Parametric:
    """A model over a scalar parameter; ``instantiate(mu)`` returns the
    non-parametric model at ``mu``."""

    def transfer(self, mu: float, s) -> np.ndarray:
        """H(mu, s): (p, m) for one point ``s``, (k, p, m) for a 1-D array
        of k points (see ``LtiSystem.transfer``)."""
        return self.instantiate(mu).transfer(s)


@dataclass
class ParametricSystem(_Parametric):
    """The affine model A(mu) = A0 + mu * A1, E = I, with constant B, C and
    D over a scalar parameter domain (lo, hi).

    It holds that data: sparse ``a0`` and ``a1`` of one order, dense ``b``
    and ``c``, the ``domain`` and an optional ``d``.  ``instantiate(mu)``
    returns the full-order ``LtiSystem`` at ``mu``.  The sigma sweeps call
    ``instantiate`` in the calling thread only; the ``transfer`` of the
    system it returns may run on a worker thread.
    """

    a0: sp.spmatrix
    a1: sp.spmatrix
    b: np.ndarray
    c: np.ndarray
    domain: tuple[float, float]
    d: np.ndarray | None = None

    def __post_init__(self):
        self.a0, self.a1 = as_sparse(self.a0), as_sparse(self.a1)
        if self.a1.shape != self.a0.shape:
            raise ValueError(f"A1 must match A0: {self.a1.shape} vs "
                             f"{self.a0.shape}")

    def instantiate(self, mu: float) -> LtiSystem:
        _check_domain(self.domain, mu)
        return LtiSystem(a=(self.a0 + mu * self.a1).tocsr(), b=self.b,
                         c=self.c, d=self.d)


def _check_domain(domain, mu):
    lo, hi = domain
    if not (lo * (1 - 1e-12) <= mu <= hi * (1 + 1e-12)):
        raise ValueError(f"parameter {mu} outside domain [{lo}, {hi}]")


def log_samples(lo: float, hi: float, k: int) -> np.ndarray:
    """k logarithmically equi-spaced samples in [lo, hi]."""
    return np.logspace(np.log10(lo), np.log10(hi), k)


def chebyshev_samples(lo: float, hi: float, k: int) -> np.ndarray:
    """Chebyshev roots mapped to the log10 domain, sorted ascending."""
    i = np.arange(1, k + 1)
    roots = np.cos((2 * i - 1) * np.pi / (2 * k))
    xlo, xhi = np.log10(lo), np.log10(hi)
    x = 0.5 * (xlo + xhi) + 0.5 * (xhi - xlo) * roots
    return np.sort(10.0 ** x)


@dataclass
class TrainingSet:
    """Per-sample local ROMs plus bookkeeping for the order tables."""

    psys: ParametricSystem
    samples: np.ndarray
    roms: list
    infos: list  # HsvReport for BT, IrkaResult for IRKA

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if len(self.samples) < 1:
            raise ValueError("training set needs at least one sample")
        if not len(self.samples) == len(self.roms) == len(self.infos):
            raise ValueError("training set needs one ROM and one info per "
                             "sample")
        if (np.diff(self.samples) <= 0).any():
            raise ValueError("training samples must be strictly increasing")
        for mu in self.samples:
            _check_domain(self.psys.domain, mu)

    @property
    def local_orders(self) -> list:
        return [rom.order for rom in self.roms]


def train(psys: ParametricSystem, samples, method: str, tol: float = 1e-4,
          order: int = 20) -> TrainingSet:
    """Reduce the system at each training sample with the chosen local
    method.  IRKA runs are warm-started from the previous sample's shifts
    and tangential directions."""
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    samples = np.asarray(samples, dtype=float)
    roms, infos = [], []
    prev_irka: IrkaResult | None = None
    for i, mu in enumerate(samples):
        sys_mu = psys.instantiate(mu)
        try:
            if method == "bt-tol":
                rom, info = balanced_truncation(sys_mu, tol=tol)
            elif method == "bt-fixed":
                rom, info = balanced_truncation(sys_mu, order=order)
            else:
                opts = IrkaOptions()
                if prev_irka is not None:
                    opts.initial_shifts = prev_irka.shifts
                    opts.initial_b = prev_irka.b_dirs
                    opts.initial_c = prev_irka.c_dirs
                info = irka(sys_mu, order, opts)
                rom = info.rom
                prev_irka = info
        except Exception as exc:
            raise SolverError(
                f"local reduction failed at sample {i} (mu={mu:.6g}): {exc}"
            ) from exc
        roms.append(rom)
        infos.append(info)
    return TrainingSet(psys, samples, roms, infos)


def _truncated_orth(m, tol):
    if not m.any():
        raise ValueError("cannot orthonormalize a zero basis")
    return orthonormal_basis(m, tol)


@dataclass
class PiecewiseRom(_Parametric):
    """Constant global projection bases valid over the whole domain;
    ``instantiate(mu)`` projects the full-order system at ``mu`` on them."""

    psys: ParametricSystem
    v: np.ndarray
    w: np.ndarray
    truncation_tol: float
    concatenated_columns: int

    @property
    def order(self) -> int:
        return self.v.shape[1]

    def instantiate(self, mu: float) -> Rom:
        """Dense reduced matrices at one parameter value."""
        return project(self.psys.instantiate(mu), self.v, self.w)


def piecewise_assemble(ts: TrainingSet, truncation_tol: float | None = None,
                       one_sided: bool = False) -> PiecewiseRom:
    """Concatenate the local bases and rank-truncate.

    The default truncation tolerance is machine epsilon (only numerically
    dependent directions are dropped).  ``one_sided`` merges all V and W
    blocks into one orthonormal V and sets W := V.  With distinct two-sided
    ranks both bases are cut to the smaller one so the reduced pencil stays
    square.
    """
    if truncation_tol is None:
        truncation_tol = np.finfo(float).eps
    vcat = np.hstack([rom.v for rom in ts.roms])
    wcat = np.hstack([rom.w for rom in ts.roms])
    if vcat.shape[1] == 0:
        raise ValueError("empty basis concatenation")
    if one_sided:
        v = _truncated_orth(np.hstack([vcat, wcat]), truncation_tol)
        w = v
        ncat = vcat.shape[1] + wcat.shape[1]
    else:
        v = _truncated_orth(vcat, truncation_tol)
        w = _truncated_orth(wcat, truncation_tol)
        r = min(v.shape[1], w.shape[1])
        v, w = v[:, :r], w[:, :r]
        ncat = vcat.shape[1]
    return PiecewiseRom(ts.psys, v, w, truncation_tol, ncat)


# -- scalar coefficient functions ---------------------------------------------

def lagrange_coefficients(nodes: np.ndarray, x: float) -> np.ndarray:
    """Cardinal Lagrange polynomials at x: ell_i(node_j) = delta_ij."""
    nodes = np.asarray(nodes, dtype=float)
    k = len(nodes)
    out = np.ones(k)
    for i in range(k):
        for j in range(k):
            if j != i:
                out[i] *= (x - nodes[j]) / (nodes[i] - nodes[j])
    return out


def bspline2_coefficients(nodes: np.ndarray, x: float) -> np.ndarray:
    """Order-2 (piecewise linear) B-spline basis with clamped end knots:
    nonnegative, summing to one on [nodes[0], nodes[-1]]."""
    nodes = np.asarray(nodes, dtype=float)
    k = len(nodes)
    out = np.zeros(k)
    if x <= nodes[0]:
        out[0] = 1.0
        return out
    if x >= nodes[-1]:
        out[-1] = 1.0
        return out
    j = int(np.searchsorted(nodes, x, side="right") - 1)
    t = (x - nodes[j]) / (nodes[j + 1] - nodes[j])
    out[j] = 1.0 - t
    out[j + 1] = t
    return out


@dataclass
class InterpolatoryRom(_Parametric):
    """Block-diagonal realization of the blended transfer function.

    Hhat(mu, s) = Chat(mu) (s Ehat - Ahat)^{-1} Bhat with
    Chat(mu) = [ell_1(mu) Chat^(1) ... ell_k(mu) Chat^(k)]; interpolation
    runs in the log10 parameter coordinate.  ``instantiate(mu)`` blends the
    output blocks into a ``Rom`` that shares the block pencil; the blend is
    not a projection, so that ``Rom`` has no bases.  A ``mu`` outside
    ``domain`` is a ``ValueError`` in ``coefficients`` (so in
    ``instantiate``), as for the full-order model.

    Only Chat and D depend on mu, so X(s) = (s Ehat - Ahat)^{-1} Bhat is
    solved once per vector of points: the interpolant keeps X for the
    latest points it was asked for, and every instantiation's ``transfer``
    at those points is Chat(mu) X + D(mu), bit for bit what solving anew
    would give.  The block matrices must not change after the first solve.
    """

    nodes_log10: np.ndarray
    basis_kind: str
    domain: tuple[float, float]
    block_e: np.ndarray
    block_a: np.ndarray
    block_b: np.ndarray
    c_blocks: list
    d_blocks: list

    def __post_init__(self):
        # (points key, read-only X) of the latest solve; the lock lets one
        # sweep thread solve while the others wait for its X
        self._memo, self._lock = None, threading.Lock()

    @property
    def order(self) -> int:
        return self.block_a.shape[0]

    def coefficients(self, mu: float) -> np.ndarray:
        _check_domain(self.domain, mu)
        x = np.log10(mu)
        if self.basis_kind == "lagrange":
            return lagrange_coefficients(self.nodes_log10, x)
        return bspline2_coefficients(self.nodes_log10, x)

    def instantiate(self, mu: float) -> Rom:
        ell = self.coefficients(mu)
        c_mu = np.hstack([li * ci for li, ci in zip(ell, self.c_blocks)])
        d_mu = sum(li * di for li, di in zip(ell, self.d_blocks))
        return _Blend(self, c_mu, d_mu)

    def _solve(self, s):
        key = (s.shape, s.dtype.str, s.tobytes())
        with self._lock:
            if self._memo is None or self._memo[0] != key:
                x = _pencil_solve(self.block_e, self.block_a, self.block_b, s)
                x.flags.writeable = False
                self._memo = key, x
            return self._memo[1]


class _Blend(Rom):
    """:meth:`InterpolatoryRom.instantiate`'s ``Rom``, which takes its
    solves from the interpolant's memo."""

    def __init__(self, source: InterpolatoryRom, c, d):
        super().__init__(e=source.block_e, a=source.block_a,
                         b=source.block_b, c=c, d=d)
        self._source = source

    def _solve(self, s):
        return self._source._solve(s)


def interpolatory_assemble(ts: TrainingSet, basis_kind: str = "lagrange"
                           ) -> InterpolatoryRom:
    """Assemble the transfer-function interpolant from the training set."""
    if basis_kind not in ("lagrange", "bspline2"):
        raise ValueError(f"unknown basis kind {basis_kind!r}")
    nodes = np.log10(ts.samples)
    if np.min(np.diff(nodes)) <= 1e-14 * max(1.0, np.abs(nodes).max()):
        raise ValueError("coincident interpolation nodes")
    if basis_kind == "bspline2" and len(nodes) < 3:
        raise ValueError("order-2 B-spline basis needs at least 3 samples")
    roms = ts.roms
    return InterpolatoryRom(
        nodes_log10=nodes,
        basis_kind=basis_kind,
        domain=ts.psys.domain,
        block_e=la.block_diag(*[rom.e for rom in roms]),
        block_a=la.block_diag(*[rom.a for rom in roms]),
        block_b=np.vstack([rom.b for rom in roms]),
        c_blocks=[rom.c.copy() for rom in roms],
        d_blocks=[rom.d.copy() for rom in roms])
