"""Projection-based model order reduction.

Square-root balanced truncation with the classic error bound, tangential
IRKA, transfer function evaluation, and the Riccati reformulations backing
the positive-real / bounded-real / LQG balancing variants.

IRKA is the one solver here that does not solve every shift on its own LU:
once its shifts settle, a shift within a relative 1e-2 of one whose LU the
pencil has cached is solved by iterative refinement on that LU to a
residual of 1e-12 ||b||.  Every other solver of the package, balanced
truncation's ADI runs included, solves exactly, as its residual monitor
assumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .equations import LowRankFactor, orthonormal_basis
from .errors import SingularOperatorError, SolverError
from .lradi import AdiOptions, _check_pairs, _gramian_pair, _width
from .operators import OperatorSet
from .system import LtiSystem


@dataclass
class Rom:
    """Dense reduced-order realization plus the projection bases used
    (``None`` for the interpolatory blend, which is not a projection).
    Non-parametric: ``transfer(s)``, as on ``LtiSystem``."""

    e: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    v: np.ndarray | None = None
    w: np.ndarray | None = None

    @property
    def order(self) -> int:
        return self.a.shape[0]

    def transfer(self, s) -> np.ndarray:
        """Hhat(s) = Chat (s Ehat - Ahat)^{-1} Bhat + D: (p, m) for one point
        ``s``, (k, p, m) for a 1-D array of k points, whose pencils form one
        stack; each point's values equal its own scalar call."""
        s = np.asarray(s)
        if self.order == 0:
            return np.broadcast_to(self.d, s.shape + self.d.shape) \
                .astype(complex)
        return self.c @ self._solve(s) + self.d

    def _solve(self, s):
        return _pencil_solve(self.e, self.a, self.b, s)


def _pencil_solve(e, a, b, s):
    """(s E - A)^{-1} B for each point of the array ``s``: (s.shape, n, m)."""
    pencils = np.multiply.outer(s, e)
    pencils -= a  # in place: a second stack costs more than the sum
    if not (np.isfinite(pencils).all() and np.isfinite(b).all()):
        raise ValueError("non-finite entry in the pencil or in B")
    # the LU solve of scipy.linalg.solve without its condition estimate,
    # which doubled the cost; numpy's own LAPACK rounds differently
    getrf, getrs = la.get_lapack_funcs(("getrf", "getrs"), (pencils, b))
    x = np.empty(s.shape + b.shape, getrf.dtype)
    for i in np.ndindex(s.shape):
        lu, piv, info = getrf(pencils[i])
        if info > 0:
            raise np.linalg.LinAlgError(f"singular pencil at s = {s[i]}")
        x[i] = getrs(lu, piv, b)[0]
    return x


@dataclass
class HsvReport:
    """Hankel singular values and the truncation's a-priori H-infinity
    error bound.  The bound is only as tight as the Gramians it comes from:
    at balanced truncation's 1e-10 residuals it can fall short of the true
    error by about 1e-8 sigma_1 when ``tol`` is 1e-4 sigma_1 or below."""

    singular_values: np.ndarray  # descending
    error_bound: float  # 2 * sum of truncated values
    rank_limited: bool = False


def project(system: LtiSystem, v: np.ndarray, w: np.ndarray) -> Rom:
    """Petrov-Galerkin compression of ``system`` onto the bases (V, W)."""
    ops = OperatorSet(system)
    v = np.atleast_2d(v)
    w = np.atleast_2d(w)
    return Rom(e=w.T @ ops.mul_e("N", v),
               a=w.T @ ops.mul_a("N", v),
               b=w.T @ system.b,
               c=system.c @ v,
               d=system.d.copy(),
               v=v, w=w)


def transfer_eval(system: LtiSystem, s) -> np.ndarray:
    """H(s) = C (sE - A)^{-1} B + D; function form of LtiSystem.transfer
    (an array of points takes its moment expansion)."""
    return system.transfer(s)


def square_root_method(zp: LowRankFactor, zq: LowRankFactor,
                       system: LtiSystem, order: int | None = None,
                       tol: float | None = None) -> tuple[Rom, HsvReport]:
    """Balancing projection from Gramian factors (square root method).

    The SVD of Zq^T E Zp yields the Hankel singular values.  In tolerance
    mode the order is the smallest r with 2 * sum(sigma_{k>r}) <= tol; in
    fixed mode the requested order is capped at the numerical rank (flagged
    in the report).  The balanced bases satisfy W^T E V = I_r.
    """
    if (order is None) == (tol is None):
        raise ValueError("give exactly one of order= or tol=")
    if zp.columns == 0 or zq.columns == 0:
        raise ValueError("empty Gramian factor")
    ops = OperatorSet(system)
    u, s, xt = la.svd(zq.z.T @ ops.mul_e("N", zp.z), full_matrices=False)
    # guard Sigma^{-1/2}: drop values at roundoff relative to sigma_1
    rank = int(np.sum(s > len(s) * np.finfo(float).eps * (s[0] if len(s)
                                                          else 0.0)))
    tails = 2.0 * (np.cumsum(s[::-1])[::-1])  # tails[r] = 2*sum_{k>=r} s_k
    rank_limited = False
    if order is not None:
        r = min(order, rank)
        rank_limited = r < order
    else:
        r = rank
        for cand in range(rank + 1):
            tail = tails[cand] if cand < len(s) else 0.0
            if tail <= tol:
                r = cand
                break
    bound = float(tails[r]) if r < len(s) else 0.0
    scale = 1.0 / np.sqrt(s[:r])
    v = zp.z @ (xt[:r].T * scale)
    w = zq.z @ (u[:, :r] * scale)
    rom = project(system, v, w)
    report = HsvReport(singular_values=s.copy(), error_bound=bound,
                       rank_limited=rank_limited)
    return rom, report


def balanced_truncation(system: LtiSystem, order: int | None = None,
                        tol: float | None = None) -> tuple[Rom, HsvReport]:
    """Classic Lyapunov balanced truncation for a stable system.

    Both Gramians are solved by LR-ADI at a fixed relative tolerance of
    1e-10: the equation accuracy is decoupled from the truncation tolerance.
    The two runs go in lock-step on P's shifts, so each sparse LU serves
    both; Q then finishes on a schedule of its own (see
    :func:`~lrmor.lradi._gramian_pair`).  D is copied unchanged.
    """
    res_p, res_q = _gramian_pair(system, AdiOptions(rel_tolerance=1e-10))
    if not res_p.converged:
        raise SolverError("controllability Gramian ADI did not converge")
    if not res_q.converged:
        raise SolverError("observability Gramian ADI did not converge")
    return square_root_method(res_p.z, res_q.z, system, order=order, tol=tol)


# -- tangential IRKA ----------------------------------------------------------

@dataclass
class IrkaOptions:
    max_iter: int = 100
    shift_change_tol: float = 1e-6
    initial_shifts: np.ndarray | None = None  # conjugate pairs adjacent
    initial_b: np.ndarray | None = None  # (r, m) tangential input directions
    initial_c: np.ndarray | None = None  # (r, p) tangential output directions

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.shift_change_tol > 0:
            raise ValueError("shift_change_tol must be positive")


@dataclass
class IrkaResult:
    rom: Rom
    shifts: np.ndarray  # interpolation points the final ROM was built from
    b_dirs: np.ndarray
    c_dirs: np.ndarray
    converged: bool
    n_iter: int


def _default_irka_data(system: LtiSystem, r: int):
    sigma = np.logspace(-1.0, 1.0, r).astype(complex)
    _, _, vt = la.svd(system.b, full_matrices=False)
    b0 = np.tile(vt[0], (r, 1)).astype(complex)
    _, _, vt = la.svd(system.c.T, full_matrices=False)
    c0 = np.tile(vt[0], (r, 1)).astype(complex)
    return sigma, b0, c0


def _pair_order(values):
    """Indices sorting ``values`` by real part, each conjugate pair adjacent
    with its negative-imaginary member first.  Both members sort on the
    upper one's real part: their own real parts differ in the last bits,
    and sorting on them could swap a pair between equivalent runs."""
    key = values.real.copy()
    for i in np.flatnonzero(values.imag > 0):
        key[np.nanargmin(np.abs(values - np.conj(values[i])))] = key[i]
    return np.lexsort((values.imag, key))


# IRKA solves a shift within relative distance _NEAR_SHIFT of a cached LU
# by iterative refinement on that LU (Beattie, Gugercin and Wyatt, "Inexact
# solves in interpolatory model reduction", 2012) to a residual of
# _REFINE_TOL ||b||, and makes the shift's own LU after _MAX_CORRECTIONS
# corrections or once the residual stops falling
_NEAR_SHIFT = 1e-2
_REFINE_TOL = 1e-12
_MAX_CORRECTIONS = 8


def _shifted_solve(ops, tr, shift, b):
    """Solve (A - shift E)^tr x = b: refined on the LU of the nearest cached
    shift when there is one and it converges, else on the shift's own LU.
    Every solve, reference or correction, is a ``sol_ape``."""
    p = complex(-shift)
    p = p.real if p.imag == 0.0 else p  # the shift as the cache holds it
    ref = ops.system.lu_cache.nearest(p, _NEAR_SHIFT)
    if ref is not None and ref != p:
        x, last = ops.sol_ape(tr, ref, tr, b), np.inf
        for k in range(_MAX_CORRECTIONS + 1):
            r = b - ops.mul_ape(tr, p, x)
            norm = np.linalg.norm(r)
            if norm <= _REFINE_TOL * np.linalg.norm(b):
                return x
            if k == _MAX_CORRECTIONS or not norm < last:  # NaN: not <
                break
            x, last = x + ops.sol_ape(tr, ref, tr, r), norm
    return ops.sol_ape(tr, p, tr, b)


def _rational_basis(ops, system, sigma, b_dirs, c_dirs):
    vcols, wcols = [], []
    i = 0
    r = len(sigma)
    while i < r:
        s = sigma[i]
        rhs_v = system.b @ b_dirs[i]
        rhs_w = system.c.T @ c_dirs[i]
        real = _width(s) == 1
        if real:  # only the real part of x is kept
            rhs_v, rhs_w = rhs_v.real, rhs_w.real
        shift = s
        for attempt in range(4):
            try:
                x = _shifted_solve(ops, "N", shift, rhs_v)
                y = _shifted_solve(ops, "T", shift, rhs_w)
                break
            except SingularOperatorError:
                if attempt == 3:
                    raise
                shift = shift * (1.0 + 1e-6)  # nudge off the pole
        if real:
            vcols.append(np.real(x))
            wcols.append(np.real(y))
            i += 1
        else:
            vcols.extend([np.real(x), np.imag(x)])
            wcols.extend([np.real(y), np.imag(y)])
            i += 2  # conjugate partner spans the same two real columns
    return np.column_stack(vcols), np.column_stack(wcols)


def _orth_pad(m, r):
    """Orthonormal n x r basis containing the column span of m.

    Rank-deficient rational bases (near-parallel Krylov directions) are
    padded with deterministic pseudo-random complements so the reduced
    order stays fixed across IRKA iterations.
    """
    u = orthonormal_basis(m)
    rng = np.random.default_rng(0x1234)
    guard = 0
    while u.shape[1] < r and guard < 8:
        cand = rng.standard_normal((m.shape[0], r - u.shape[1]))
        cand = cand - u @ (u.T @ cand)
        u = np.hstack([u, orthonormal_basis(cand)])
        guard += 1
    if u.shape[1] != r:
        raise SolverError("could not complete a rank-deficient IRKA basis")
    return u


def irka(system: LtiSystem, r: int, opts: IrkaOptions | None = None
         ) -> IrkaResult:
    """Tangential IRKA: iterate rational Krylov bases until the shifts match
    the mirrored ROM poles.

    At every iterate the current ROM tangentially Hermite-interpolates the
    full transfer function at the shifts it was built from; at the fixed
    point those shifts equal the mirrored poles of the ROM itself.  Complex
    shifts stay conjugate-closed and the bases are assembled real.

    A shift within a relative 1e-2 of a shift whose LU the pencil has
    cached, of the same kind (real or complex), is solved by iterative
    refinement on that LU until the residual is at most 1e-12 ||b||; after
    8 corrections, or once the residual stops falling, the shift gets its
    own LU.  So the interpolation holds to that residual, and the settled
    iterations make few LUs.  A real shift solves real right-hand sides.
    """
    if r < 1:
        raise ValueError("reduced order must be >= 1")
    if r > system.order:
        raise ValueError("reduced order exceeds the system order")
    if opts is None:
        opts = IrkaOptions()
    sigma, b_dirs, c_dirs = _default_irka_data(system, r)
    if opts.initial_shifts is not None:
        sigma = np.asarray(opts.initial_shifts, dtype=complex)
    if opts.initial_b is not None:
        b_dirs = np.asarray(opts.initial_b, dtype=complex)
    if opts.initial_c is not None:
        c_dirs = np.asarray(opts.initial_c, dtype=complex)
    if not len(sigma) == len(b_dirs) == len(c_dirs) == r:
        raise ValueError("initial_shifts, initial_b and initial_c must have "
                         "r rows")
    _check_pairs(sigma)  # la.eig's pairs may differ in their last bits

    converged = False
    next_data = (sigma, b_dirs, c_dirs)
    ops = OperatorSet(system)
    for n_iter in range(1, opts.max_iter + 1):
        sigma, b_dirs, c_dirs = next_data
        v, w = _rational_basis(ops, system, sigma, b_dirs, c_dirs)
        rom = project(system, _orth_pad(v, r), _orth_pad(w, r))
        lam, vl, vr = la.eig(rom.a, rom.e, left=True, right=True)
        # the shifts -lam then list each pair positive-imaginary first
        order = _pair_order(lam)
        lam, vl, vr = lam[order], vl[:, order], vr[:, order]
        new_sigma = -lam
        # keep interpolation points in the right half-plane
        new_sigma = np.where(new_sigma.real < 0,
                             -new_sigma.real + 1j * new_sigma.imag, new_sigma)
        new_b = (rom.b.T @ np.conj(vl)).T
        new_c = (rom.c @ vr).T
        norms_b = np.linalg.norm(new_b, axis=1)
        norms_c = np.linalg.norm(new_c, axis=1)
        new_b[norms_b > 0] /= norms_b[norms_b > 0, None]
        new_c[norms_c > 0] /= norms_c[norms_c > 0, None]
        # pair-aware order: a pair never meets its own conjugate
        old_sorted = sigma[_pair_order(sigma)]
        new_sorted = new_sigma[_pair_order(new_sigma)]
        change = float(np.max(np.abs(new_sorted - old_sorted)
                              / np.maximum(np.abs(old_sorted), 1e-300)))
        if change <= opts.shift_change_tol:
            converged = True
            break
        next_data = (new_sigma, new_b, new_c)
    # sigma/b_dirs/c_dirs are the data the final bases were built from, so
    # the returned ROM tangentially interpolates at exactly these points
    return IrkaResult(rom=rom, shifts=sigma, b_dirs=b_dirs, c_dirs=c_dirs,
                      converged=converged, n_iter=n_iter)


# -- balancing-variant Riccati reformulations ---------------------------------

@dataclass
class BalancingTransform:
    """Tilde realization for one balancing variant.

    The transformed coefficient Atilde = A + U V^T is carried by the
    low-rank update of ``system`` (never densified).  ``quad_sign`` is the
    sign of the quadratic term of the rewritten Riccati equation: +1 for the
    positive-real and bounded-real variants, -1 for LQG (a standard Riccati
    equation).
    """

    system: LtiSystem
    quad_sign: int
    r_factor: np.ndarray
    l_factor: np.ndarray


def _chol_spd(m, what):
    try:
        return la.cholesky(m, lower=False)  # upper R with R^T R = m
    except la.LinAlgError as exc:
        raise ValueError(f"{what} must be symmetric positive definite") from exc


def pr_transform(system: LtiSystem) -> BalancingTransform:
    """Positive-real balancing rewrite.

    With R^T R = D + D^T: Btilde = B R^{-1}, Ctilde = R^{-T} C and the
    low-rank update U = -Btilde, V^T = Ctilde turn the positive-real Riccati
    pair into the sparse-plus-low-rank form with positive quadratic term.
    Requires square D with SPD symmetric part.
    """
    d = system.d
    if d.shape[0] != d.shape[1]:
        raise ValueError("positive-real balancing needs a square D")
    r = _chol_spd(d + d.T, "D + D^T")
    bt = la.solve_triangular(r, system.b.T, trans="T", lower=False).T
    ct = la.solve_triangular(r, system.c, trans="T", lower=False)
    tilde = LtiSystem(a=system.a, b=bt, c=ct, e=system.e, d=d.copy(),
                      u=-bt, v=ct.T, lu_cache=system.lu_cache)
    return BalancingTransform(tilde, +1, r, r)


def _dd_transform(system: LtiSystem, sign: int) -> BalancingTransform:
    """Shared body of ``br_transform`` (sign -1) and ``lqg_transform``
    (sign +1): I + sign D D^T stands for their I -/+ D D^T."""
    d = system.d
    p, m = d.shape
    big = d @ d.T
    op = "+" if sign > 0 else "-"
    r = _chol_spd(np.eye(p) + sign * big, f"I {op} D D^T")
    lf = _chol_spd(np.eye(m) + sign * (d.T @ d), f"I {op} D^T D")
    bt = la.solve_triangular(lf, system.b.T, trans="T", lower=False).T
    ct = la.solve_triangular(r, system.c, trans="T", lower=False)
    v = la.solve(np.eye(p) + sign * big, system.c, assume_a="pos").T
    tilde = LtiSystem(a=system.a, b=bt, c=ct, e=system.e, d=d.copy(),
                      u=-sign * (system.b @ d.T), v=v,
                      lu_cache=system.lu_cache)
    return BalancingTransform(tilde, -sign, r, lf)


def br_transform(system: LtiSystem) -> BalancingTransform:
    """Bounded-real balancing rewrite (needs ||D||_2 < 1).

    R^T R = I - D D^T, L^T L = I - D^T D; Btilde = B L^{-1},
    Ctilde = R^{-T} C, U = B D^T, V^T = (I - D D^T)^{-1} C.
    """
    return _dd_transform(system, -1)


def lqg_transform(system: LtiSystem) -> BalancingTransform:
    """LQG balancing rewrite; always feasible for real D.

    R^T R = I + D D^T, L^T L = I + D^T D; Btilde = B L^{-1},
    Ctilde = R^{-T} C, U = -B D^T, V^T = (I + D D^T)^{-1} C.  The rewritten
    equation is a standard Riccati equation solvable by the low-rank RADI
    iteration with Woodbury-routed solves.
    """
    return _dd_transform(system, +1)

