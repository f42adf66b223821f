"""Residual-based low-rank ADI iteration for Lyapunov equations.

The iteration keeps a residual factor W alongside the solution factor Z.
Starting from W_0 = G (the constant-term factor), each step with shift p
solves (A + pE) V = W, updates W and appends a scaled copy of V to Z.  The
residual of the current iterate is exactly W W^T, so the cheap monitor
``||W^T W||_2`` costs O(m^2 n) per step.  Complex shifts always come in
conjugate pairs and are absorbed in a single real double-step, keeping Z
real throughout.

Shifts are self-generated by default: Ritz values of the pencil projected
onto a small orthonormalized basis (the initial residual factor at first,
the most recent solve blocks afterwards).  A new projection shift p is
replaced by the nearest shift q the run has already taken, if q has p's
width (real or conjugate pair) and |p - q| <= 0.2 |p|, so the LU of A + qE
serves again.  Every step stays an exact ADI step with a stable shift; only
the rate of convergence can change.  When no Ritz value is stable, all of
them are reflected across the imaginary axis.  A Ritz-value-based
heuristic set computed once from Arnoldi runs with A and A^{-1} is the
alternative: ``AdiOptions(shifts=heuristic_shifts(OperatorSet(system)))``
cycles it as a fixed pool.

:func:`_drive` steps every run on a :func:`_schedule`: :func:`lr_adi`'s, both
of :func:`_gramian_pair`'s, and :func:`~lrmor.lrnm.lr_newton`'s RADI run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .equations import (LowRankFactor, LyapunovSpec, constant_term_factor,
                        lyap_residual, orthonormal_basis, spectral_norm)
from .errors import SingularOperatorError, SolverError
from .operators import OperatorSet

_REAL_TOL = 1e-13

# relative radius within which a projection shift gives way to an earlier one
_REUSE = 0.2

# projection shifts taken per batch, and solve blocks the next batch projects
# onto
_BATCH = 6


def _width(p) -> int:
    """ADI steps the shift ``p`` takes: 1 for a (numerically) real shift, 2
    for a complex one, which with its conjugate forms one real double
    step."""
    return 1 if abs(p.imag) <= _REAL_TOL * abs(p) else 2


def _check_pairs(vals):
    """Raise unless every value is finite and each complex value precedes
    its conjugate to _REAL_TOL."""
    if not np.isfinite(vals).all():
        raise ValueError("shifts must be finite")
    i = 0
    while i < len(vals):
        if _width(vals[i]) == 2 and (i + 1 >= len(vals) or abs(
                vals[i + 1] - np.conj(vals[i])) > _REAL_TOL * abs(vals[i])):
            raise ValueError("complex shifts must appear as adjacent "
                             "conjugate pairs")
        i += _width(vals[i])


@dataclass
class ShiftSet:
    """Ordered shifts, strictly stable and conjugate-closed with the members
    of each pair adjacent."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.atleast_1d(np.asarray(self.values, dtype=complex))
        if (self.values.real >= 0).any():
            raise ValueError("all shifts must have strictly negative real "
                             "part")
        _check_pairs(self.values)

    def __len__(self):
        return len(self.values)


def _as_pool(shifts) -> ShiftSet | None:
    """``shifts`` as a non-empty :class:`ShiftSet`; ``None`` stays."""
    if shifts is None:
        return None
    if not isinstance(shifts, ShiftSet):
        shifts = ShiftSet(np.asarray(shifts))
    if len(shifts) == 0:
        raise ValueError("the shift pool is empty")
    return shifts


@dataclass
class AdiOptions:
    max_iterations: int = 200
    rel_tolerance: float = 1e-10
    shifts: ShiftSet | None = None  # fixed pool, cycled; else projection

    def __post_init__(self):
        if not self.rel_tolerance > 0:  # NaN too
            raise ValueError("tolerance must be positive")
        self.shifts = _as_pool(self.shifts)


@dataclass
class AdiResult:
    z: LowRankFactor
    residual_history: list
    shifts_used: ShiftSet | None
    converged: bool
    # Z column count after each iteration, aligned with residual_history
    columns_history: list = field(default_factory=list)


def _conjugate_close(values):
    """The real values ascending, then each complex value of positive
    imaginary part, ascending, followed by its exact conjugate.  The values
    come in conjugate pairs (eigenvalues of real matrices), so the members
    of negative imaginary part are not read."""
    values = np.asarray(values, dtype=complex)
    real_mask = np.array([_width(v) == 1 for v in values], dtype=bool)
    out = [complex(v) for v in sorted(values[real_mask].real)]
    for v in sorted(values[~real_mask & (values.imag > 0)],
                    key=lambda v: (v.real, v.imag)):
        out.extend([v, np.conj(v)])
    return np.array(out, dtype=complex)


def projection_shifts(ops: OperatorSet, basis: np.ndarray) -> ShiftSet:
    """Shifts from the Ritz values of (A, E) projected onto ``basis``.

    The basis is orthonormalized first; Ritz values with negative real part
    are returned conjugate-closed.  If none qualify, all Ritz values are
    reflected across the imaginary axis, as :func:`heuristic_shifts` does
    with its candidates.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    if basis.shape[1] == 0:
        raise ValueError("empty projection basis")
    u = orthonormal_basis(basis)
    if u.shape[1] == 0:
        raise ValueError("projection basis has no numerical rank")
    a_small = u.T @ ops.mul_a("N", u)
    e_small = u.T @ ops.mul_e("N", u)
    ritz = la.eigvals(a_small, e_small)
    ritz = ritz[np.isfinite(ritz)]
    stable = ritz[ritz.real < 0]
    if len(stable) == 0:
        reflected = -np.abs(ritz.real) + 1j * ritz.imag
        stable = reflected[reflected.real < 0]
        if len(stable) == 0:
            raise SolverError("no usable shifts from projection basis")
    return ShiftSet(_conjugate_close(stable))


def _arnoldi_ritz(matvec, n, steps):
    v = np.ones(n) / np.sqrt(n)
    basis = [v]
    h = np.zeros((steps + 1, steps))
    m = steps
    for j in range(steps):
        w = np.asarray(matvec(basis[j]), dtype=float)
        for _ in range(2):  # MGS with one re-orthogonalization pass
            for i in range(j + 1):
                c = basis[i] @ w
                h[i, j] += c
                w = w - c * basis[i]
        h[j + 1, j] = np.linalg.norm(w)
        if h[j + 1, j] < 1e-12:
            m = j + 1
            break
        basis.append(w / h[j + 1, j])
    return la.eigvals(h[:m, :m])


def heuristic_shifts(ops: OperatorSet, num: int = 10) -> ShiftSet:
    """Penzl-style suboptimal shift set from Ritz values of the pencil.

    Runs ten Arnoldi steps with E^{-1}A and with A^{-1}E (the reciprocals
    of the latter approximate the small-magnitude end), keeps the stable
    candidates (reflecting unstable ones), and greedily selects ``num``
    shifts minimizing the ADI decay function over the candidates.
    """
    n = ops.system.order
    steps = min(10, n)
    cands = []
    fwd = _arnoldi_ritz(
        lambda x: ops.sol_e("N", ops.mul_a("N", x)), n, steps)
    cands.extend(fwd)
    inv = _arnoldi_ritz(
        lambda x: ops.sol_a("N", ops.mul_e("N", x)), n, steps)
    cands.extend(1.0 / mu for mu in inv if mu != 0)
    cands = np.asarray(cands, dtype=complex)
    cands = cands[np.isfinite(cands)]
    cands = np.where(cands.real > 0, -cands.real + 1j * cands.imag, cands)
    cands = cands[cands.real < 0]
    if len(cands) == 0:
        raise SolverError("heuristic shift generation found no stable Ritz "
                          "values")
    # cluster near-duplicates
    cands = cands[np.argsort(cands.real)]
    uniq = [cands[0]]
    for v in cands[1:]:
        if abs(v - uniq[-1]) > 1e-8 * max(abs(v), 1e-30):
            uniq.append(v)
    cands = np.asarray(uniq)

    def decay(shifts, t):
        r = 1.0
        for p in shifts:
            r *= abs(p - t) / max(abs(np.conj(p) + t), 1e-300)
        return r

    worst = [max(decay([p], t) for t in cands) for p in cands]
    chosen = [cands[int(np.argmin(worst))]]
    if _width(chosen[0]) == 2:
        chosen.append(np.conj(chosen[0]))
    while len(chosen) < num:
        scores = [decay(chosen, t) for t in cands]
        t = cands[int(np.argmax(scores))]
        if any(abs(t - c) <= 1e-12 * abs(t) for c in chosen):
            break
        chosen.append(t)
        if _width(t) == 2:
            chosen.append(np.conj(t))
    return ShiftSet(_conjugate_close(np.asarray(chosen)))


def _reuse(p, taken: list):
    """The shift in ``taken`` nearest to ``p`` of p's width within
    ``_REUSE`` |p|, else ``p``, which then joins ``taken``."""
    near = [q for q in taken if _width(q) == _width(p)
            and abs(p - q) <= _REUSE * abs(p)]
    if near:
        return min(near, key=lambda q: abs(p - q))
    taken.append(p)
    return p


def _schedule(ops: OperatorSet, pool: ShiftSet | None, w):
    """Yields ``(shift, width)`` for each ADI step and takes the step's solve
    block back by ``send``.  A ``pool`` is cycled.  Without one, each batch
    holds the projection shifts of the latest ``_BATCH`` = 6 solve blocks
    (of ``w`` at first), renewed when it runs out or after ``_BATCH``
    iterations, and each batch shift yields to the nearest shift this
    schedule has already yielded, if that shift has the same width and lies
    within ``_REUSE`` = 0.2 times its modulus."""
    if pool is not None:
        i = 0
        while True:
            yield pool.values[i], _width(pool.values[i])
            i = (i + _width(pool.values[i])) % len(pool)
    recent = deque(maxlen=_BATCH)
    taken = []
    basis = w
    while True:
        batch = projection_shifts(ops, basis).values
        i = 0
        while i < min(len(batch), _BATCH):
            p = _reuse(batch[i], taken)
            recent.append((yield p, _width(p)))
            i += _width(batch[i])
        basis = np.hstack(list(recent))


def _also(run, schedule, blocks):
    """``schedule``, with ``run`` taking each shift, while not done, before
    the driven run does; ``run``'s solve blocks go to ``blocks``."""
    shift = next(schedule)
    while True:
        if not run.done:
            blocks.append(run.step(*shift))
        shift = schedule.send((yield shift))


def _drive(run, schedule):
    """Steps ``run`` on ``schedule``, sending each block back, until done."""
    block = None
    while not run.done:
        block = run.step(*schedule.send(block))


class _AdiRun:
    """One ADI-type run on ``side`` of the pencil behind ``ops``: :meth:`step`
    solves with the shift it is given, lets :meth:`_advance` (LR-ADI's update;
    RADI overrides it) update W and Z, and returns the solve block.  The
    monitor ||W||^2 / ||G||^2 ends the run at the tolerance, and raises
    :class:`SolverError` above 1/eps or when not finite."""

    def __init__(self, ops: OperatorSet, side: str, opts: AdiOptions):
        self.ops, self.side, self.opts = ops, side, opts
        self.w = constant_term_factor(ops.system, side)
        self.res0 = spectral_norm(self.w) ** 2
        self.zblocks, self.used, self.history, self.columns = [], [], [], []
        self.it, self.converged = 0, self.res0 == 0.0

    @property
    def done(self) -> bool:
        return self.converged or self.it >= self.opts.max_iterations

    def step(self, p, width) -> np.ndarray:
        p = complex(p)
        try:
            v = self.ops.sol_ape(self.side, p.real if width == 1 else p,
                                 self.side, self.w)
        except SingularOperatorError as exc:
            raise SingularOperatorError(
                f"shift {p} coincides with a generalized eigenvalue") from exc
        block = self._advance(p, width, v)
        pair = [p, np.conj(p)] if p.imag > 0 else [np.conj(p), p]
        self.used.extend([complex(p.real, 0.0)] if width == 1 else pair)
        self.it += width
        try:  # an overflowed W has a NaN norm, or its SVD fails
            rel = spectral_norm(self.w) ** 2 / self.res0
        except (OverflowError, np.linalg.LinAlgError):
            rel = np.inf
        if not rel <= 1.0 / np.finfo(float).eps:
            raise SolverError(
                f"ADI diverged: the residual monitor exceeds 1/eps or is not "
                f"finite after {self.it} iterations (is the pencil unstable?)")
        self.history.extend([rel] * width)
        self.columns.extend([self.w.shape[1] * self.it] * width)
        self.converged = rel <= self.opts.rel_tolerance
        return block

    def _advance(self, p, width, v) -> np.ndarray:
        """Updates W and Z from the solve ``v`` with p; returns the block."""
        ops, side, w = self.ops, self.side, self.w
        if width == 1:
            block = np.real(v)
            self.w = w - 2.0 * p.real * ops.mul_e(side, block)
            self.zblocks.append(np.sqrt(-2.0 * p.real) * block)
            return block
        delta = p.real / p.imag
        gamma = 2.0 * np.sqrt(-p.real)
        vr = v.real + delta * v.imag
        self.w = w + gamma ** 2 * ops.mul_e(side, vr)
        self.zblocks.append(gamma * vr)
        self.zblocks.append(gamma * np.sqrt(delta ** 2 + 1.0) * v.imag)
        return np.hstack([vr, v.imag])

    def result(self) -> AdiResult:
        z = LowRankFactor(np.hstack(self.zblocks) if self.zblocks
                          else np.zeros((self.ops.system.order, 0)))
        shifts = ShiftSet(np.asarray(self.used)) if self.res0 else None
        return AdiResult(z, self.history, shifts, self.converged, self.columns)


def lr_adi(spec: LyapunovSpec, opts: AdiOptions | None = None) -> AdiResult:
    """Low-rank ADI for one of the dual Lyapunov equations.

    Side "N" solves A P E^T + E P A^T + B B^T = 0, side "T" the dual
    observability equation; systems with a low-rank update solve with the
    effective coefficient A + U V^T via Woodbury.  Returns the factor Z with
    P ~ Z Z^T, the relative residual history (one entry per shift consumed;
    a conjugate double-step records its final residual twice) and the shifts
    actually used.  Running out of iterations is not an error: the partial
    factor comes back with ``converged=False``.  Once the monitor meets the
    tolerance, ``converged`` says whether :func:`lyap_residual` of the
    returned factor does too: near roundoff the monitor can read lower.  A
    residual monitor that exceeds 1/eps or is not finite raises
    :class:`SolverError`: the iteration diverged.
    """
    run = _AdiRun(OperatorSet(spec.system), spec.side, opts or AdiOptions())
    _drive(run, _schedule(run.ops, run.opts.shifts, run.w))
    result = run.result()
    if result.converged:
        result.converged = (lyap_residual(spec, result.z).relative
                            <= run.opts.rel_tolerance)
    return result


def _gramian_pair(system, opts: AdiOptions) -> tuple[AdiResult, AdiResult]:
    """LR-ADI runs for the Gramians P (side "N") and Q (side "T") of
    ``system`` on one operator set: P's run is :func:`lr_adi`'s, and Q takes
    each of P's shifts, reused ones too, just before P, on the same LU.
    Once P has converged, Q goes on alone on a schedule of its own latest
    blocks, which reuses only the shifts it has yielded itself."""
    ops = OperatorSet(system)
    p, q = _AdiRun(ops, "N", opts), _AdiRun(ops, "T", opts)
    blocks = []
    _drive(p, _also(q, _schedule(ops, opts.shifts, p.w), blocks))
    if p.converged:
        basis = np.hstack(blocks[-_BATCH:] or [q.w])
        _drive(q, _schedule(ops, opts.shifts, basis))
    return p.result(), q.result()
