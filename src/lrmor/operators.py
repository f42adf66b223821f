"""Multiply/solve operations with A, E and A + pE for one system realization.

All solver algorithms in this package touch the system matrices exclusively
through an :class:`OperatorSet`.  The set multiplies without densifying
anything and factorizes lazily: the first solve with A, E or a shifted
A + pE triggers a sparse LU.  The system checks its shapes and values once,
when it is built.

The LUs belong to the (A, E) pencil, not to the set: every
:class:`~lrmor.system.LtiSystem` carries a :class:`LuCache`, which
``with_update`` passes on, so every set over the same sparse ``a``/``e``
shares one factorization per shift.  The cache keeps at most ``MAX_LUS`` LUs
and drops the least recently used one beyond that; the Riccati solver raises
the bound to hold its whole shift pool.

"A" always means the effective coefficient A + U V^T of a system that carries
a low-rank update: every multiply applies the update factored, and every
solve with A or A + pE solves [B, U] in one sweep on the cached LU of the
sparse base matrix and finishes with one Sherman-Morrison-Woodbury step, so
the updated matrix is never formed and never enters an LU.  A set keeps
nothing between calls but its system and the cache reference.

Fill-reducing ordering: the pattern work is done once per pencil, and no
result depends on which shift came first.  The pencil's first request for
an LU of A or A + pE orders it: SuperLU's symmetric mode with a minimum-degree
ordering of A^T + A (``MMD_AT_PLUS_A``) factorizes A + Re(p) E on the same
stored pattern, and its column permutation becomes the pencil's ordering q;
that LU is dropped.  In symmetric mode q depends on the pattern of A^T + A
alone, the same for every shift, so the real LU gives the q a complex LU at
p would give, for less (1.88 against 2.29 ms at n = 1,024); only when
A + Re(p) E is exactly singular is the ordering LU made at p itself.  Every
LU, the first included, factorizes the matrix permuted to ``[q][:, q]`` with
the ``NATURAL`` ordering.  On the structurally symmetric pencils of the FD
and thermal-block models this yields far less fill than the default COLAMD
column ordering.  E's own LU keeps its own MMD ordering.  Each A + pE is
written from the values of A and E aligned on their permuted union pattern
(the identity without E), the pencil's one pattern, stored once, so no
shift pays for a sparse add.  SuperLU keeps its default threshold partial
pivoting (symmetric mode takes the diagonal pivot only when it is as large
as the largest entry of its column), so the ordering is a hint and solves
stay correct on non-symmetric patterns too.  Every LU is column-wise
(``RELAX = PANEL_SIZE = 1``): SuperLU's default supernode relaxation and
panel size are tuned for large 3-D problems, and on these 2-D pencils
column-wise LUs of the same fill took 0.7-0.8x the time (n = 576 to 10^4,
real and complex).

Transpose arguments follow the BLAS convention: ``"N"`` for the matrix
itself, ``"T"`` for its transpose.  A and E always take the same flag: an
LU of A + pE solves (A + pE)^T too, so the pencil has one pattern.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import SingularOperatorError

if TYPE_CHECKING:  # system.py imports this module
    from .system import LtiSystem

_TRANS = ("N", "T")

# LUs one pencil keeps: lr_newton's default pool of 10 heuristic shifts plus
# A and E, so a Riccati iteration cycling that pool never refactorizes (a
# larger pool is held for the iteration by LuCache.holding)
MAX_LUS = 12

# SuperLU supernode relaxation and panel size: column-wise LUs (see the
# module docstring)
RELAX = 1
PANEL_SIZE = 1


def _check_trans(tr):
    if tr not in _TRANS:
        raise ValueError(f"transpose flag must be 'N' or 'T', got {tr!r}")


def _splu(m, permc_spec):
    return splu(m, permc_spec=permc_spec, relax=RELAX, panel_size=PANEL_SIZE,
                options=dict(SymmetricMode=True))


def _shifted(m, p):
    """A + pE from its pattern matrix A + 1j E, every stored entry kept."""
    return sp.csc_matrix((m.data.real + p * m.data.imag, m.indices, m.indptr),
                         shape=m.shape)


class LuCache(OrderedDict):
    """Sparse LUs of one (A, E) pencil, least recently used first, and the
    pencil's ordering and pattern.

    Keys are ``"E"`` and the shift p itself for A + pE: a float when p is
    real, and A is the shift 0.0.  Only a complex shift makes a complex
    LU.  At most ``bound`` LUs are kept (``MAX_LUS`` unless
    :meth:`holding` raises it).  Every LU of A or A + pE is made on the
    pencil's ordering (see the module docstring), so an LU is the same
    factorization whichever LUs came before it, evicted and made again
    too.  A cache's LUs are made, used and dropped on one thread: SuperLU
    frees an LU's memory only on its maker's thread.  Only the symbolic
    data (ordering, pattern) crosses threads, through :meth:`private`.
    """

    def __init__(self, a, e=None):
        super().__init__()
        self.a = a
        self.e = e
        self.bound = MAX_LUS
        # "order": q, set once; "pattern": see _pattern
        self._symbolic = {}

    def private(self) -> "LuCache":
        """An empty cache of the same pencil sharing its symbolic data."""
        out = LuCache(self.a, self.e)
        out._symbolic = self._symbolic
        return out

    @contextmanager
    def holding(self, count):
        """Keep at least ``count`` LUs while the block runs."""
        bound = self.bound
        self.bound = max(bound, count)
        try:
            yield
        finally:
            self.bound = bound
            while len(self) > bound:
                self.popitem(last=False)

    def factor(self, key):
        """``(lu, q)`` for ``key``, the LU made on a miss: the LU of the
        matrix permuted to ``[q][:, q]`` by the pencil's ordering q, or
        ``q = None`` for E's own LU."""
        lu = self.pop(key, None)
        if lu is None:
            try:
                lu = self._factorize(key)
            except RuntimeError as exc:
                raise SingularOperatorError(
                    f"factorization {key} failed: {exc}") from exc
        self[key] = lu
        while len(self) > self.bound:
            self.popitem(last=False)
        return lu, None if key == "E" else self._symbolic["order"]

    def nearest(self, p, rel):
        """The shift q nearest to ``p`` among the cached LUs of A + qE of
        p's kind, real (a float) or complex, if |p - q| <= rel |p|, else
        ``None``; p itself when its own LU is cached.  Makes and reorders no
        LU."""
        near = [q for q in self if q != "E"
                and isinstance(q, complex) == isinstance(p, complex)
                and abs(p - q) <= rel * abs(p)]
        return min(near, key=lambda q: abs(p - q), default=None)

    def _factorize(self, key):
        if key == "E":
            return _splu(self.e.tocsc(), "MMD_AT_PLUS_A")
        m = self._symbolic.get("pattern")
        if m is None:
            m = self._symbolic.setdefault("pattern", self._pattern(key))
        return _splu(_shifted(m, key), "NATURAL")

    def _pattern(self, p):
        # A + 1j E on the union pattern permuted to [q][:, q]: A's and E's
        # values as real and imaginary parts, so no cancellation.  Orders
        # the pencil by an LU at Re(p) if nothing has.
        e = self.e if self.e is not None \
            else sp.identity(self.a.shape[0], format="csr")
        m = (self.a + 1j * e).tocsc()
        m.sort_indices()
        if "order" not in self._symbolic:
            try:  # q depends on the pattern alone: a real LU is cheaper
                lu = _splu(_shifted(m, p.real), "MMD_AT_PLUS_A")
            except RuntimeError:  # A + Re(p) E is singular, A + pE may not be
                lu = _splu(_shifted(m, p), "MMD_AT_PLUS_A")
            self._symbolic.setdefault("order", np.argsort(lu.perm_c))
        q = self._symbolic["order"]
        m = m[q][:, q]
        m.sort_indices()
        return m


class OperatorSet:
    """Bound operation family for one :class:`~lrmor.system.LtiSystem`.

    Every multiply and solve with A acts on A + U V^T when the system has the
    update (``mul_a``, ``mul_ape``, ``sol_a``, ``sol_ape``); only the sparse
    base matrices are factorized, into ``lus`` (the system's shared
    ``lu_cache`` by default).  The set holds nothing else: each solve reads
    the system's U and V as they are at the call.
    """

    def __init__(self, system: LtiSystem, lus: LuCache | None = None):
        self.system = system
        self._cache = system.lu_cache if lus is None else lus

    # -- multiplications -----------------------------------------------------

    def mul_a(self, tr, x):
        """(A + U V^T)^tr @ x without densifying A, the update factored."""
        _check_trans(tr)
        sys_ = self.system
        x = np.asarray(x)
        y = (sys_.a if tr == "N" else sys_.a.T) @ x
        if not sys_.have_uv:
            return y
        if tr == "N":
            return y + sys_.u @ (sys_.v.T @ x)
        return y + sys_.v @ (sys_.u.T @ x)

    def mul_e(self, tr, x):
        """E^tr @ x; identity shortcut when the system has no E."""
        _check_trans(tr)
        x = np.asarray(x)
        if not self.system.have_e:
            return x
        e = self.system.e
        return (e if tr == "N" else e.T) @ x

    def mul_ape(self, tr, p, x):
        """(A + U V^T + pE)^tr @ x; complex ``p`` yields complex output."""
        return self.mul_a(tr, x) + p * self.mul_e(tr, x)

    # -- solves ----------------------------------------------------------------

    def _lu_solve(self, key, tr, b):
        # (lu, q) for ``key`` from the cache: with an order q the LU is of
        # M[q][:, q], so M^tr x = b is solved for x[q] from b[q].  The key
        # says whether the LU is complex: reading lu.U would copy the factor
        lu, q = self._cache.factor(key)
        b = np.asarray(b)
        squeeze = b.ndim == 1
        rhs = b.reshape(-1, 1) if squeeze else b
        if q is not None:
            rhs = rhs[q]
        if np.iscomplexobj(rhs) and not isinstance(key, complex):
            k = rhs.shape[1]
            y = lu.solve(np.hstack([rhs.real, rhs.imag]), trans=tr)
            x = y[:, :k] + 1j * y[:, k:]
        else:
            x = lu.solve(np.ascontiguousarray(rhs), trans=tr)
        if q is not None:
            # scattered into a copy of x's (Fortran) layout, so slices of
            # the result multiply as those of an unpermuted solve do
            x, y = np.empty_like(x), x
            x[q] = y
        return x[:, 0] if squeeze else x

    def _woodbury(self, key, tr, b):
        # (M + u v^T)^{-1} b = y - M^{-1}u (I + v^T M^{-1}u)^{-1} v^T y for M
        # the matrix of LU ``key`` transposed per ``tr``, (u, v) = (U, V) for
        # "N" and (V, U) for "T"; plain M^{-1} b without an update or with
        # k = 0.  [b, u] is solved in one sweep.
        sys_ = self.system
        if not sys_.have_uv or sys_.u.shape[1] == 0:
            return self._lu_solve(key, tr, b)
        u, v = (sys_.u, sys_.v) if tr == "N" else (sys_.v, sys_.u)
        b = np.asarray(b)
        x = self._lu_solve(key, tr, np.column_stack([b, u]))
        k = x.shape[1] - u.shape[1]
        y = x[:, 0] if b.ndim == 1 else x[:, :k]
        mu = x[:, k:]
        if not isinstance(key, complex):
            mu = mu.real  # exact: a complex b only made the stack complex
        try:
            t = np.linalg.solve(np.eye(u.shape[1]) + v.T @ mu,
                                v.T @ (y if y.ndim == 2 else y[:, None]))
        except np.linalg.LinAlgError as exc:
            raise SingularOperatorError("singular capacitance matrix") from exc
        corr = mu @ t
        return y - (corr[:, 0] if y.ndim == 1 else corr)

    def sol_a(self, tr, b):
        """Solve (A + U V^T)^tr X = B via Woodbury on the cached LU of A,
        the LU of the shift 0."""
        _check_trans(tr)
        return self._woodbury(0.0, tr, b)

    def sol_e(self, tr, b):
        """Solve E^tr X = B; identity shortcut without E."""
        _check_trans(tr)
        if not self.system.have_e:
            return np.asarray(b)
        return self._lu_solve("E", tr, b)

    def sol_ape(self, tr_a, p, tr_e, b):
        """Solve (A + U V^T + pE)^tr X = B for ``tr = tr_a = tr_e`` via
        Woodbury on the cached LU of A + pE, one LU per distinct p.

        Unequal flags raise ``ValueError``.  A singular shifted matrix (a
        shift on a generalized eigenvalue of the pencil) or capacitance
        matrix raises :class:`SingularOperatorError`, so the caller can
        replace the shift.
        """
        _check_trans(tr_a)
        if tr_e != tr_a:
            raise ValueError(f"A and E take one transpose flag, got {tr_a!r} "
                             f"and {tr_e!r}")
        p = complex(p)
        return self._woodbury(p.real if p.imag == 0.0 else p, tr_a, b)
