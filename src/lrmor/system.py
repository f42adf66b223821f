"""State-space system container for sparse generalized LTI systems.

The system is

    E x'(t) = A x(t) + B u(t),
    y(t)    = C x(t) + D u(t),

with sparse square ``E`` and ``A`` of order ``n``, thin dense ``B`` (n x m),
``C`` (p x n) and small ``D`` (p x m).  ``E = None`` means the identity; it is
then never materialized.  An optional low-rank update ``U V^T`` describes the
effective coefficient ``A + U V^T`` without ever forming it densely.
Every system carries the LU cache of its (A, E) pencil; systems built from
it on the same ``a`` and ``e`` share that cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .operators import LuCache, OperatorSet


def as_sparse(m):
    """Coerce a matrix to CSR, accepting dense arrays and any sparse format."""
    if sp.issparse(m):
        out = m.tocsr()
    else:
        out = sp.csr_matrix(np.atleast_2d(np.asarray(m, dtype=float)))
    out.sum_duplicates()
    return out


def _as_dense(m):
    return np.atleast_2d(np.asarray(m, dtype=float))


@dataclass
class LtiSystem:
    """Holds one realization (E, A, B, C, D) plus an optional U V^T update.

    Construction checks the shapes and that every entry is finite, and
    raises ``ValueError`` otherwise.

    Parameters
    ----------
    a : sparse or dense matrix, n x n
    b : array, n x m
    c : array, p x n
    e : sparse or dense matrix or None
        ``None`` encodes the identity (``have_e`` is False).
    d : array, p x m, optional
        Defaults to zeros.
    u, v : arrays, n x k, optional
        Low-rank update factors; both or neither must be given.
    lu_cache : LuCache, optional
        The sparse LUs of the pencil (A, E).  A cache made for other matrix
        objects than ``a`` and ``e`` is replaced by an empty one.
    """

    a: sp.spmatrix
    b: np.ndarray
    c: np.ndarray
    e: sp.spmatrix | None = None
    d: np.ndarray | None = None
    u: np.ndarray | None = None
    v: np.ndarray | None = None
    lu_cache: LuCache | None = field(default=None, repr=False, compare=False)
    have_e: bool = field(init=False)
    have_uv: bool = field(init=False)

    def __post_init__(self):
        self.a = as_sparse(self.a)
        if self.e is not None:
            self.e = as_sparse(self.e)
        self.have_e = self.e is not None
        self.b = _as_dense(self.b)
        self.c = _as_dense(self.c)
        if self.d is None:
            self.d = np.zeros((self.c.shape[0], self.b.shape[1]))
        else:
            self.d = _as_dense(self.d)
        if (self.u is None) != (self.v is None):
            raise ValueError("low-rank update requires both U and V")
        if self.u is not None:
            self.u = _as_dense(self.u)
            self.v = _as_dense(self.v)
        self.have_uv = self.u is not None
        self._check()
        if self.lu_cache is None or self.lu_cache.a is not self.a \
                or self.lu_cache.e is not self.e:
            self.lu_cache = LuCache(self.a, self.e)

    def _check(self):
        a, e = self.a, self.e
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got {a.shape}")
        n = a.shape[0]
        if self.have_e and e.shape != (n, n):
            raise ValueError(f"E must match A: {e.shape} vs {a.shape}")
        if self.b.shape[0] != n:
            raise ValueError(f"B has {self.b.shape[0]} rows, expected {n}")
        if self.c.shape[1] != n:
            raise ValueError(f"C has {self.c.shape[1]} columns, expected {n}")
        if self.d.shape != (self.c.shape[0], self.b.shape[1]):
            raise ValueError("D must be (outputs x inputs)")
        if self.have_uv:
            if self.u.shape[0] != n or self.v.shape[0] != n:
                raise ValueError("U, V must have n rows")
            if self.u.shape[1] != self.v.shape[1]:
                raise ValueError("U, V must have equal column counts")
        for name, mat in (("A", a.data), ("B", self.b), ("C", self.c),
                          ("D", self.d), ("E", e.data if self.have_e else 0),
                          ("U or V", (self.u, self.v) if self.have_uv else 0)):
            if not np.isfinite(mat).all():
                raise ValueError(f"non-finite entry in {name}")

    @property
    def order(self) -> int:
        return self.a.shape[0]

    def transfer(self, s) -> np.ndarray:
        """H(s) = C (sE - A)^{-1} B + D: (p, m) for one point ``s``, (k, p, m)
        for a 1-D array of k points, with one sparse LU per point.

        Each LU is private to its point and gone before the next is made:
        sweeps never repeat a point, and holding their LUs would only raise
        memory.  The pencil's ordering and pattern are shared, so a sweep
        orders the pencil once."""
        if np.ndim(s):
            h = [self.transfer(p) for p in s]
            return np.stack(h) if h else np.empty((0,) + self.d.shape, complex)
        ops = OperatorSet(self, self.lu_cache.private())
        x = ops.sol_ape("N", -s, "N", self.b)
        return -(self.c @ x) + self.d

    def with_update(self, u, v) -> "LtiSystem":
        """Copy of the system carrying the low-rank update ``u v^T``; it
        shares this system's LU cache."""
        return LtiSystem(a=self.a, b=self.b, c=self.c, e=self.e, d=self.d,
                         u=u, v=v, lu_cache=self.lu_cache)

    def transposed(self) -> "LtiSystem":
        """The dual realization (E^T, A^T, C^T, B^T, D^T); U, V swap roles."""
        u = v = None
        if self.have_uv:
            u, v = self.v, self.u
        return LtiSystem(a=self.a.T, b=self.c.T, c=self.b.T,
                         e=self.e.T if self.have_e else None,
                         d=self.d.T, u=u, v=v)

    def dense_e(self) -> np.ndarray:
        return self.e.toarray() if self.have_e else np.eye(self.order)
