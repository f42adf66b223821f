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

from .errors import SingularOperatorError
from .operators import LuCache, OperatorSet

# terms of the moment expansion around s = 0 a point may take before it
# goes to its own LU (see LtiSystem.transfer)
MOMENT_TERMS = 40
# the expansion's largest accepted residual ||(B - (sE - A) x) e_i|| /
# ||B e_i||, for each input i
MOMENT_TOL = 1e-15


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
        for a 1-D array of k points.

        One point takes one sparse LU of sE - A, private to the call and
        gone when it returns; the pencil's ordering and pattern are shared,
        so a sweep orders the pencil once.

        An array first tries every point with the moment expansion around
        s = 0: with v_0 = A^{-1} B and v_k = A^{-1} E v_{k-1}, all from one
        real LU of A (Woodbury applies U V^T),

            H(s) ~ D - C sum_{k<K} s^k v_k,

        whose residual is exactly B - (sE - A) x_K = s^K E v_{K-1}.  A point
        is served when |s|^K ||E v_{K-1} e_i|| <= ``MOMENT_TOL`` ||B e_i|| for
        every input i.  It leaves the expansion unserved when, at the ratio
        of the last two ||E v_k e_i||, some input would not be served within
        ``MOMENT_TERMS`` terms.
        Every unserved point takes its own LU as above, after A's LU is
        gone, so the call holds one LU at a time; a singular A sends every
        point there.  A point's value and path depend on the system and
        that point alone."""
        if not np.ndim(s):
            ops = OperatorSet(self, self.lu_cache.private())
            x = ops.sol_ape("N", -s, "N", self.b)
            return -(self.c @ x) + self.d
        points = np.asarray(s)
        h = np.empty((len(points),) + self.d.shape, complex)
        served = np.zeros(len(points), bool)
        if len(points):
            try:
                served = self._moments(points, h)
            except SingularOperatorError:
                pass
        for j in np.flatnonzero(~served):
            h[j] = self.transfer(points[j])
        return h

    def _moments(self, points, h):
        """Writes into ``h`` the points the moment expansion serves (see
        :meth:`transfer`) and returns their mask.  A point's arithmetic is
        real and elementwise, or on scalars, so its bits do not depend on
        the other points: numpy's vector loops may fuse a complex product's
        multiply and add where its scalar loop does not."""
        ops = OperatorSet(self, self.lu_cache.private())
        served = np.zeros(len(points), bool)
        left = np.arange(len(points))  # the points still in the expansion
        s_re, s_im = points.real.astype(float), points.imag.astype(float)
        mag = np.array([abs(complex(p)) for p in points])
        pow_re, pow_im = np.ones(len(points)), np.zeros(len(points))  # s^k
        scale = np.ones(len(points))  # |s|^K after K terms
        y_re = np.zeros((len(points),) + self.d.shape)  # sum of s^k C v_k
        y_im = np.zeros_like(y_re)
        tol = MOMENT_TOL * np.linalg.norm(self.b, axis=0)  # per input
        v, last = ops.sol_a("N", self.b), None
        # a point whose terms overflow is left unserved
        with np.errstate(over="ignore", invalid="ignore"):
            for terms in range(1, MOMENT_TERMS + 1):
                cv = self.c @ v
                y_re += pow_re[:, None, None] * cv
                y_im += pow_im[:, None, None] * cv
                ev = ops.mul_e("N", v)
                r = np.linalg.norm(ev, axis=0)
                scale *= mag
                # |s|^K ||E v_{K-1} e_i|| for every input i, K = terms
                done = (scale[:, None] * r <= tol).all(axis=1)
                out = left[done]
                h.real[out] = self.d - y_re[done]
                h.imag[out] = -y_im[done]
                served[out] = True
                stay = ~done
                if terms == MOMENT_TERMS:
                    break
                if last is not None:  # the certificates at the cap, at r/last
                    rest = MOMENT_TERMS - terms
                    ratio = np.divide(r, last, out=np.zeros_like(r),
                                      where=last > 0)
                    at_cap = [[c * f ** rest for c, f in zip(*row)] for row in
                              zip(scale[:, None] * r, mag[:, None] * ratio)]
                    stay &= (np.array(at_cap) <= tol).all(axis=1)
                if not stay.any():
                    break
                left, s_re, s_im, mag, scale, y_re, y_im = (
                    x[stay]
                    for x in (left, s_re, s_im, mag, scale, y_re, y_im))
                pow_re, pow_im = (pow_re[stay] * s_re - pow_im[stay] * s_im,
                                  pow_re[stay] * s_im + pow_im[stay] * s_re)
                v, last = ops.sol_a("N", ev), r
        return served

    def with_update(self, u, v) -> "LtiSystem":
        """Copy of the system carrying the low-rank update ``u v^T``; it
        shares this system's LU cache."""
        return LtiSystem(a=self.a, b=self.b, c=self.c, e=self.e, d=self.d,
                         u=u, v=v, lu_cache=self.lu_cache)

    def dense_e(self) -> np.ndarray:
        return self.e.toarray() if self.have_e else np.eye(self.order)
