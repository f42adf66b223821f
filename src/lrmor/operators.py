"""Multiply/solve operations with A, E and A + pE for one system realization.

All solver algorithms in this package touch the system matrices exclusively
through an :class:`OperatorSet`.  The set performs structural sanity checks on
construction, multiplies without densifying anything, and factorizes lazily:
the first solve with A, E or a shifted A + pE triggers a sparse LU whose
result is cached on the operator set (one factorization per distinct shift).

"A" always means the effective coefficient A + U V^T of a system that carries
a low-rank update: every multiply applies the update factored, and every
solve with A or A + pE runs one Sherman-Morrison-Woodbury step on top of the
cached LU of the sparse base matrix, so the updated matrix is never formed.

Fill-reducing ordering: every factorization uses SuperLU's symmetric mode
with a minimum-degree ordering of A^T + A (``MMD_AT_PLUS_A``).  On the
structurally symmetric pencils of the FD and thermal-block models this yields
far less fill than the default COLAMD column ordering.  SuperLU keeps its
default threshold partial pivoting (symmetric mode takes the diagonal pivot
only when it is as large as the largest entry of its column), so the ordering
is a hint and solves stay correct on non-symmetric patterns too.

Transpose arguments follow the BLAS convention: ``"N"`` for the matrix
itself, ``"T"`` for its transpose.
"""

from __future__ import annotations

import threading
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import SingularOperatorError

if TYPE_CHECKING:  # system.py imports this module
    from .system import LtiSystem

_TRANS = ("N", "T")


def _check_trans(tr):
    if tr not in _TRANS:
        raise ValueError(f"transpose flag must be 'N' or 'T', got {tr!r}")


def _finite(arr) -> bool:
    return bool(np.isfinite(arr).all())


class OperatorSet:
    """Bound operation family for one :class:`~lrmor.system.LtiSystem`.

    Every multiply and solve with A acts on A + U V^T when the system has the
    update (``mul_a``, ``mul_ape``, ``sol_a``, ``sol_ape``); only the sparse
    base matrices are factorized.

    The set is immutable apart from its factorization cache; cache insertion
    is lock-protected so concurrent readers may share one instance.  Results
    are identical with a cold or warm cache.

    The cache keeps every LU the set has made, for the lifetime of the set:
    one of A, one of E and one per distinct (shift, E transposed relative to
    A) pair, all ordered by ``MMD_AT_PLUS_A`` in symmetric mode.  Callers
    whose shifts never repeat should drop the set to free its LUs.
    """

    def __init__(self, system: LtiSystem):
        self.system = system
        self._lock = threading.Lock()
        self._cache = {}
        self._check_system()

    # -- construction-time sanity checks ------------------------------------

    def _check_system(self):
        sys_ = self.system
        a, e = sys_.a, sys_.e
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got {a.shape}")
        n = a.shape[0]
        if sys_.have_e and e.shape != (n, n):
            raise ValueError(f"E must match A: {e.shape} vs {a.shape}")
        if sys_.b.shape[0] != n:
            raise ValueError(f"B has {sys_.b.shape[0]} rows, expected {n}")
        if sys_.c.shape[1] != n:
            raise ValueError(f"C has {sys_.c.shape[1]} columns, expected {n}")
        if sys_.d.shape != (sys_.c.shape[0], sys_.b.shape[1]):
            raise ValueError("D must be (outputs x inputs)")
        if sys_.have_uv:
            if sys_.u.shape[0] != n or sys_.v.shape[0] != n:
                raise ValueError("U, V must have n rows")
            if sys_.u.shape[1] != sys_.v.shape[1]:
                raise ValueError("U, V must have equal column counts")
        for name, mat in (("A", a.data), ("B", sys_.b), ("C", sys_.c),
                          ("D", sys_.d)):
            if not _finite(mat):
                raise ValueError(f"non-finite entry in {name}")
        if sys_.have_e and not _finite(e.data):
            raise ValueError("non-finite entry in E")
        if sys_.have_uv and not (_finite(sys_.u) and _finite(sys_.v)):
            raise ValueError("non-finite entry in U or V")

    def size(self) -> int:
        """Dimension n of the state space."""
        return self.system.order

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

    def mul_ape(self, tr_a, p, tr_e, x):
        """((A + U V^T)^trA + p E^trE) @ x; complex ``p`` yields complex
        output."""
        return self.mul_a(tr_a, x) + p * self.mul_e(tr_e, x)

    # -- factorization cache --------------------------------------------------

    def _factorize(self, key, builder):
        with self._lock:
            fac = self._cache.get(key)
            if fac is None:
                try:
                    fac = splu(builder().tocsc(), permc_spec="MMD_AT_PLUS_A",
                               options=dict(SymmetricMode=True))
                except RuntimeError as exc:
                    raise SingularOperatorError(
                        f"factorization {key} failed: {exc}") from exc
                self._cache[key] = fac
        return fac

    @cached_property
    def _e(self):
        # E, or the identity without E; first read under the cache lock
        sys_ = self.system
        return sys_.e if sys_.have_e \
            else sp.identity(sys_.order, format="csr")

    def _lu_a(self):
        return self._factorize(("A",), lambda: self.system.a)

    def _lu_e(self):
        return self._factorize(("E",), lambda: self.system.e)

    def _lu_ape(self, p, mixed):
        # (N, N)/(T, T) share one factorization of A + pE; the mixed patterns
        # (N, T)/(T, N) share one of A + pE^T.  Transposed systems reuse the
        # factorization via a transposed triangular solve.
        p = complex(p)
        if p.imag == 0.0:
            p = p.real

        def build():
            e = self._e.T if mixed else self._e
            m = self.system.a + p * e
            return m.astype(complex) if isinstance(p, complex) else m

        return self._factorize(("ApE", p, mixed), build)

    # -- solves ----------------------------------------------------------------

    @staticmethod
    def _lu_solve(lu, tr, b):
        b = np.asarray(b)
        squeeze = b.ndim == 1
        rhs = b.reshape(-1, 1) if squeeze else b
        if np.iscomplexobj(rhs) and not np.iscomplexobj(lu.U.data):
            k = rhs.shape[1]
            y = lu.solve(np.hstack([rhs.real, rhs.imag]), trans=tr)
            x = y[:, :k] + 1j * y[:, k:]
        else:
            x = lu.solve(np.ascontiguousarray(rhs), trans=tr)
        return x[:, 0] if squeeze else x

    def _woodbury(self, lu, tr, b):
        # (M + u v^T)^{-1} b = y - M^{-1}u (I + v^T M^{-1}u)^{-1} v^T y for M
        # the LU's matrix transposed per ``tr``, (u, v) = (U, V) for "N" and
        # (V, U) for "T"; plain M^{-1} b without an update or with k = 0
        y = self._lu_solve(lu, tr, b)
        sys_ = self.system
        if not sys_.have_uv or sys_.u.shape[1] == 0:
            return y
        u, v = (sys_.u, sys_.v) if tr == "N" else (sys_.v, sys_.u)
        mu = self._lu_solve(lu, tr, u)
        cap = np.eye(u.shape[1]) + v.T @ mu
        try:
            t = np.linalg.solve(cap, v.T @ (y if y.ndim == 2 else y[:, None]))
        except np.linalg.LinAlgError as exc:
            raise SingularOperatorError("singular capacitance matrix") from exc
        corr = mu @ t
        return y - (corr[:, 0] if y.ndim == 1 else corr)

    def sol_a(self, tr, b):
        """Solve (A + U V^T)^tr X = B via Woodbury on the cached LU of A."""
        _check_trans(tr)
        return self._woodbury(self._lu_a(), tr, b)

    def sol_e(self, tr, b):
        """Solve E^tr X = B; identity shortcut without E."""
        _check_trans(tr)
        if not self.system.have_e:
            return np.asarray(b)
        return self._lu_solve(self._lu_e(), tr, b)

    def sol_ape(self, tr_a, p, tr_e, b):
        """Solve ((A + U V^T)^trA + p E^trE) X = B via Woodbury on the cached
        LU of A + pE, one LU per distinct p.

        A singular shifted matrix (the shift equals a generalized eigenvalue
        of the pencil) or a singular capacitance matrix raises
        :class:`SingularOperatorError` so the caller can replace the shift.
        """
        _check_trans(tr_a)
        _check_trans(tr_e)
        return self._woodbury(self._lu_ape(p, mixed=tr_a != tr_e), tr_a, b)
