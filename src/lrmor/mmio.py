"""Matrix Market file I/O (coordinate and array formats).

Thin wrappers around :func:`scipy.io.mmread` / :func:`scipy.io.mmwrite`
writing 17 significant digits so real values survive the ASCII round trip
bit-exactly.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.io import mmread, mmwrite

from .system import LtiSystem

_PRECISION = 17  # significant digits; float64 round-trips exactly


def write_matrix(path, m):
    """Write a matrix: sparse inputs as coordinate files, dense as array."""
    if sp.issparse(m):
        mmwrite(str(path), m.tocoo(), precision=_PRECISION)
    else:
        mmwrite(str(path), np.atleast_2d(np.asarray(m)),
                precision=_PRECISION)


def read_matrix(path):
    """Read a Matrix Market file; coordinate input comes back sparse (COO),
    array input dense."""
    return mmread(str(path))


def read_dense(path) -> np.ndarray:
    m = read_matrix(path)
    return m.toarray() if sp.issparse(m) else np.asarray(m)


def load_system(a_path, b_path, c_path, e_path=None) -> LtiSystem:
    """Assemble a system from Matrix Market files (sparse E, A; dense
    B, C)."""
    return LtiSystem(
        a=read_matrix(a_path),
        b=read_dense(b_path),
        c=read_dense(c_path),
        e=None if e_path is None else read_matrix(e_path))
