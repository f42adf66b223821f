import os
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import lrmor.operators
from lrmor import LtiSystem, gen_fd_laplacian

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # HYPOTHESIS_PROFILE=ci replays the same examples on every run, so a CI
    # failure reproduces locally with the same variable
    settings.register_profile("ci", derandomize=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def random_stable_system(rng, n, m=1, p=1, with_e=False, symmetric=False):
    """Well-conditioned stable test system; A = -(MM^T + I) when symmetric,
    otherwise a shifted random matrix."""
    if symmetric:
        m_ = rng.standard_normal((n, n))
        a = -(m_ @ m_.T) / n - np.eye(n)
    else:
        a = rng.standard_normal((n, n)) / np.sqrt(n)
        a = a - (np.abs(np.linalg.eigvals(a).real).max() + 0.5) * np.eye(n)
    e = None
    if with_e:
        f = rng.standard_normal((n, n)) / np.sqrt(n)
        e = f @ f.T + np.eye(n)
    return LtiSystem(a=a, b=rng.standard_normal((n, m)),
                     c=rng.standard_normal((p, n)), e=e)


def pair_sorted(values):
    """``values`` sorted by real part with each conjugate pair adjacent;
    both members of a pair sort on the positive-imaginary one's real part,
    so a pair never meets its own conjugate in a sorted comparison."""
    values = np.asarray(values, dtype=complex)
    key = values.real.copy()
    for i in np.flatnonzero(values.imag > 0):
        key[np.argmin(np.abs(values - np.conj(values[i])))] = key[i]
    return values[np.lexsort((values.imag, key))]


def scalar_system(a=-1.0, e=1.0, b=1.0, c=1.0, d=0.0):
    return LtiSystem(a=[[a]], b=[[b]], c=[[c]], d=[[d]],
                     e=None if e == 1.0 else [[e]])


@pytest.fixture(scope="session")
def fd10():
    return gen_fd_laplacian(10)


@pytest.fixture(scope="session")
def fd7():
    return gen_fd_laplacian(7)


class RecordedLu:
    """A sparse LU that writes the thread that frees it into its record."""

    def __init__(self, lu, record):
        self._lu, self._record = lu, record

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def __del__(self):
        self._record[1] = threading.current_thread()


@pytest.fixture
def lu_threads(monkeypatch):
    """One ``[maker, freer]`` thread pair per sparse LU the operator layer
    made since set-up; ``freer`` is None while the LU lives."""
    records = []

    def recording(*args, **kwargs):
        record = [threading.current_thread(), None]
        records.append(record)
        return RecordedLu(splu(*args, **kwargs), record)

    monkeypatch.setattr(lrmor.operators, "splu", recording)
    return records


@pytest.fixture
def lu_count(lu_threads):
    """Number of sparse LUs the operator layer made since set-up."""
    return lambda: len(lu_threads)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def sparse_random(rng, n, density=0.2):
    m = sp.random(n, n, density=density, random_state=np.random.RandomState(
        rng.integers(2 ** 31)), format="csr")
    row_sums = np.asarray(np.abs(m).sum(axis=1)).ravel()
    return m + sp.diags(1.0 + row_sums)


def unstable_fd_system():
    """The 10 x 10 FD heat model shifted to A + 1e3 I: every eigenvalue
    lies in the right half-plane, so LR-ADI from a stable shift diverges."""
    fd = gen_fd_laplacian(10)
    return LtiSystem(a=fd.a + 1e3 * sp.identity(fd.order), b=fd.b, c=fd.c)
