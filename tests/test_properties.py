"""Property tests on random small systems against the dense oracles."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lrmor import (LtiSystem, RiccatiSpec, dense_are_solve,  # noqa: E402
                   lr_newton)


def _stable_system(seed, n, m, p, with_e, k):
    """A random system whose effective A + U V^T has a negative definite
    symmetric part, so the pencil is stable for every SPD E."""
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((n, n)) / np.sqrt(n)
    sym = 0.5 * (s + s.T)
    a_eff = s - (np.linalg.eigvalsh(sym).max() + 0.5) * np.eye(n)
    e = u = v = None
    if with_e:
        f = rng.standard_normal((n, n)) / np.sqrt(n)
        e = f @ f.T + np.eye(n)
    a = a_eff
    if k:
        u = 0.5 * rng.standard_normal((n, k))
        v = 0.5 * rng.standard_normal((n, k))
        a = a_eff - u @ v.T
    return LtiSystem(a=a, b=rng.standard_normal((n, m)),
                     c=rng.standard_normal((p, n)), e=e, u=u, v=v)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
       m=st.integers(1, 3), p=st.integers(1, 3), with_e=st.booleans(),
       k=st.sampled_from([0, 2]))
def test_newton_with_shift_pool_matches_dense_oracle(seed, n, m, p, with_e,
                                                     k):
    sys_ = _stable_system(seed, n, m, p, with_e, k)
    res = lr_newton(RiccatiSpec(sys_, "T"))
    assert res.converged
    assert res.newton_residuals[-1] <= 1e-9
    q_ref = dense_are_solve(sys_.e, sys_.dense_a_eff(), sys_.b, sys_.c)
    err = np.linalg.norm(res.z.dense() - q_ref, 2)
    assert err <= 1e-6 * np.linalg.norm(q_ref, 2)
