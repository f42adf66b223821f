"""Property tests on random small systems against the dense oracles."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lrmor import (AdiOptions, LtiSystem, LyapunovSpec,  # noqa: E402
                   OperatorSet, RiccatiSpec, balanced_truncation,
                   heuristic_shifts, irka, lr_adi, lr_newton)
from lrmor.lradi import _gramian_pair  # noqa: E402
from referees import (dense_a_eff, dense_are_solve,  # noqa: E402
                      dense_lyap_solve)


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
    q_ref = dense_are_solve(sys_.e, dense_a_eff(sys_), sys_.b, sys_.c)
    err = np.linalg.norm(res.z.dense() - q_ref, 2)
    assert err <= 1e-6 * np.linalg.norm(q_ref, 2)


def test_riccati_regression_example_matches_dense_oracle():
    # an inexact Kleinman-Newton iteration from K = 0 put a closed-loop
    # eigenvalue at +0.162 after its first step on this system and failed
    sys_ = _stable_system(2641, 7, 1, 1, False, 0)
    res = lr_newton(RiccatiSpec(sys_, "T"))
    assert res.converged
    assert res.newton_residuals[-1] <= 1e-9
    q_ref = dense_are_solve(sys_.e, dense_a_eff(sys_), sys_.b, sys_.c)
    err = np.linalg.norm(res.z.dense() - q_ref, 2)
    assert err <= 1e-6 * np.linalg.norm(q_ref, 2)


def _sparse_stable_system(seed, n, m, with_e, k):
    """Like :func:`_stable_system`, but A is sparse on a random, structurally
    non-symmetric pattern (the update is not formed into it) and E, if any,
    is sparse, symmetric and diagonally dominant."""
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3) / np.sqrt(n)
    e = u = v = None
    a_eff = s
    if k:
        u = 0.5 * rng.standard_normal((n, k))
        v = 0.5 * rng.standard_normal((n, k))
        a_eff = s + u @ v.T
    shift = np.linalg.eigvalsh(0.5 * (a_eff + a_eff.T)).max() + 0.5
    if with_e:
        t = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
        t = 0.5 * (t + t.T)
        e = t + np.diag(np.abs(t).sum(axis=1) + 1.0)
    return LtiSystem(a=s - shift * np.eye(n), b=rng.standard_normal((n, m)),
                     c=rng.standard_normal((m, n)), e=e, u=u, v=v)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
       m=st.integers(1, 3), with_e=st.booleans(), k=st.sampled_from([0, 2]),
       side=st.sampled_from(["N", "T"]),
       strategy=st.sampled_from(["projection", "heuristic"]))
def test_lr_adi_matches_dense_oracle(seed, n, m, with_e, k, side, strategy):
    # the pencil's reused ordering runs on random non-symmetric patterns
    sys_ = _sparse_stable_system(seed, n, m, with_e, k)
    shifts = heuristic_shifts(OperatorSet(sys_)) \
        if strategy == "heuristic" else None
    res = lr_adi(LyapunovSpec(sys_, side), AdiOptions(shifts=shifts))
    assert res.converged
    a, e = dense_a_eff(sys_), sys_.dense_e()
    if side == "N":
        p_ref = dense_lyap_solve(e, a, sys_.b)
    else:
        p_ref = dense_lyap_solve(e.T, a.T, sys_.c.T)
    err = np.linalg.norm(res.z.dense() - p_ref, 2)
    assert err <= 1e-6 * np.linalg.norm(p_ref, 2)


def _dense_hsv(sys_):
    """Hankel singular values sqrt(eig(P Qhat)), Qhat = E^T Q E, from the
    dense Gramians, through the symmetric similar matrix L^T Qhat L for
    P = L L^T, whose eigenvalues carry no spurious imaginary parts; and the
    Gramians P and Qhat."""
    a, e = dense_a_eff(sys_), sys_.dense_e()
    gram_p = dense_lyap_solve(e, a, sys_.b)
    q_hat = e.T @ dense_lyap_solve(e.T, a.T, sys_.c.T) @ e
    w, v = np.linalg.eigh(0.5 * (gram_p + gram_p.T))
    lp = v * np.sqrt(np.maximum(w, 0.0))
    prod = lp.T @ q_hat @ lp
    values = np.linalg.eigvalsh(0.5 * (prod + prod.T))[::-1]
    return np.sqrt(np.maximum(values, 0.0)), gram_p, q_hat


def _hsv_gap_bound(sys_, gram_p, q_hat):
    """delta with |sigma_k^2 - sigmat_k^2| <= delta for every k, where
    sigmat are the singular values of Zq^T E Zp from balanced truncation's
    own factors: by Weyl's inequality applied twice, to P Qhat -> Pt Qhat
    -> Pt Qt with Pt = Zp Zp^T and Qt = E^T Zq Zq^T E, whatever the
    factors are."""
    res_p, res_q = _gramian_pair(sys_, AdiOptions(rel_tolerance=1e-10))
    zp, zq = res_p.z.z, sys_.dense_e().T @ res_q.z.z
    p_t = zp @ zp.T

    def norm(m):
        return np.linalg.norm(m, 2)
    return (norm(q_hat) * norm(gram_p - p_t)
            + norm(p_t) * norm(q_hat - zq @ zq.T))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
       m=st.integers(1, 3), p=st.integers(1, 3), with_e=st.booleans(),
       k=st.sampled_from([0, 2]), frac=st.sampled_from([1e-2, 0.5]))
# Q's factor has 8 columns here, so sigma_9 = 1.06e-6 sigma_1 reads 0
@example(seed=205032139, n=12, m=3, p=1, with_e=False, k=2, frac=0.01)
def test_balanced_truncation_matches_dense_referee(seed, n, m, p, with_e, k,
                                                   frac):
    sys_ = _stable_system(seed, n, m, p, with_e, k)
    ref, gram_p, q_hat = _dense_hsv(sys_)
    _, rep = balanced_truncation(sys_, order=n)
    # values past either side's length are zero
    size = max(n, len(rep.singular_values))
    hsv = np.pad(rep.singular_values, (0, size - len(rep.singular_values)))
    ref = np.pad(ref, (0, size - n))
    # 1e-6 sigma_1, or more where the Gramians' own error allows more:
    # |s - t| <= min(sqrt(delta), delta / (s + t)) when |s^2 - t^2| <= delta
    delta = _hsv_gap_bound(sys_, gram_p, q_hat)
    with np.errstate(divide="ignore", invalid="ignore"):
        allowed = np.fmin(np.sqrt(delta), delta / (hsv + ref))
    assert (np.abs(hsv - ref) <= np.maximum(1e-6 * ref[0], allowed)).all()
    rom, rep = balanced_truncation(sys_, tol=frac * ref[0])
    points = 1j * np.logspace(-3, 3, 61)
    err = np.linalg.norm(sys_.transfer(points) - rom.transfer(points), 2,
                         axis=(-2, -1)).max()
    # Gramians at a 1e-10 residual resolve the values to about 1e-8 sigma_1,
    # and LR-ADI underestimates them (Z Z^T <= P): at tolerances near
    # 1e-4 sigma_1 a nearly tight bound can fall short by that much
    assert err <= rep.error_bound + 1e-8


def _hermite_gaps(e, a, b, c, rom, s, b_dir, c_dir):
    """Relative gaps of the right, left and bitangential-derivative
    conditions H(s) b = Hr(s) b, c^T H(s) = c^T Hr(s) and
    c^T H'(s) b = c^T Hr'(s) b between (E, A, B, C) and ``rom``; the
    derivative's gap is scaled by ||c^T C (sE - A)^{-1}|| ||E x||."""
    values = []
    for ee, aa, bb, cc in ((e, a, b, c), (rom.e, rom.a, rom.b, rom.c)):
        x = np.linalg.solve(s * ee - aa, bb @ b_dir)
        y = np.linalg.solve((s * ee - aa).T, cc.T @ c_dir)
        values.append((cc @ x, bb.T @ y, -y @ ee @ x,
                       np.linalg.norm(y) * np.linalg.norm(ee @ x)))
    (right, left, deriv, scale), (right_r, left_r, deriv_r, _) = values
    return (np.linalg.norm(right - right_r) / np.linalg.norm(right),
            np.linalg.norm(left - left_r) / np.linalg.norm(left),
            abs(deriv - deriv_r) / scale)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
       m=st.integers(1, 3), p=st.integers(1, 3), with_e=st.booleans(),
       k=st.sampled_from([0, 2]), r=st.integers(1, 4))
def test_irka_interpolates_at_its_shifts(seed, n, m, p, with_e, k, r):
    # the ROM of every iterate interpolates at the shifts it was built
    # from, converged or not, also where those solves were refined on the
    # LU of a nearby shift
    sys_ = _stable_system(seed, n, m, p, with_e, k)
    res = irka(sys_, min(r, n))
    a, e = dense_a_eff(sys_), sys_.dense_e()
    for s, b_dir, c_dir in zip(res.shifts, res.b_dirs, res.c_dirs):
        gaps = _hermite_gaps(e, a, sys_.b, sys_.c, res.rom, s, b_dir, c_dir)
        assert max(gaps) <= 1e-8, (s, gaps)
