import numpy as np
import pytest
import scipy.linalg as la

from lrmor import (LowRankFactor, LyapunovSpec, RiccatiSpec,
                   SingularOperatorError, SolverError, lyap_residual,
                   riccati_residual)
from referees import (dense_a_eff, dense_are_solve, dense_lyap_solve,
                      spsd_factor, stability_check, transposed)

from conftest import random_stable_system, scalar_system


def dense_lyap_res(sys_, z, side):
    a = dense_a_eff(sys_)
    e = sys_.dense_e()
    p = z @ z.T
    if side == "N":
        return a @ p @ e.T + e @ p @ a.T + sys_.b @ sys_.b.T
    return a.T @ p @ e + e.T @ p @ a + sys_.c.T @ sys_.c


def dense_ricc_res(sys_, z, side):
    a = dense_a_eff(sys_)
    e = sys_.dense_e()
    q = z @ z.T
    b, c = sys_.b, sys_.c
    if side == "T":
        return a.T @ q @ e + e.T @ q @ a + c.T @ c \
            - e.T @ q @ b @ (b.T @ q @ e)
    return a @ q @ e.T + e @ q @ a.T + b @ b.T \
        - e @ q @ c.T @ (c @ q @ e.T)


class TestLyapResidual:
    def test_empty_factor_is_constant_term(self, rng):
        sys_ = random_stable_system(rng, 6, m=2)
        rep = lyap_residual(LyapunovSpec(sys_, "N"),
                            LowRankFactor(np.zeros((6, 0))))
        assert rep.absolute == pytest.approx(
            np.linalg.norm(sys_.b, 2) ** 2, rel=1e-13)
        assert rep.relative == pytest.approx(1.0, rel=1e-13)

    def test_scalar_exact_solution(self):
        rep = lyap_residual(LyapunovSpec(scalar_system(), "N"),
                            LowRankFactor([[np.sqrt(0.5)]]))
        assert rep.absolute <= 1e-14

    @pytest.mark.parametrize("side", ["N", "T"])
    def test_matches_dense_residual(self, rng, side):
        sys_ = random_stable_system(rng, 6, m=2, p=2, with_e=True)
        z = rng.standard_normal((6, 3))
        rep = lyap_residual(LyapunovSpec(sys_, side), LowRankFactor(z))
        ref = np.linalg.norm(dense_lyap_res(sys_, z, side), 2)
        assert rep.absolute == pytest.approx(ref, rel=1e-12)

    def test_respects_low_rank_update(self, rng):
        base = random_stable_system(rng, 6, m=2)
        sys_ = base.with_update(rng.standard_normal((6, 1)) * 0.1,
                                rng.standard_normal((6, 1)))
        z = rng.standard_normal((6, 2))
        rep = lyap_residual(LyapunovSpec(sys_, "N"), LowRankFactor(z))
        ref = np.linalg.norm(dense_lyap_res(sys_, z, "N"), 2)
        assert rep.absolute == pytest.approx(ref, rel=1e-12)

    def test_dimension_mismatch(self, rng):
        sys_ = random_stable_system(rng, 6)
        with pytest.raises(ValueError):
            lyap_residual(LyapunovSpec(sys_, "N"),
                          LowRankFactor(np.ones((5, 1))))

    def test_duality(self, rng):
        sys_ = random_stable_system(rng, 5, m=2, p=3, with_e=True)
        z = rng.standard_normal((5, 2))
        obs = lyap_residual(LyapunovSpec(sys_, "T"), LowRankFactor(z))
        ctrl = lyap_residual(LyapunovSpec(transposed(sys_), "N"),
                             LowRankFactor(z))
        assert obs.absolute == pytest.approx(ctrl.absolute, rel=1e-12)

    def test_matches_dense_residual_n50(self, rng):
        sys_ = random_stable_system(rng, 50, m=3, with_e=True)
        z = rng.standard_normal((50, 8))
        rep = lyap_residual(LyapunovSpec(sys_, "N"), LowRankFactor(z))
        ref = np.linalg.norm(dense_lyap_res(sys_, z, "N"), 2)
        assert rep.absolute == pytest.approx(ref, rel=1e-10)


class TestRiccatiResidual:
    def test_empty_factor(self, rng):
        sys_ = random_stable_system(rng, 6, p=2)
        rep = riccati_residual(RiccatiSpec(sys_, "T"),
                               LowRankFactor(np.zeros((6, 0))))
        assert rep.absolute == pytest.approx(
            np.linalg.norm(sys_.c, 2) ** 2, rel=1e-13)

    def test_scalar_exact_solution(self):
        q = np.sqrt(2) - 1
        rep = riccati_residual(RiccatiSpec(scalar_system(), "T"),
                               LowRankFactor([[np.sqrt(q)]]))
        assert rep.absolute <= 1e-12

    @pytest.mark.parametrize("side", ["N", "T"])
    def test_matches_dense_residual(self, rng, side):
        sys_ = random_stable_system(rng, 6, m=2, p=2, with_e=True)
        z = rng.standard_normal((6, 3))
        rep = riccati_residual(RiccatiSpec(sys_, side), LowRankFactor(z))
        ref = np.linalg.norm(dense_ricc_res(sys_, z, side), 2)
        assert rep.absolute == pytest.approx(ref, rel=1e-12)


class TestDenseLyapOracle:
    def test_scalar(self):
        p = dense_lyap_solve(None, np.array([[-1.0]]), np.array([[1.0]]))
        assert p[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_decoupled_diagonal(self):
        p = dense_lyap_solve(None, np.diag([-1.0, -2.0]), np.eye(2))
        np.testing.assert_allclose(p, np.diag([0.5, 0.25]), atol=1e-13)

    def test_random_residual(self, rng):
        sys_ = random_stable_system(rng, 8, m=2, with_e=True, symmetric=True)
        p = dense_lyap_solve(sys_.e, sys_.a, sys_.b)
        res = dense_lyap_res(sys_, spsd_factor(p).z, "N")
        assert np.linalg.norm(res, 2) <= 1e-10 * np.linalg.norm(sys_.b, 2) ** 2

    def test_against_bartels_stewart(self, rng):
        # independent cross-check of the Kronecker oracle itself
        sys_ = random_stable_system(rng, 7, m=2)
        p = dense_lyap_solve(None, sys_.a, sys_.b)
        a = sys_.a.toarray()
        ref = la.solve_continuous_lyapunov(a, -sys_.b @ sys_.b.T)
        np.testing.assert_allclose(p, ref, atol=1e-11)

    def test_symmetry(self, rng):
        sys_ = random_stable_system(rng, 9, m=2)
        p = dense_lyap_solve(None, sys_.a, sys_.b)
        assert np.abs(p - p.T).max() <= 1e-12 * max(np.abs(p).max(), 1.0)

    def test_sparse_input_path(self, fd7):
        p = dense_lyap_solve(None, fd7.a, fd7.b)
        res = fd7.a.toarray() @ p + p @ fd7.a.toarray().T \
            + fd7.b @ fd7.b.T
        assert np.linalg.norm(res, 2) \
            <= 1e-10 * np.linalg.norm(fd7.b, 2) ** 2

    def test_mirrored_eigenvalue_pair_raises(self):
        with pytest.raises(SolverError, match="mirrored"):
            dense_lyap_solve(None, np.diag([1.0, -1.0]), np.ones((2, 1)))

    def test_size_cap(self):
        with pytest.raises(ValueError, match="dense input"):
            dense_lyap_solve(None, -np.eye(80), np.ones((80, 1)))

    def test_factor_of_oracle_solution_has_tiny_residual(self, rng):
        sys_ = random_stable_system(rng, 8, m=2, with_e=True)
        p = dense_lyap_solve(sys_.e, sys_.a, sys_.b)
        rep = lyap_residual(LyapunovSpec(sys_, "N"), spsd_factor(p))
        assert rep.relative <= 1e-9


class TestDenseAreOracle:
    def test_scalar(self):
        q = dense_are_solve(None, [[-1.0]], [[1.0]], [[1.0]])
        assert q[0, 0] == pytest.approx(np.sqrt(2) - 1, abs=1e-12)

    def test_zero_output_matrix(self):
        q = dense_are_solve(None, np.diag([-1.0, -2.0]), np.ones((2, 1)),
                            np.zeros((1, 2)))
        np.testing.assert_array_equal(q, np.zeros((2, 2)))

    def test_random_residual_and_symmetry(self, rng):
        sys_ = random_stable_system(rng, 8, m=2, p=2, with_e=True)
        q = dense_are_solve(sys_.e, sys_.a, sys_.b, sys_.c)
        res = dense_ricc_res(sys_, spsd_factor(q).z, "T")
        assert np.linalg.norm(res, 2) <= 1e-10 * np.linalg.norm(sys_.c, 2) ** 2
        assert np.abs(q - q.T).max() <= 1e-12 * max(np.abs(q).max(), 1.0)

    def test_closed_loop_stable(self, rng):
        sys_ = random_stable_system(rng, 6, m=2, p=2)
        q = dense_are_solve(None, sys_.a, sys_.b, sys_.c)
        acl = sys_.a.toarray() - sys_.b @ (sys_.b.T @ q)
        stable, _ = stability_check(None, acl)
        assert stable

    def test_unstable_pencil_rejected(self):
        with pytest.raises(SolverError, match="stable"):
            dense_are_solve(None, [[1.0]], [[1.0]], [[1.0]])


class TestStabilityCheck:
    def test_negative_identity(self):
        stable, abscissa = stability_check(None, -np.eye(3))
        assert stable and abscissa == pytest.approx(-1.0)

    def test_unstable_diagonal(self):
        stable, abscissa = stability_check(None, np.diag([-1.0, 0.1]))
        assert not stable and abscissa == pytest.approx(0.1)

    def test_fd_laplacian(self, fd7):
        stable, _ = stability_check(None, fd7.a)
        assert stable

    def test_generalized(self, rng):
        sys_ = random_stable_system(rng, 6, with_e=True)
        stable, _ = stability_check(sys_.e, sys_.a)
        assert stable

    def test_singular_e(self):
        with pytest.raises(SingularOperatorError, match="singular E"):
            stability_check(np.diag([1.0, 0.0]), -np.eye(2))


class TestSpsdFactor:
    def test_roundtrip(self, rng):
        z = rng.standard_normal((6, 3))
        p = z @ z.T
        zf = spsd_factor(p)
        np.testing.assert_allclose(zf.dense(), p, atol=1e-12)
        assert zf.columns <= 3 + 1
