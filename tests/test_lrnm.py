import numpy as np
import pytest

from lrmor import (AdiOptions, LowRankFactor, LtiSystem, OperatorSet,
                   RiccatiSpec, SolverError, gen_fd_laplacian,
                   heuristic_shifts, lqg_transform, lr_newton,
                   riccati_residual)
from lrmor.operators import MAX_LUS
from referees import closed_loop_check, dense_a_eff, dense_are_solve

from conftest import random_stable_system, scalar_system, unstable_fd_system


class TestLrNewton:
    def test_scalar_quadratic(self):
        res = lr_newton(RiccatiSpec(scalar_system(), "T"))
        assert res.converged
        q = np.sqrt(2) - 1
        assert res.z.dense()[0, 0] == pytest.approx(q, abs=1e-10)
        assert res.k[0, 0] == pytest.approx(q, abs=1e-10)

    def test_zero_output(self):
        sys_ = LtiSystem(a=np.diag([-1.0, -2.0]), b=np.ones((2, 1)),
                         c=np.zeros((1, 2)))
        res = lr_newton(RiccatiSpec(sys_, "T"))
        assert res.converged
        assert res.z.columns == 0
        np.testing.assert_array_equal(res.k, np.zeros((1, 2)))
        assert res.newton_residuals == [0.0]

    def test_fd_laplacian_vs_dense_oracle(self, fd7):
        res = lr_newton(RiccatiSpec(fd7, "T"))
        assert res.converged
        q_ref = dense_are_solve(None, fd7.a, fd7.b, fd7.c)
        err = np.linalg.norm(res.z.dense() - q_ref, 2)
        assert err <= 1e-6 * np.linalg.norm(q_ref, 2)
        assert res.newton_residuals[-1] <= 1e-9

    def test_generalized_mimo(self, rng):
        sys_ = random_stable_system(rng, 15, m=2, p=3, with_e=True)
        res = lr_newton(RiccatiSpec(sys_, "T"))
        assert res.converged
        q_ref = dense_are_solve(sys_.e, sys_.a, sys_.b, sys_.c)
        err = np.linalg.norm(res.z.dense() - q_ref, 2)
        assert err <= 1e-6 * np.linalg.norm(q_ref, 2)

    def test_side_n_by_transposition(self, rng):
        sys_ = random_stable_system(rng, 10, m=2, p=2)
        spec = RiccatiSpec(sys_, "N")
        res = lr_newton(spec)
        assert res.converged
        p_ref = dense_are_solve(None, sys_.a.T, sys_.c.T, sys_.b.T)
        err = np.linalg.norm(res.z.dense() - p_ref, 2)
        assert err <= 1e-6 * np.linalg.norm(p_ref, 2)
        assert closed_loop_check(spec, res.k)

    @pytest.mark.parametrize("first, second", [("T", "N"), ("N", "T")])
    def test_both_sides_share_the_pencils_lus(self, lu_count, first,
                                              second):
        # one pencil, one LU per shift: the second side's solves are the
        # transposes of the first side's on the same LUs
        model = gen_fd_laplacian(30)
        assert lr_newton(RiccatiSpec(model, first)).converged
        made = lu_count()
        assert made > 0
        assert lr_newton(RiccatiSpec(model, second)).converged
        assert lu_count() == made

    def test_unstable_pencil_divergence_raises_solver_error(self):
        # from K = 0 the stable shifts of an unstable pencil blow the
        # residual up, and the solver must say so instead of leaking
        # OverflowError, on either side
        for side in "TN":
            with pytest.raises(SolverError, match="diverged.*exceeds 1/eps"):
                lr_newton(RiccatiSpec(unstable_fd_system(), side))

    def test_residuals_non_increasing(self, rng):
        sys_ = random_stable_system(rng, 12, m=2, p=2, with_e=True)
        res = lr_newton(RiccatiSpec(sys_, "T"))
        hist = res.newton_residuals
        for prev, cur in zip(hist, hist[1:]):
            assert cur <= prev * (1.0 + 1e-12)

    @pytest.mark.parametrize("grid", [7, 14])
    def test_monitor_is_the_true_residual_at_every_step(self, grid):
        # real pool: step j's factor is the first j columns (p = 1)
        spec = RiccatiSpec(gen_fd_laplacian(grid), "T")
        res = lr_newton(spec)
        for j, monitor in enumerate(res.newton_residuals):
            true = riccati_residual(
                spec, LowRankFactor(res.z.z[:, :j])).relative
            assert true == pytest.approx(monitor, rel=1e-6, abs=1e-13)

    def test_final_residual_consistent(self, fd7, rng):
        for spec in (RiccatiSpec(fd7, "T"),
                     RiccatiSpec(random_stable_system(rng, 12, m=2, p=3,
                                                      with_e=True), "T")):
            res = lr_newton(spec)
            assert res.converged
            direct = riccati_residual(spec, res.z).relative
            assert res.newton_residuals[-1] == direct

    def test_solution_psd(self, rng):
        sys_ = random_stable_system(rng, 10, m=1, p=1, symmetric=True)
        res = lr_newton(RiccatiSpec(sys_, "T"))
        w = np.linalg.eigvalsh(res.z.dense())
        assert w.min() >= -1e-12 * max(w.max(), 1.0)

    def test_max_steps_returns_unconverged(self, fd7):
        res = lr_newton(RiccatiSpec(fd7, "T"),
                        AdiOptions(rel_tolerance=1e-14, max_iterations=1))
        assert not res.converged

    def test_step_budget_exhausted_returns_unconverged(self, fd7):
        spec = RiccatiSpec(fd7, "T")
        opts = AdiOptions(max_iterations=2)
        res = lr_newton(spec, opts)
        assert not res.converged
        assert len(res.newton_residuals) == 3
        assert res.z.columns == 2
        assert res.newton_residuals[-1] == \
            riccati_residual(spec, res.z).relative > opts.rel_tolerance

    def test_lqg_tilde_system_with_feedthrough(self, rng):
        # the transformed equation is a standard Riccati equation with a
        # low-rank-updated coefficient; Woodbury routing must match the
        # densified oracle
        sys_ = random_stable_system(rng, 12, m=2, p=2, with_e=True)
        sys_.d[:] = 0.3 * rng.standard_normal(sys_.d.shape)
        tr = lqg_transform(sys_)
        res = lr_newton(RiccatiSpec(tr.system, "T"))
        assert res.converged
        q_ref = dense_are_solve(tr.system.e, dense_a_eff(tr.system),
                                tr.system.b, tr.system.c)
        err = np.linalg.norm(res.z.dense() - q_ref, 2)
        assert err <= 1e-6 * np.linalg.norm(q_ref, 2)

    def test_one_shift_pool_factorizes_once_per_shift(self, lu_count):
        # bound: the heuristic pool (10 shifts) plus A and E, however many
        # RADI steps run; grid 14 (n = 196) is the largest FD model the
        # dense oracle accepts
        fd14 = gen_fd_laplacian(14)
        res = lr_newton(RiccatiSpec(fd14, "T"))
        assert res.converged
        assert len(res.newton_residuals) - 1 >= 2
        assert lu_count() <= 10 + 2
        q_ref = dense_are_solve(None, fd14.a, fd14.b, fd14.c)
        err = np.linalg.norm(res.z.dense() - q_ref, 2)
        assert err <= 1e-6 * np.linalg.norm(q_ref, 2)

    def test_pool_larger_than_lu_bound_stays_cached(self, lu_count,
                                                    monkeypatch):
        # bound: a pool of 14 shifts (more than MAX_LUS holds with A and E)
        # still factorizes once per shift, and clearing the cache before
        # every shifted solve changes no bit of the result
        fd30 = gen_fd_laplacian(30)
        pool = heuristic_shifts(OperatorSet(fd30), num=14)
        opts = AdiOptions(shifts=pool)
        made = lu_count()
        res = lr_newton(RiccatiSpec(fd30, "T"), opts)
        assert res.converged
        assert len(pool) >= 14
        assert lu_count() <= made + len(pool) + 2
        assert len(fd30.lu_cache) <= MAX_LUS

        sol_ape = OperatorSet.sol_ape

        def clearing(ops, *args):
            ops.system.lu_cache.clear()
            return sol_ape(ops, *args)

        monkeypatch.setattr(OperatorSet, "sol_ape", clearing)
        cleared = lr_newton(RiccatiSpec(gen_fd_laplacian(30), "T"), opts)
        np.testing.assert_array_equal(res.z.z, cleared.z.z)

    def test_conjugate_pair_takes_one_complex_lu_and_stays_real(
            self, rng, lu_count):
        sys_ = random_stable_system(rng, 12, m=2, p=2, with_e=True)
        pool = [-1.0 + 2.0j, -1.0 - 2.0j, -3.0]
        res = lr_newton(RiccatiSpec(sys_, "T"),
                        AdiOptions(shifts=pool))
        assert res.converged
        # the pencil's ordering LU, then the pool's two: one complex for
        # the pair, one real
        assert lu_count() == 1 + 2
        assert np.isrealobj(res.z.z) and np.isrealobj(res.k)
        assert res.z.columns == 2 * (len(res.newton_residuals) - 1)
        q_ref = dense_are_solve(sys_.e, sys_.a, sys_.b, sys_.c)
        err = np.linalg.norm(res.z.dense() - q_ref, 2)
        assert err <= 1e-6 * np.linalg.norm(q_ref, 2)
        np.testing.assert_allclose(res.k, sys_.b.T @ q_ref @ sys_.dense_e(),
                                   atol=1e-6 * np.linalg.norm(q_ref, 2))

    @pytest.mark.parametrize("p", [1, 2])
    def test_fd_model_gains_p_columns_per_real_step(self, p):
        fd = gen_fd_laplacian(14)
        c = np.vstack([fd.c, np.roll(fd.c, 3)])[:p]
        res = lr_newton(RiccatiSpec(LtiSystem(a=fd.a, b=fd.b, c=c), "T"))
        assert res.converged
        assert res.z.columns == p * (len(res.newton_residuals) - 1)

    def test_step_budget_keeps_the_default_pool(self):
        # a smaller budget cycles the same heuristic pool, so its Z is the
        # leading columns of the default run's Z, bit for bit
        full = lr_newton(RiccatiSpec(gen_fd_laplacian(10), "T"))
        short = lr_newton(RiccatiSpec(gen_fd_laplacian(10), "T"),
                          AdiOptions(max_iterations=5))
        assert not short.converged and full.z.columns > short.z.columns > 0
        np.testing.assert_array_equal(short.z.z,
                                      full.z.z[:, :short.z.columns])

    @pytest.mark.parametrize("shifts", [[], np.zeros(0)])
    def test_empty_shift_pool_is_rejected(self, shifts):
        with pytest.raises(ValueError, match="empty"):
            AdiOptions(shifts=shifts)


class TestClosedLoopCheck:
    def test_zero_feedback_stable_system(self, rng):
        sys_ = random_stable_system(rng, 8)
        assert closed_loop_check(RiccatiSpec(sys_, "T"), np.zeros((1, 8)))

    def test_scalar_stabilizing_feedback(self):
        sys_ = scalar_system(a=1.0)
        assert closed_loop_check(RiccatiSpec(sys_, "T"),
                                 np.array([[2.0]]))

    def test_converged_solution_stabilizes(self, fd7):
        spec = RiccatiSpec(fd7, "T")
        res = lr_newton(spec)
        assert closed_loop_check(spec, res.k)
