import numpy as np
import pytest
import scipy.linalg as la

import lrmor.lradi
from lrmor import (AdiOptions, BenchConfig, IrkaOptions, LowRankFactor,
                   LtiSystem, LyapunovSpec, OperatorSet, ShiftSet,
                   SingularOperatorError, SolverError, balanced_truncation,
                   gen_fd_laplacian, gen_thermal_block_mini, heuristic_shifts,
                   irka, lr_adi, lyap_residual, projection_shifts)
from referees import dense_a_eff, dense_lyap_solve

from conftest import random_stable_system, scalar_system, unstable_fd_system


def complex_spectrum_system(rng, n=30, m=2):
    """Stable nonsymmetric system with strongly complex spectrum, forcing
    conjugate shift pairs."""
    blocks = []
    for _ in range(n // 2):
        re = -0.5 - 2.0 * rng.random()
        im = 1.0 + 3.0 * rng.random()
        blocks.append(np.array([[re, im], [-im, re]]))
    a = la.block_diag(*blocks) + 0.05 * rng.standard_normal((n, n))
    return LtiSystem(a=a, b=rng.standard_normal((n, m)),
                     c=rng.standard_normal((1, n)))


class TestShiftSet:
    def test_rejects_unstable(self):
        with pytest.raises(ValueError, match="negative real part"):
            ShiftSet([-1.0, 0.5])

    def test_rejects_unpaired_complex(self):
        with pytest.raises(ValueError, match="conjugate"):
            ShiftSet([-1.0 + 1.0j, -2.0])

    def test_accepts_adjacent_pairs(self):
        ss = ShiftSet([-1.0 + 1.0j, -1.0 - 1.0j, -3.0])
        assert len(ss) == 3

    def test_accepts_pairs_that_differ_in_the_last_bits(self):
        # as la.eig returns some conjugate pairs of a real pencil
        top = -491.2936308339952 + 100.54458787792407j
        low = np.conj(top) + np.spacing(100.0) * 1j
        assert low != np.conj(top)
        assert len(ShiftSet([top, low])) == 2

    @pytest.mark.parametrize("make", [
        lambda: AdiOptions(shifts=[np.nan, np.nan]),
        lambda: AdiOptions(shifts=[-np.inf]),
        lambda: AdiOptions(shifts=[np.nan]),
        lambda: irka(gen_fd_laplacian(6), 2,
                     IrkaOptions(initial_shifts=[np.nan, np.nan]))],
        ids=["nan-pair", "minus-inf", "nan", "irka-start"])
    def test_rejects_non_finite_shifts(self, make):
        # named before the sign, pair or singular-LU checks could misname it
        with pytest.raises(ValueError, match="shifts must be finite"):
            make()


class TestAdiOptions:
    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            AdiOptions(rel_tolerance=tol)


class TestProjectionShifts:
    def test_full_basis_returns_eigenvalues(self):
        sys_ = LtiSystem(a=np.diag([-1.0, -4.0]), b=np.ones((2, 1)),
                         c=np.ones((1, 2)))
        ss = projection_shifts(OperatorSet(sys_), np.eye(2))
        np.testing.assert_allclose(sorted(ss.values.real), [-4.0, -1.0],
                                   atol=1e-12)
        assert np.abs(ss.values.imag).max() <= 1e-12

    def test_conjugate_pair_adjacent(self):
        a = np.array([[-1.0, 2.0], [-2.0, -1.0]])  # eigenvalues -1 +- 2i
        sys_ = LtiSystem(a=a, b=np.ones((2, 1)), c=np.ones((1, 2)))
        ss = projection_shifts(OperatorSet(sys_), np.eye(2))
        assert len(ss) == 2
        assert ss.values[1] == np.conj(ss.values[0])

    def test_unstable_ritz_values_are_reflected(self):
        a = np.array([[1.0, 2.0], [-2.0, 1.0]])  # eigenvalues 1 +- 2i
        sys_ = LtiSystem(a=a, b=np.ones((2, 1)), c=np.ones((1, 2)))
        ss = projection_shifts(OperatorSet(sys_), np.eye(2))
        np.testing.assert_allclose(ss.values, [-1.0 + 2.0j, -1.0 - 2.0j],
                                   atol=1e-12)

    def test_fd_laplacian_residual_basis(self, fd10):
        ss = projection_shifts(OperatorSet(fd10), fd10.b)
        assert (ss.values.real < 0).all()

    def test_empty_basis_raises(self, fd7):
        with pytest.raises(ValueError, match="empty"):
            projection_shifts(OperatorSet(fd7), np.zeros((49, 0)))


class TestHeuristicShifts:
    def test_stable_and_usable(self, fd10):
        ss = heuristic_shifts(OperatorSet(fd10), num=6)
        assert (ss.values.real < 0).all()
        assert len(ss) >= 1

    def test_drives_adi(self, fd7):
        res = lr_adi(LyapunovSpec(fd7, "N"),
                     AdiOptions(shifts=heuristic_shifts(OperatorSet(fd7))))
        assert res.converged


class TestLrAdi:
    def test_scalar_one_step_exact(self):
        res = lr_adi(LyapunovSpec(scalar_system(), "N"),
                     AdiOptions(shifts=[-1.0]))
        assert res.converged
        assert res.residual_history == [0.0]
        np.testing.assert_allclose(res.z.dense(), [[0.5]], atol=1e-14)
        np.testing.assert_allclose(np.abs(res.z.z), [[np.sqrt(2) * 0.5]],
                                   atol=1e-14)

    def test_zero_rhs(self):
        sys_ = LtiSystem(a=np.diag([-1.0, -2.0]), b=np.zeros((2, 1)),
                         c=np.ones((1, 2)))
        res = lr_adi(LyapunovSpec(sys_, "N"))
        assert res.converged
        assert res.z.columns == 0
        assert res.residual_history == []

    @pytest.mark.parametrize("side", ["N", "T"])
    def test_fd_laplacian_vs_kronecker_oracle(self, fd7, side):
        res = lr_adi(LyapunovSpec(fd7, side))
        assert res.converged
        g = fd7.b if side == "N" else fd7.c.T
        a = fd7.a if side == "N" else fd7.a.T
        p_ref = dense_lyap_solve(None, a, g)
        err = np.linalg.norm(res.z.dense() - p_ref, 2)
        assert err <= 1e-6 * np.linalg.norm(p_ref, 2)

    def test_generalized_e(self, rng):
        sys_ = random_stable_system(rng, 25, m=2, with_e=True,
                                    symmetric=True)
        res = lr_adi(LyapunovSpec(sys_, "N"))
        assert res.converged
        p_ref = dense_lyap_solve(sys_.e, sys_.a, sys_.b)
        err = np.linalg.norm(res.z.dense() - p_ref, 2)
        assert err <= 1e-6 * np.linalg.norm(p_ref, 2)

    def test_monitor_matches_direct_residual_each_step(self, rng):
        sys_ = complex_spectrum_system(rng)
        spec = LyapunovSpec(sys_, "N")
        res = lr_adi(spec, AdiOptions(rel_tolerance=1e-9,
                                      max_iterations=300))
        assert res.converged
        res0 = np.linalg.norm(sys_.b, 2) ** 2
        for i, (rel, cols) in enumerate(zip(res.residual_history,
                                            res.columns_history)):
            direct = lyap_residual(
                spec, LowRankFactor(res.z.z[:, :cols])).absolute / res0
            # roundoff floor: the direct evaluation cancels to ~eps * res0
            assert abs(direct - rel) <= 1e-8 * (1.0 + rel), f"step {i}"

    def test_real_factor_under_complex_shifts(self, rng):
        sys_ = complex_spectrum_system(rng)
        res = lr_adi(LyapunovSpec(sys_, "N"), AdiOptions(rel_tolerance=1e-9,
                                                         max_iterations=300))
        assert res.converged
        assert res.z.z.dtype == np.float64
        n_complex = np.sum(np.abs(res.shifts_used.values.imag) > 0)
        assert n_complex >= 2 and n_complex % 2 == 0

    def test_column_count_bound(self, rng):
        sys_ = complex_spectrum_system(rng, m=3)
        res = lr_adi(LyapunovSpec(sys_, "N"), AdiOptions(rel_tolerance=1e-8,
                                                         max_iterations=300))
        assert res.z.columns <= 3 * len(res.residual_history)
        assert len(res.residual_history) == len(res.columns_history)

    def test_symmetric_case_psd_and_finite_history(self, rng):
        sys_ = random_stable_system(rng, 20, m=2, with_e=True,
                                    symmetric=True)
        res = lr_adi(LyapunovSpec(sys_, "N"))
        w = la.eigvalsh(res.z.dense())
        assert w.min() >= -1e-10 * max(w.max(), 1.0)
        hist = np.asarray(res.residual_history)
        assert np.isfinite(hist).all() and (hist > 0).all()

    def test_converged_implies_tolerance(self, fd7):
        opts = AdiOptions(rel_tolerance=1e-8)
        res = lr_adi(LyapunovSpec(fd7, "N"), opts)
        assert res.converged
        assert res.residual_history[-1] <= opts.rel_tolerance

    @pytest.mark.parametrize("tol", [1e-10, 1e-15, 1e-16, 1e-18])
    def test_converged_means_true_residual_meets_tolerance(self, fd10, tol):
        # below about 1.5e-15 the monitor meets the tolerance and the true
        # residual does not
        spec = LyapunovSpec(fd10, "N")
        res = lr_adi(spec, AdiOptions(rel_tolerance=tol))
        assert res.residual_history[-1] <= tol
        assert res.converged == (lyap_residual(spec, res.z).relative <= tol)
        assert res.converged == (tol == 1e-10)

    def test_budget_exhaustion_returns_partial(self, fd7):
        res = lr_adi(LyapunovSpec(fd7, "N"),
                     AdiOptions(max_iterations=3, rel_tolerance=1e-16))
        assert not res.converged
        assert res.z.columns > 0
        assert len(res.residual_history) >= 3

    def test_singular_shift_reported(self):
        sys_ = LtiSystem(a=np.diag([1.0, -2.0]), b=np.ones((2, 1)),
                         c=np.ones((1, 2)))
        with pytest.raises(SingularOperatorError, match="generalized "
                                                        "eigenvalue"):
            lr_adi(LyapunovSpec(sys_, "N"), AdiOptions(shifts=[-1.0]))

    def test_unstable_user_shift_rejected(self):
        with pytest.raises(ValueError):
            lr_adi(LyapunovSpec(scalar_system(), "N"),
                   AdiOptions(shifts=[0.5]))

    @pytest.mark.parametrize("shifts", [[], ShiftSet(np.zeros(0))])
    def test_empty_shift_pool_rejected(self, shifts):
        with pytest.raises(ValueError, match="empty"):
            AdiOptions(shifts=shifts)

    def test_monitor_identity_side_t_with_update(self, rng):
        # the Newton step equation's shape: side T, coefficient A + U V^T
        base = complex_spectrum_system(rng, n=24)
        k_fb = 0.05 * rng.standard_normal((1, 24))
        sys_ = LtiSystem(a=base.a, b=base.b, c=np.vstack([base.c, k_fb]),
                         u=-base.b[:, :1], v=k_fb.T)
        spec = LyapunovSpec(sys_, "T")
        res = lr_adi(spec, AdiOptions(rel_tolerance=1e-9,
                                      max_iterations=300))
        assert res.converged
        res0 = np.linalg.norm(sys_.c.T, 2) ** 2
        for rel, cols in zip(res.residual_history, res.columns_history):
            direct = lyap_residual(
                spec, LowRankFactor(res.z.z[:, :cols])).absolute / res0
            assert abs(direct - rel) <= 1e-8 * (1.0 + rel)

    def test_splr_matches_densified(self, rng):
        base = random_stable_system(rng, 12, m=2, symmetric=True)
        u = 0.1 * rng.standard_normal((12, 2))
        v = rng.standard_normal((12, 2))
        splr = base.with_update(u, v)
        a_eff = dense_a_eff(splr)
        stable, _ = la.eig(a_eff)[0].real.max() < 0, None
        assert stable
        dense_sys = LtiSystem(a=a_eff, b=base.b, c=base.c)
        shifts = [-0.7, -2.0, -5.0, -11.0]
        res_splr = lr_adi(LyapunovSpec(splr, "N"),
                          AdiOptions(shifts=shifts, max_iterations=40,
                                     rel_tolerance=1e-12))
        res_dense = lr_adi(LyapunovSpec(dense_sys, "N"),
                           AdiOptions(shifts=shifts, max_iterations=40,
                                      rel_tolerance=1e-12))
        np.testing.assert_allclose(res_splr.z.z, res_dense.z.z, atol=1e-9)

    @pytest.mark.parametrize("strategy", ["projection", "heuristic"])
    def test_divergence_raises_solver_error(self, strategy, monkeypatch):
        # every eigenvalue is unstable: the residual grows, which must name
        # the divergence once the monitor exceeds 1/eps, within a few steps
        # and without leaking OverflowError
        sys_ = unstable_fd_system()
        shifts = heuristic_shifts(OperatorSet(sys_)) \
            if strategy == "heuristic" else None
        widths, step = [], lrmor.lradi._AdiRun.step

        def counting(run, p, width):
            widths.append(width)
            return step(run, p, width)

        monkeypatch.setattr(lrmor.lradi._AdiRun, "step", counting)
        with pytest.raises(SolverError, match="diverged.*exceeds 1/eps"):
            lr_adi(LyapunovSpec(sys_, "N"), AdiOptions(shifts=shifts))
        assert 0 < sum(widths) <= 10


class TestShiftSchedule:
    """Which shift each ADI step takes: a fixed pool is cycled with its
    conjugate pairs whole, projection shifts are renewed when a batch runs
    out or after ``_BATCH`` iterations."""

    @pytest.mark.parametrize("max_iterations, count", [(7, 7), (9, 10)])
    def test_pool_wraps_with_pairs_intact(self, fd7, max_iterations, count):
        pool = [-2.0 - 1.0j, -2.0 + 1.0j, -0.5, -9.0]
        res = lr_adi(LyapunovSpec(fd7, "N"),
                     AdiOptions(shifts=pool, max_iterations=max_iterations,
                                rel_tolerance=1e-300))
        assert not res.converged
        # steps take 2, 1, 1, 2, 1, 1, 2 shifts: at 9 the last pair still
        # runs whole, past the budget; each pair is recorded positive first
        step = [-2.0 + 1.0j, -2.0 - 1.0j, -0.5, -9.0]
        np.testing.assert_array_equal(res.shifts_used.values,
                                      (step * 3)[:count])
        assert len(res.residual_history) == count
        assert res.columns_history[-1] == res.z.columns == count

    @pytest.mark.parametrize("batch", [1, 3, 6])
    def test_projection_renewal(self, rng, monkeypatch, batch):
        batches, bases = [], []
        original = lrmor.lradi.projection_shifts

        def recording(ops, basis):
            out = original(ops, basis)
            batches.append(out.values)
            bases.append(basis.shape[1])
            return out

        monkeypatch.setattr(lrmor.lradi, "projection_shifts", recording)
        monkeypatch.setattr(lrmor.lradi, "_BATCH", batch)
        sys_ = complex_spectrum_system(rng)
        res = lr_adi(LyapunovSpec(sys_, "N"),
                     AdiOptions(max_iterations=40, rel_tolerance=1e-300))
        # replay: each batch serves min(len, batch) shifts, rounded up to
        # a whole pair, before the next one is made; a batch shift gives way
        # to the nearest shift of its width already taken within _REUSE of
        # its modulus; the first batch projects onto the m columns of W_0,
        # each later one onto the blocks of the last ``batch`` steps (m
        # columns per shift)
        expected, widths, taken = [], [], []
        for values, cols in zip(batches, bases):
            assert cols == sys_.b.shape[1] * sum(widths[-batch:] or [1])
            i = 0
            while i < min(len(values), batch) \
                    and len(expected) < len(res.shifts_used):
                width = 1 if values[i].imag == 0 else 2
                near = [q for q in taken if len(q) == width and abs(
                    values[i] - q[0]) <= lrmor.lradi._REUSE * abs(values[i])]
                if near:
                    pick = min(near, key=lambda q: abs(values[i] - q[0]))
                else:
                    pick = values[i:i + width]
                    taken.append(pick)
                expected.extend(pick)
                widths.append(width)
                i += width
        assert len(expected) == len(res.shifts_used) >= 40
        assert len(taken) < len(widths)  # some step took an earlier shift
        np.testing.assert_array_equal(res.shifts_used.values, expected)
        # no batch was made before the previous one was due
        served = [min(len(v), batch) for v in batches[:-1]]
        assert sum(served) < len(res.shifts_used)


class TestShiftReuse:
    """A projection shift gives way to the nearest shift its schedule has
    already yielded, if that one has the same width and lies within
    ``_REUSE`` times the new shift's modulus."""

    def test_fd60_fewer_lus_same_accuracy(self, lu_count):
        spec = LyapunovSpec(gen_fd_laplacian(60), "N")
        start = lu_count()
        res = lr_adi(spec, AdiOptions(rel_tolerance=1e-10))
        # without reuse: 28 LUs (one orders the pencil) in 27 steps
        assert lu_count() - start <= 20
        assert res.converged and len(res.shifts_used) <= 29
        assert lyap_residual(spec, res.z).relative <= 1e-10
        start = lu_count()
        rom, report = balanced_truncation(gen_fd_laplacian(60), tol=1e-4)
        # without reuse: 28 LUs, order 2, bound 9.751138151178135e-05
        assert lu_count() - start <= 20
        assert rom.order == 2
        assert report.error_bound == pytest.approx(9.751138151178135e-05,
                                                   rel=1e-9)

    @pytest.mark.parametrize("make", [
        lambda rng: gen_fd_laplacian(10),
        complex_spectrum_system,
        lambda rng: gen_thermal_block_mini(
            BenchConfig(grid_size=12)).instantiate(100.0)],
        ids=["fd10", "complex", "thermal12"])
    def test_each_shift_is_fresh_or_an_earlier_one(self, rng, monkeypatch,
                                                   make):
        fresh = []
        original = lrmor.lradi.projection_shifts

        def recording(ops, basis):
            out = original(ops, basis)
            fresh.extend(out.values)
            return out

        monkeypatch.setattr(lrmor.lradi, "projection_shifts", recording)
        res = lr_adi(LyapunovSpec(make(rng), "N"),
                     AdiOptions(max_iterations=60, rel_tolerance=1e-14))
        steps, shifts, i = [], res.shifts_used.values, 0
        while i < len(shifts):
            width = 1 if shifts[i].imag == 0 else 2
            steps.append((shifts[i], width))
            i += width
        for k, (p, width) in enumerate(steps):
            earlier = [q for q, w in steps[:k] if w == width]
            if p not in earlier:
                # a batch value no earlier shift of its width stands in for
                assert p in fresh
                assert all(abs(p - q) > lrmor.lradi._REUSE * abs(p)
                           for q in earlier)
        assert len({p for p, _ in steps}) < len(steps)
