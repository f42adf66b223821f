import dataclasses
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

import lrmor
from lrmor import (AdiOptions, BenchConfig, IrkaOptions, LowRankFactor,
                   LtiSystem, LyapunovSpec, Rom, OperatorSet, RiccatiSpec,
                   SingularOperatorError, SolverError, balanced_truncation,
                   br_transform, gen_fd_laplacian, gen_thermal_block_mini,
                   heuristic_shifts, irka, lqg_transform, lr_adi, lr_newton,
                   lyap_residual, pr_transform, project, square_root_method,
                   transfer_eval)
from lrmor import mor
from lrmor.lradi import _gramian_pair
from referees import (dense_a_eff, dense_lyap_solve, spsd_factor,
                      stability_check, transformed_residual, variant_residual)

from conftest import pair_sorted, random_stable_system, scalar_system


def assert_stacks_scalar_calls(transfer, shape):
    """``transfer`` of a 1-D array of points is the stack of its scalar
    calls, bit for bit, for complex and for real points."""
    for points in (1j * np.logspace(-2, 2, 7) + 0.5, np.array([0.0, 2.0])):
        h = transfer(points)
        assert h.shape == (len(points),) + shape
        np.testing.assert_array_equal(h, np.stack([transfer(s)
                                                   for s in points]))


def assert_fields_identical(x, y):
    """Every field of the dataclasses ``x`` and ``y`` equal bit for bit,
    nested dataclasses field by field."""
    for f in dataclasses.fields(x):
        a, b = getattr(x, f.name), getattr(y, f.name)
        if dataclasses.is_dataclass(a):
            assert_fields_identical(a, b)
        else:
            np.testing.assert_array_equal(a, b, err_msg=f.name)


def sampled_h_error(sys_, rom, omegas):
    worst = 0.0
    for w in omegas:
        h = transfer_eval(sys_, 1j * w)
        worst = max(worst, np.linalg.norm(h - rom.transfer(1j * w), 2))
    return worst


class TestTransferEval:
    def test_scalar_at_zero(self):
        np.testing.assert_allclose(transfer_eval(scalar_system(), 0.0),
                                   [[1.0]], atol=1e-14)

    def test_scalar_at_one(self):
        np.testing.assert_allclose(transfer_eval(scalar_system(), 1.0),
                                   [[0.5]], atol=1e-14)

    def test_identity_projection_reproduces(self, rng):
        sys_ = random_stable_system(rng, 6, m=2, p=2, with_e=True)
        rom = project(sys_, np.eye(6), np.eye(6))
        for s in (0.0, 1j, 2.0 + 0.5j):
            np.testing.assert_allclose(rom.transfer(s),
                                       transfer_eval(sys_, s), atol=1e-10)

    def test_splr_transfer(self, rng):
        # LtiSystem.transfer is the method form of transfer_eval, with and
        # without E and U V^T
        for with_e in (False, True):
            base = random_stable_system(rng, 8, m=2, p=2, with_e=with_e)
            sys_ = base.with_update(0.1 * rng.standard_normal((8, 1)),
                                    rng.standard_normal((8, 1)))
            dense = LtiSystem(a=dense_a_eff(sys_), b=sys_.b, c=sys_.c,
                              d=sys_.d, e=sys_.e)
            np.testing.assert_allclose(transfer_eval(sys_, 1.0 + 1.0j),
                                       transfer_eval(dense, 1.0 + 1.0j),
                                       atol=1e-10)
            for model in (base, sys_):
                np.testing.assert_array_equal(model.transfer(1.0 + 1.0j),
                                              transfer_eval(model, 1.0 + 1.0j))

    @pytest.mark.parametrize("with_e", [False, True])
    @pytest.mark.parametrize("k", [0, 2])
    def test_system_transfer_over_points_stacks_scalar_calls(self, rng,
                                                             with_e, k):
        sys_ = random_stable_system(rng, 8, m=2, p=3, with_e=with_e)
        if k:
            sys_ = sys_.with_update(0.1 * rng.standard_normal((8, k)),
                                    rng.standard_normal((8, k)))
        assert_stacks_scalar_calls(sys_.transfer, (3, 2))

    def test_rom_transfer_over_points_stacks_scalar_calls(self, rng):
        sys_ = random_stable_system(rng, 8, m=2, p=3, with_e=True)
        basis = np.linalg.qr(rng.standard_normal((8, 4)))[0]
        assert_stacks_scalar_calls(project(sys_, basis, basis).transfer,
                                   (3, 2))

    def test_order_zero_rom_transfer_over_points_is_d(self, rng):
        d = rng.standard_normal((3, 2))
        rom = Rom(e=np.zeros((0, 0)), a=np.zeros((0, 0)), b=np.zeros((0, 2)),
                  c=np.zeros((3, 0)), d=d)
        assert_stacks_scalar_calls(rom.transfer, (3, 2))
        np.testing.assert_array_equal(rom.transfer(1j * np.ones(4)),
                                      np.stack([d] * 4))

    def test_rom_with_non_finite_entry_rejected(self):
        rom = Rom(e=np.eye(2), a=np.diag([-1.0, np.nan]), b=np.ones((2, 1)),
                  c=np.ones((1, 2)), d=np.zeros((1, 1)))
        for s in (1j, 1j * np.ones(3)):
            with pytest.raises(ValueError, match="non-finite"):
                rom.transfer(s)

    def test_modules_import_without_cycle(self):
        # system imports operators at module level; operators must not
        # need system at import time, whichever is imported first
        env = {**os.environ,
               "PYTHONPATH": str(Path(lrmor.__file__).parents[1])}
        for module in ("lrmor.system", "lrmor.operators"):
            subprocess.run([sys.executable, "-c", f"import {module}"],
                           check=True, env=env)


class TestSquareRootMethod:
    def test_scalar_exact(self):
        sys_ = scalar_system()
        z = LowRankFactor([[np.sqrt(0.5)]])
        rom, rep = square_root_method(z, z, sys_, order=1)
        assert rep.singular_values[0] == pytest.approx(0.5, abs=1e-14)
        np.testing.assert_allclose(rom.transfer(1.0),
                                   transfer_eval(sys_, 1.0), atol=1e-12)

    def test_diagonal_error_bound(self):
        # dense Gramians as the factor source, dense sampling as the oracle
        sys_ = LtiSystem(a=np.diag([-1.0, -2.0]), b=[[1.0], [1.0]],
                         c=[[1.0, 1.0]])
        zp = spsd_factor(dense_lyap_solve(None, sys_.a, sys_.b))
        zq = spsd_factor(dense_lyap_solve(None, sys_.a.T, sys_.c.T))
        rom, rep = square_root_method(zp, zq, sys_, order=1)
        bound = 2.0 * rep.singular_values[1]
        err = sampled_h_error(sys_, rom, np.logspace(-3, 3, 100))
        assert err <= bound + 1e-8

    def test_tolerance_mode_can_choose_zero(self):
        sys_ = scalar_system()
        z = LowRankFactor([[np.sqrt(0.5)]])
        rom, rep = square_root_method(z, z, sys_, tol=10.0)
        assert rom.order == 0
        np.testing.assert_array_equal(rom.transfer(1.0), sys_.d)

    def test_balanced_bases(self, rng):
        sys_ = random_stable_system(rng, 20, m=2, p=2, with_e=True,
                                    symmetric=True)
        zp = lr_adi(LyapunovSpec(sys_, "N")).z
        zq = lr_adi(LyapunovSpec(sys_, "T")).z
        rom, rep = square_root_method(zp, zq, sys_, order=4)
        np.testing.assert_allclose(rom.e, np.eye(4), atol=1e-10)

    def test_rank_limited_request(self, rng):
        sys_ = random_stable_system(rng, 10, m=1, p=1, symmetric=True)
        zp = lr_adi(LyapunovSpec(sys_, "N")).z
        zq = lr_adi(LyapunovSpec(sys_, "T")).z
        rom, rep = square_root_method(zp, zq, sys_, order=50)
        assert rep.rank_limited
        assert rom.order < 50

    def test_hsv_invariant_under_state_equation_scaling(self, rng):
        sys_ = random_stable_system(rng, 12, m=2, p=2, symmetric=True)
        alpha = 7.3
        scaled = LtiSystem(a=alpha * sys_.a, b=alpha * sys_.b, c=sys_.c,
                           e=alpha * np.eye(12))
        def hsv(s):
            zp = lr_adi(LyapunovSpec(s, "N")).z
            zq = lr_adi(LyapunovSpec(s, "T")).z
            _, rep = square_root_method(zp, zq, s, order=4)
            return rep.singular_values
        h1, h2 = hsv(sys_), hsv(scaled)
        k = min(len(h1), len(h2), 6)
        np.testing.assert_allclose(h1[:k], h2[:k], rtol=1e-10)


class TestBalancedTruncation:
    def test_scalar_fixed_order(self):
        rom, _ = balanced_truncation(scalar_system(), order=1)
        np.testing.assert_allclose(rom.transfer(2.0),
                                   transfer_eval(scalar_system(), 2.0),
                                   atol=1e-12)

    def test_fd_laplacian_tolerance_mode(self, fd10):
        rom, rep = balanced_truncation(fd10, tol=1e-4)
        err = sampled_h_error(fd10, rom, np.logspace(-3, 4, 120))
        assert err <= rep.error_bound + 1e-8

    def test_fd_laplacian_fixed_order_stable(self, fd10):
        rom, _ = balanced_truncation(fd10, order=12)
        assert rom.order == 12
        stable, _ = stability_check(rom.e, rom.a)
        assert stable

    def test_fd_laplacian_order_20_hits_rank_cap(self, fd10):
        # the n=100 model has numerical Hankel rank 13, so a fixed order of
        # 20 is truncated to the rank and flagged; the ROM stays stable
        rom, rep = balanced_truncation(fd10, order=20)
        assert rep.rank_limited
        assert rom.order < 20
        stable, _ = stability_check(rom.e, rom.a)
        assert stable

    def test_error_bound_generalized_e(self, rng):
        sys_ = random_stable_system(rng, 30, m=2, p=2, with_e=True,
                                    symmetric=True)
        rom, rep = balanced_truncation(sys_, order=5)
        bound = 2.0 * rep.singular_values[5:].sum()
        err = sampled_h_error(sys_, rom, np.logspace(-3, 3, 100))
        assert err <= bound + 1e-8

    def test_error_bound_random_symmetric(self, rng):
        omegas = np.logspace(-3, 3, 200)
        for _ in range(3):
            n = int(rng.integers(20, 41))
            sys_ = random_stable_system(rng, n, m=2, p=2, symmetric=True)
            rom_full, rep = balanced_truncation(sys_, order=n)  # rank-capped
            hsv = rep.singular_values
            for r in (1, 3, 7):
                if r >= rom_full.order:
                    continue
                rom, rep_r = balanced_truncation(sys_, order=r)
                bound = 2.0 * hsv[r:].sum()
                assert sampled_h_error(sys_, rom, omegas) <= bound + 1e-8

    def test_d_copied_unchanged(self, rng):
        sys_ = random_stable_system(rng, 8, m=2, p=2, symmetric=True)
        sys_.d[:] = rng.standard_normal(sys_.d.shape)
        rom, _ = balanced_truncation(sys_, order=3)
        np.testing.assert_array_equal(rom.d, sys_.d)

    def test_rom_consistent_with_stored_bases(self, rng):
        sys_ = random_stable_system(rng, 15, m=2, p=2, with_e=True,
                                    symmetric=True)
        rom, _ = balanced_truncation(sys_, order=4)
        e, a = sys_.e.toarray(), sys_.a.toarray()
        np.testing.assert_allclose(rom.e, rom.w.T @ e @ rom.v, atol=1e-12)
        np.testing.assert_allclose(rom.a, rom.w.T @ a @ rom.v, atol=1e-12)
        np.testing.assert_allclose(rom.b, rom.w.T @ sys_.b, atol=1e-12)
        np.testing.assert_allclose(rom.c, sys_.c @ rom.v, atol=1e-12)


BT_ADI = AdiOptions(rel_tolerance=1e-10)


def thermal_sample():
    """A grid-12 thermal block at mu = 100, where Q needs shifts of its own
    after P has converged."""
    return gen_thermal_block_mini(BenchConfig(grid_size=12)).instantiate(100.0)


def fd20():
    return gen_fd_laplacian(20)


def distinct_lus(*results):
    """LUs the shifts of ``results`` need: one per real shift, one per
    conjugate pair."""
    return len({v for r in results for v in r.shifts_used.values
                if v.imag >= 0})


def q_residual(sys_, res_q):
    return lyap_residual(LyapunovSpec(sys_, "T"), res_q.z).relative


class TestGramianPair:
    """BT runs P and Q in lock-step on P's shifts, so that each LU serves
    both sides, and Q finishes on a schedule of its own."""

    @pytest.mark.parametrize("make", [fd20, thermal_sample])
    def test_p_is_lr_adi_and_q_meets_tolerance(self, make):
        sys_ = make()
        res_p, res_q = _gramian_pair(sys_, BT_ADI)
        ref = lr_adi(LyapunovSpec(make(), "N"), BT_ADI)
        assert np.array_equal(res_p.z.z, ref.z.z)
        np.testing.assert_array_equal(res_p.shifts_used.values,
                                      ref.shifts_used.values)
        assert res_q.converged
        assert q_residual(sys_, res_q) <= 1e-10

    @pytest.mark.parametrize("make", [fd20, thermal_sample])
    def test_one_lu_per_shift_serves_both_sides(self, make, lu_count):
        start = lu_count()
        balanced_truncation(make(), tol=1e-4)
        bt = lu_count() - start
        sys_ = make()
        start = lu_count()
        for side in ("N", "T"):
            lr_adi(LyapunovSpec(sys_, side), BT_ADI)
        assert bt < lu_count() - start
        # the ordering LU, P's shifts, then those of Q's own tail; none is
        # factorized twice
        assert bt == 1 + distinct_lus(*_gramian_pair(make(), BT_ADI))

    def test_zero_b_runs_q_alone_from_its_own_residual(self):
        fd = gen_fd_laplacian(10)
        sys_ = LtiSystem(a=fd.a, b=np.zeros_like(fd.b), c=fd.c)
        res_p, res_q = _gramian_pair(sys_, BT_ADI)
        assert res_p.converged and res_p.z.columns == 0
        ref = lr_adi(LyapunovSpec(sys_, "T"), BT_ADI)
        np.testing.assert_array_equal(res_q.z.z, ref.z.z)
        with pytest.raises(ValueError, match="empty Gramian factor"):
            balanced_truncation(sys_, order=2)

    def test_zero_c_leaves_q_empty(self):
        fd = gen_fd_laplacian(10)
        sys_ = LtiSystem(a=fd.a, b=fd.b, c=np.zeros_like(fd.c))
        res_p, res_q = _gramian_pair(sys_, BT_ADI)
        ref = lr_adi(LyapunovSpec(sys_, "N"), BT_ADI)
        np.testing.assert_array_equal(res_p.z.z, ref.z.z)
        assert res_q.converged and res_q.z.columns == 0

    def test_q_converged_first_stops_stepping(self):
        # Q sees only the decoupled state at -1, which P's shifts resolve
        # long before the wide rest of the spectrum
        n = 41
        c = np.zeros((1, n))
        c[0, 0] = 1.0
        sys_ = LtiSystem(a=np.diag(np.r_[-1.0, -np.logspace(0.5, 6, n - 1)]),
                         b=np.ones((n, 1)), c=c)
        res_p, res_q = _gramian_pair(sys_, BT_ADI)
        k = len(res_q.shifts_used)
        assert res_p.converged and res_q.converged
        assert k < len(res_p.shifts_used)
        np.testing.assert_array_equal(res_q.shifts_used.values,
                                      res_p.shifts_used.values[:k])
        assert q_residual(sys_, res_q) <= 1e-10

    def test_shift_pool_serves_both_sides(self, rng, lu_count):
        pool = [-30.0 + 10.0j, -30.0 - 10.0j, -80.0, -200.0, -500.0]
        opts = AdiOptions(shifts=pool, rel_tolerance=1e-10)
        fd = gen_fd_laplacian(10)
        # three outputs: Q needs more steps than P
        sys_ = LtiSystem(a=fd.a, b=fd.b, c=rng.standard_normal((3, 100)))
        start = lu_count()
        res_p, res_q = _gramian_pair(sys_, opts)
        assert lu_count() - start == 1 + 4  # the ordering LU, then the pool
        ref = lr_adi(LyapunovSpec(gen_fd_laplacian(10), "N"), opts)
        np.testing.assert_array_equal(res_p.z.z, ref.z.z)
        assert len(res_q.shifts_used) > len(res_p.shifts_used)
        assert set(res_q.shifts_used.values) <= set(np.array(pool))
        assert q_residual(sys_, res_q) <= 1e-10

    def test_p_out_of_iterations_names_controllability(self, monkeypatch):
        monkeypatch.setattr(mor, "AdiOptions",
                            functools.partial(AdiOptions, max_iterations=3))
        with pytest.raises(SolverError,
                           match="controllability Gramian ADI did not"):
            balanced_truncation(gen_fd_laplacian(10), order=2)

    def test_q_out_of_iterations_names_observability(self, monkeypatch):
        res_p, res_q = _gramian_pair(thermal_sample(), BT_ADI)
        budget = len(res_p.shifts_used)
        assert len(res_q.shifts_used) > budget
        monkeypatch.setattr(mor, "AdiOptions", functools.partial(
            AdiOptions, max_iterations=budget))
        with pytest.raises(SolverError,
                           match="observability Gramian ADI did not"):
            balanced_truncation(thermal_sample(), order=2)


class TestIrka:
    def test_scalar_exact_reproduction(self):
        res = irka(scalar_system(), 1)
        assert res.converged
        assert res.shifts[0] == pytest.approx(1.0, rel=1e-8)
        np.testing.assert_allclose(res.rom.transfer(0.5),
                                   transfer_eval(scalar_system(), 0.5),
                                   atol=1e-10)

    def test_fixed_point_and_tangential_interpolation(self, rng):
        sys_ = random_stable_system(rng, 30, m=2, p=2, symmetric=True)
        res = irka(sys_, 6)
        assert res.converged
        lam = la.eigvals(res.rom.a, res.rom.e)
        mirrored = pair_sorted(-lam)
        shifts = pair_sorted(res.shifts)
        assert np.max(np.abs(mirrored - shifts) / np.abs(shifts)) <= 1e-6
        for i, s in enumerate(res.shifts):
            h = transfer_eval(sys_, s) @ res.b_dirs[i]
            hh = res.rom.transfer(s) @ res.b_dirs[i]
            assert np.linalg.norm(h - hh) <= 1e-8 * np.linalg.norm(h)

    def test_shift_change_ignores_pair_order(self):
        # the two members of a conjugate pair must never be compared with
        # each other: that reads about 2|Im s|/|s| (1.3 here) however close
        # the iteration is to its fixed point
        res = irka(gen_fd_laplacian(10), 2)
        assert res.converged
        assert res.n_iter <= 20

    def test_interpolation_holds_without_convergence(self, rng):
        sys_ = random_stable_system(rng, 20, m=2, p=2, symmetric=True)
        res = irka(sys_, 4, IrkaOptions(max_iter=1))
        assert not res.converged
        for i, s in enumerate(res.shifts):
            h = transfer_eval(sys_, s) @ res.b_dirs[i]
            hh = res.rom.transfer(s) @ res.b_dirs[i]
            assert np.linalg.norm(h - hh) <= 1e-8 * np.linalg.norm(h)

    @pytest.mark.parametrize("opts", [{"max_iter": 0},
                                      {"shift_change_tol": 0.0},
                                      {"shift_change_tol": np.nan}])
    def test_options_reject_empty_budget_and_tolerance(self, opts):
        with pytest.raises(ValueError):
            IrkaOptions(**opts)

    @pytest.mark.parametrize("field", ["initial_shifts", "initial_b",
                                       "initial_c"])
    def test_initial_data_needs_r_rows(self, fd10, field):
        # two rows at r = 4; a bare IndexError came from the rational basis
        data = {"initial_shifts": np.array([1.0, 2.0]),
                "initial_b": np.ones((2, 1)), "initial_c": np.ones((2, 1))}
        with pytest.raises(ValueError, match="r rows"):
            irka(fd10, 4, IrkaOptions(**{field: data[field]}))

    @pytest.mark.parametrize("shifts", [[1 + 1j], [1 + 1j, 2.0, 1 - 1j],
                                        [1 + 1j, 1 + 1j]])
    def test_initial_shifts_need_adjacent_conjugate_pairs(self, fd10, shifts):
        # the rational basis takes two columns per complex shift and skips
        # the entry after it, so any other layout builds on other points
        r = len(shifts)
        opts = IrkaOptions(initial_shifts=shifts, initial_b=np.ones((r, 1)),
                           initial_c=np.ones((r, 1)))
        with pytest.raises(ValueError, match="adjacent conjugate pairs"):
            irka(fd10, r, opts)

    def test_warm_start_from_a_result(self, fd10):
        # the final shifts are a pair from la.eig, whose members need not
        # be exact conjugates
        res = irka(fd10, 2)
        again = irka(fd10, 2, IrkaOptions(initial_shifts=res.shifts,
                                          initial_b=res.b_dirs,
                                          initial_c=res.c_dirs))
        assert again.converged

    def test_rank_deficient_basis_is_padded_reproducibly(self, monkeypatch):
        # diagonal A and B = e_3: every (A - sI)^{-1} B is a multiple of e_3
        def model():
            return LtiSystem(a=sp.diags(-np.arange(1.0, 9.0)),
                             b=np.eye(8)[:, [2]], c=np.ones((1, 8)))

        ranks, orth_pad = [], mor._orth_pad

        def recording(m, r):
            ranks.append(mor.orthonormal_basis(m).shape[1])
            return orth_pad(m, r)

        monkeypatch.setattr(mor, "_orth_pad", recording)
        res = irka(model(), 2)
        assert res.converged and res.rom.order == 2
        assert ranks[::2] == [1] * res.n_iter  # V, padded at every iterate
        assert_fields_identical(irka(model(), 2).rom, res.rom)

    def test_shift_on_an_eigenvalue_is_nudged(self, monkeypatch):
        caught, shifted_solve = [], mor._shifted_solve

        def counting(*args):
            try:
                return shifted_solve(*args)
            except SingularOperatorError:
                caught.append(args[2])
                raise

        monkeypatch.setattr(mor, "_shifted_solve", counting)
        sys_ = LtiSystem(a=sp.diags(-np.arange(1.0, 9.0)), b=np.ones((8, 1)),
                         c=np.ones((1, 8)))
        # the shift -1 makes A + I singular
        res = irka(sys_, 2, IrkaOptions(initial_shifts=[-1.0, 3.0]))
        assert caught == [-1.0]
        assert res.converged

    def test_sparse_plus_low_rank_matches_formed(self, fd10, rng):
        # the update goes through Woodbury, the formed copy through one LU;
        # a tight stopping tolerance lets both runs reach the fixed point
        n = fd10.order
        u = 0.1 * rng.standard_normal((n, 2))
        v = 0.1 * rng.standard_normal((n, 2))
        updated = fd10.with_update(u, v)
        formed = LtiSystem(a=sp.csr_matrix(fd10.a.toarray() + u @ v.T),
                           b=fd10.b, c=fd10.c)

        def close(x, y):
            # entry by entry: conjugate pairs come back in a fixed order
            return x.shape == y.shape and \
                np.abs(x - y).max() <= 1e-10 * np.abs(y).max()

        opts = IrkaOptions(shift_change_tol=1e-12)
        res_u, res_f = irka(updated, 4, opts), irka(formed, 4, opts)
        assert res_u.converged and res_f.converged
        assert close(res_u.shifts, res_f.shifts)
        assert close(res_u.b_dirs, res_f.b_dirs)
        assert close(res_u.c_dirs, res_f.c_dirs)
        for w in (0.1, 1.0, 10.0, 100.0):
            h_u = res_u.rom.transfer(1j * w)
            h_f = res_f.rom.transfer(1j * w)
            assert np.linalg.norm(h_u - h_f) <= 1e-10 * np.linalg.norm(h_f)
        assert close(heuristic_shifts(OperatorSet(updated)).values,
                     heuristic_shifts(OperatorSet(formed)).values)

    def test_settled_shifts_reuse_nearby_lus(self, lu_count):
        # one conjugate pair and six real shifts: 7 LUs per iteration
        # without the refined solves
        res = irka(gen_fd_laplacian(30), 8)
        assert res.converged
        assert lu_count() < 7 * res.n_iter / 2

    def test_uncorrected_solves_fall_back_to_exact_lus(self, monkeypatch):
        monkeypatch.setattr(mor, "_NEAR_SHIFT", 0.0)
        exact = irka(gen_fd_laplacian(30), 8)
        monkeypatch.undo()
        monkeypatch.setattr(mor, "_MAX_CORRECTIONS", 0)
        capped = irka(gen_fd_laplacian(30), 8)
        assert_fields_identical(capped, exact)

    @pytest.mark.parametrize("shift", [2.0, 2.0 + 3.0j])
    def test_near_shift_solve_makes_no_lu(self, fd10, rng, lu_count, shift):
        # a pencil of its own: fd10's LU cache is shared between tests
        ops = OperatorSet(LtiSystem(a=fd10.a, b=fd10.b, c=fd10.c))
        b = rng.standard_normal(fd10.order)
        ops.sol_ape("N", -shift, "N", b)
        start = lu_count()
        near = shift * (1.0 + 1e-3)
        m = dense_a_eff(fd10) - near * fd10.dense_e()
        for tr, mat in (("N", m), ("T", m.T)):
            x = mor._shifted_solve(ops, tr, near, b)
            assert np.linalg.norm(mat @ x - b) <= 1e-12 * np.linalg.norm(b)
        assert lu_count() == start

    def test_order_validation(self):
        with pytest.raises(ValueError):
            irka(scalar_system(), 0)
        with pytest.raises(ValueError):
            irka(scalar_system(), 2)


class TestSharedModel:
    """Solvers run in turn on one model give the bits they give on a fresh
    model each: no LU of a pencil depends on the solves before it."""

    @staticmethod
    def _pipeline(model):
        lyap = lr_adi(LyapunovSpec(model(), "N"),
                      AdiOptions(rel_tolerance=1e-10))
        care = lr_newton(RiccatiSpec(model(), "T"))
        rom, _ = balanced_truncation(model(), tol=1e-4)
        ir = irka(model(), 8)
        return lyap.z.z, care.z.z, rom, ir.shifts, ir.rom

    def test_shared_model_matches_fresh_models(self):
        shared = gen_fd_laplacian(30)
        one = self._pipeline(lambda: shared)
        fresh = self._pipeline(lambda: gen_fd_laplacian(30))
        for name, x, y in zip(("lyap Z", "care Z", "BT ROM", "IRKA shifts",
                               "IRKA ROM"), one, fresh):
            if isinstance(x, Rom):
                assert_fields_identical(x, y)
            else:
                assert np.array_equal(x, y), name


class TestOneSidedStability:
    def test_symmetric_system_stays_stable(self, rng):
        # field-of-values argument: V^T A V stays negative definite
        n = 25
        m_ = rng.standard_normal((n, n))
        a = -(m_ @ m_.T) / n - np.eye(n)
        f = rng.standard_normal((n, n)) / np.sqrt(n)
        e = f @ f.T + np.eye(n)
        sys_ = LtiSystem(a=a, b=rng.standard_normal((n, 1)),
                         c=rng.standard_normal((1, n)), e=e)
        v = la.qr(rng.standard_normal((n, 5)), mode="economic")[0]
        rom = project(sys_, v, v)
        stable, _ = stability_check(rom.e, rom.a)
        assert stable


class TestBalancingTransforms:
    def test_pr_scaled_identity(self, rng):
        sys_ = random_stable_system(rng, 6, m=2, p=2)
        sys_.d[:] = np.eye(2)  # D + D^T = 2I
        tr = pr_transform(sys_)
        np.testing.assert_allclose(tr.r_factor, np.sqrt(2) * np.eye(2),
                                   atol=1e-14)
        np.testing.assert_allclose(tr.system.b, sys_.b / np.sqrt(2),
                                   atol=1e-14)
        np.testing.assert_allclose(tr.system.c, sys_.c / np.sqrt(2),
                                   atol=1e-14)

    def test_pr_rejects_degenerate_d(self, rng):
        sys_ = random_stable_system(rng, 4, m=2, p=2)
        sys_.d[:] = np.array([[0.0, 1.0], [-1.0, 0.0]])  # D + D^T = 0
        with pytest.raises(ValueError, match="positive definite"):
            pr_transform(sys_)

    def test_pr_rejects_rectangular_d(self, rng):
        sys_ = random_stable_system(rng, 4, m=2, p=1)
        with pytest.raises(ValueError, match="square"):
            pr_transform(sys_)

    def test_br_zero_feedthrough(self, rng):
        sys_ = random_stable_system(rng, 5, m=2, p=2)
        tr = br_transform(sys_)
        np.testing.assert_allclose(tr.r_factor, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(tr.l_factor, np.eye(2), atol=1e-14)
        np.testing.assert_array_equal(tr.system.u, np.zeros((5, 2)))
        np.testing.assert_allclose(tr.system.b, sys_.b, atol=1e-14)
        np.testing.assert_allclose(tr.system.c, sys_.c, atol=1e-14)

    def test_br_rejects_large_d(self, rng):
        sys_ = random_stable_system(rng, 4, m=1, p=1)
        sys_.d[:] = 1.5
        with pytest.raises(ValueError, match="positive definite"):
            br_transform(sys_)

    def test_lqg_scalar_fields(self):
        sys_ = scalar_system(d=1.0)
        tr = lqg_transform(sys_)
        assert tr.r_factor[0, 0] == pytest.approx(np.sqrt(2))
        assert tr.l_factor[0, 0] == pytest.approx(np.sqrt(2))
        assert tr.system.b[0, 0] == pytest.approx(1 / np.sqrt(2))
        assert tr.system.c[0, 0] == pytest.approx(1 / np.sqrt(2))
        assert tr.system.u[0, 0] == pytest.approx(-1.0)
        assert tr.system.v[0, 0] == pytest.approx(0.5)

    @pytest.mark.parametrize("variant,builder", [
        ("positive_real", pr_transform),
        ("bounded_real", br_transform),
        ("lqg", lqg_transform),
    ])
    @pytest.mark.parametrize("side", ["N", "T"])
    def test_residual_operator_equivalence(self, rng, variant, builder,
                                           side):
        for _ in range(5):
            n, m = int(rng.integers(3, 13)), int(rng.integers(1, 4))
            sys_ = random_stable_system(rng, n, m=m, p=m, with_e=True)
            if variant == "positive_real":
                d0 = rng.standard_normal((m, m))
                sys_.d[:] = d0 @ d0.T + (m + 1) * np.eye(m) \
                    + 0.2 * rng.standard_normal((m, m))
            elif variant == "bounded_real":
                d0 = rng.standard_normal((m, m))
                sys_.d[:] = 0.5 * d0 / max(1.0, np.linalg.norm(d0, 2))
            else:
                sys_.d[:] = rng.standard_normal((m, m))
            tr = builder(sys_)
            x = rng.standard_normal((n, n))
            x = (x + x.T) / 2.0
            r_orig = variant_residual(sys_, variant, x, side)
            r_tilde = transformed_residual(tr, x, side)
            scale = max(np.abs(r_orig).max(), 1.0)
            assert np.abs(r_orig - r_tilde).max() <= 1e-12 * scale

    def test_lqg_zero_d_solves_like_plain(self, rng):
        sys_ = random_stable_system(rng, 10, m=2, p=2, symmetric=True)
        tr = lqg_transform(sys_)
        res_plain = lr_newton(RiccatiSpec(sys_, "T"))
        res_tilde = lr_newton(RiccatiSpec(tr.system, "T"))
        assert res_plain.converged and res_tilde.converged
        np.testing.assert_allclose(res_tilde.z.dense(), res_plain.z.dense(),
                                   atol=1e-8)
