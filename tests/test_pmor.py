import sys
import threading

import numpy as np
import pytest

from lrmor import (BenchConfig, ParametricSystem, Rom, SolverError,
                   TrainingSet, bspline2_coefficients, chebyshev_samples,
                   gen_thermal_block_mini, interpolatory_assemble,
                   lagrange_coefficients, log_samples, piecewise_assemble,
                   train, transfer_eval)
from referees import stability_check


@pytest.fixture(scope="module")
def thermal12():
    return gen_thermal_block_mini(BenchConfig(grid_size=12))


@pytest.fixture(scope="module")
def ts_bt(thermal12):
    mus = log_samples(*thermal12.domain, 5)
    return train(thermal12, mus, "bt-tol", tol=1e-4)


def scalar_psys():
    return ParametricSystem([[0.0]], [[-1.0]], [[1.0]], [[1.0]],
                            domain=(1e-2, 1e2))


def constant_psys(sys_):
    return ParametricSystem(sys_.a, 0 * sys_.a, sys_.b, sys_.c,
                            domain=(1e-2, 1e2))


class TestParametricSystem:
    def test_a1_must_match_a0(self):
        with pytest.raises(ValueError, match="A1"):
            ParametricSystem(np.eye(2), np.eye(3), [[1.0], [0.0]],
                             [[1.0, 0.0]], domain=(1e-2, 1e2))

    @pytest.mark.parametrize("s", [2j, 1j * np.logspace(-2, 2, 5)],
                             ids=["point", "vector"])
    def test_transfer_is_instantiate_then_transfer(self, thermal12, s):
        np.testing.assert_array_equal(thermal12.transfer(0.3, s),
                                      thermal12.instantiate(0.3).transfer(s))


class TestSampling:
    def test_log_samples_constant_ratio(self):
        mus = log_samples(1e-6, 1e2, 10)
        ratios = mus[1:] / mus[:-1]
        assert np.abs(ratios / ratios[0] - 1.0).max() <= 1e-12

    def test_chebyshev_samples(self):
        mus = chebyshev_samples(1e-6, 1e2, 10)
        assert len(mus) == 10
        assert (np.diff(mus) > 0).all()
        assert mus[0] >= 1e-6 and mus[-1] <= 1e2


class TestTrain:
    def test_single_sample(self, thermal12):
        ts = train(thermal12, [1.0], "bt-tol", tol=1e-4)
        assert len(ts.roms) == 1
        assert ts.local_orders[0] >= 1

    def test_bt_orders_recorded(self, ts_bt):
        assert len(ts_bt.local_orders) == 5
        assert all(r >= 1 for r in ts_bt.local_orders)

    def test_irka_fixed_orders(self, thermal12):
        ts = train(thermal12, log_samples(*thermal12.domain, 3), "irka",
                   order=6)
        assert ts.local_orders == [6, 6, 6]

    def test_unknown_method(self, thermal12):
        with pytest.raises(ValueError, match="method"):
            train(thermal12, [1.0], "pod")

    def test_samples_must_increase(self, thermal12):
        ts = train(thermal12, [1.0], "bt-tol")
        with pytest.raises(ValueError, match="strictly increasing"):
            TrainingSet(thermal12, [1.0, 1.0], ts.roms * 2, ts.infos * 2)

    def test_lengths_must_match(self, thermal12):
        # interpolatory_assemble would zip 3 coefficients with 2 blocks
        ts = train(thermal12, [1.0, 2.0], "bt-tol")
        with pytest.raises(ValueError, match="one ROM and one info"):
            TrainingSet(thermal12, [0.5, 1.0, 2.0], ts.roms, ts.infos)

    def test_samples_must_lie_in_domain(self, thermal12):
        # a ROM built from this set would refuse its own nodes
        ts = train(thermal12, [1.0, 2.0], "bt-tol")
        with pytest.raises(ValueError, match="1000.0 outside domain"):
            TrainingSet(thermal12, [1e3, 1e4], ts.roms, ts.infos)

    def test_failure_reports_sample_index(self):
        bad = ParametricSystem([[1.0]], [[0.0]], [[1.0]], [[1.0]],
                               domain=(1e-2, 1e2))  # unstable
        with pytest.raises(SolverError, match="sample 0"):
            train(bad, [1.0], "bt-tol")


class TestPiecewise:
    def test_single_sample_reproduces_local(self, thermal12):
        ts = train(thermal12, [1.0], "bt-tol", tol=1e-4)
        prom = piecewise_assemble(ts)
        local = ts.roms[0]
        for w in (1e-2, 1.0, 1e3):
            np.testing.assert_allclose(prom.transfer(1.0, 1j * w),
                                       local.transfer(1j * w), atol=1e-9)

    def test_scalar_piecewise_exact(self):
        psys = scalar_psys()
        ts = train(psys, [1.0], "bt-fixed", order=1)
        prom = piecewise_assemble(ts)
        for mu in (0.1, 1.0, 50.0):
            np.testing.assert_allclose(
                prom.transfer(mu, 1j),
                transfer_eval(psys.instantiate(mu), 1j), atol=1e-12)

    def test_duplicate_basis_rank_unchanged(self, thermal12, ts_bt):
        single = train(thermal12, [1.0], "bt-tol", tol=1e-4)
        doubled = TrainingSet(thermal12, np.array([0.5, 1.0]),
                              [single.roms[0], single.roms[0]],
                              [single.infos[0], single.infos[0]])
        prom_1 = piecewise_assemble(single, truncation_tol=1e-10)
        prom_2 = piecewise_assemble(doubled, truncation_tol=1e-10)
        assert prom_1.order == prom_2.order

    def test_two_sided_error_at_training_points(self, thermal12, ts_bt):
        prom = piecewise_assemble(ts_bt)  # machine-eps truncation
        omegas = np.logspace(-3, 3, 12)
        for i, mu in enumerate(ts_bt.samples):
            bound = ts_bt.infos[i].error_bound
            local = ts_bt.roms[i]
            for w in omegas:
                diff = np.linalg.norm(
                    prom.transfer(mu, 1j * w) - local.transfer(1j * w), 2)
                assert diff <= bound + 1e-8

    def test_one_sided_stability(self, thermal12, ts_bt, rng):
        prom = piecewise_assemble(ts_bt, one_sided=True)
        for mu in 10.0 ** rng.uniform(-6, 2, 20):
            rom = prom.instantiate(mu)
            stable, _ = stability_check(rom.e, rom.a)
            assert stable

    def test_orthonormal_bases(self, ts_bt):
        prom = piecewise_assemble(ts_bt, one_sided=True)
        gram = prom.v.T @ prom.v
        assert np.abs(gram - np.eye(prom.order)).max() <= 1e-12

    def test_truncation_reduces_order(self, ts_bt):
        loose = piecewise_assemble(ts_bt, truncation_tol=1e-2)
        tight = piecewise_assemble(ts_bt)
        assert loose.order <= tight.order
        assert tight.concatenated_columns == sum(ts_bt.local_orders)

    def test_parameter_outside_domain(self, ts_bt):
        # the interpolant would extrapolate its coefficients without a word
        for rom in (piecewise_assemble(ts_bt), interpolatory_assemble(ts_bt)):
            for mu in (1e3, 1e5, 1e-9):
                with pytest.raises(ValueError, match="outside domain"):
                    rom.transfer(mu, 1j)


class TestTransferOverPoints:
    """transfer(mu, points) is the stack of the scalar calls, bit for bit."""

    @pytest.mark.parametrize("assemble", [
        piecewise_assemble,
        lambda ts: interpolatory_assemble(ts, "lagrange"),
        lambda ts: interpolatory_assemble(ts, "bspline2")],
        ids=["piecewise", "lagrange", "bspline2"])
    def test_stacks_scalar_calls(self, ts_bt, assemble):
        prom = assemble(ts_bt)
        points = 1j * np.logspace(-3, 3, 9)
        for mu in (2e-6, 0.3, 50.0):
            h = prom.transfer(mu, points)
            assert h.shape == (len(points),) + prom.transfer(mu, 1j).shape
            np.testing.assert_array_equal(
                h, np.stack([prom.transfer(mu, s) for s in points]))


    @pytest.mark.parametrize("kind", ["lagrange", "bspline2"])
    def test_interpolatory_shared_solve_is_a_fresh_one(self, ts_bt, kind):
        # every instantiation reads the interpolant's kept solve; its values
        # are those of a plain Rom on the same matrices, which solves anew
        prom = interpolatory_assemble(ts_bt, kind)
        points = 1j * np.logspace(-3, 3, 9)
        for mu in (2e-6, 0.3, 50.0):
            for s in (points, points[4]):
                blend = prom.instantiate(mu)
                plain = Rom(e=blend.e, a=blend.a, b=blend.b, c=blend.c,
                            d=blend.d)
                np.testing.assert_array_equal(blend.transfer(s),
                                              plain.transfer(s))

    def test_interpolatory_memo_under_thread_contention(self, ts_bt):
        # eight threads share one interpolant and cycle three points
        # vectors, so its one kept solve changes hands constantly; a row
        # built on another vector's solve would break the equality
        prom = interpolatory_assemble(ts_bt, "lagrange")
        vectors = [1j * np.logspace(-3, 3, 5 + k) for k in range(3)]
        mus = (2e-6, 0.3, 50.0)
        expected = {(i, j): Rom(**{f: getattr(prom.instantiate(mu), f)
                                   for f in "eabcd"}).transfer(points)
                    for i, mu in enumerate(mus)
                    for j, points in enumerate(vectors)}
        failures = []

        def work(t):
            for k in range(60):
                i, j = (t + k) % 3, (t + 2 * k) % 3
                h = prom.transfer(mus[i], vectors[j])
                if not np.array_equal(h, expected[i, j]):
                    failures.append((t, k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,))
                       for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestCoefficients:
    def test_lagrange_cardinality(self):
        nodes = np.array([-2.0, 0.0, 1.0, 3.0])
        for i, x in enumerate(nodes):
            ell = lagrange_coefficients(nodes, x)
            expect = np.zeros(4)
            expect[i] = 1.0
            np.testing.assert_allclose(ell, expect, atol=1e-12)

    def test_bspline_partition_of_unity(self, rng):
        nodes = np.sort(rng.uniform(-3, 3, 7))
        for x in rng.uniform(-3, 3, 50):
            ell = bspline2_coefficients(nodes, x)
            assert (ell >= -1e-15).all() and (ell <= 1 + 1e-15).all()
            assert abs(ell.sum() - 1.0) <= 1e-12

    def test_bspline_clamped_outside(self):
        nodes = np.array([0.0, 1.0, 2.0])
        assert bspline2_coefficients(nodes, -5.0)[0] == 1.0
        assert bspline2_coefficients(nodes, 9.0)[-1] == 1.0


class TestInterpolatory:
    def test_lagrange_node_reproduction(self, thermal12):
        mus = chebyshev_samples(*thermal12.domain, 5)
        ts = train(thermal12, mus, "bt-tol", tol=1e-4)
        prom = interpolatory_assemble(ts, "lagrange")
        for i, mu in enumerate(mus):
            for w in np.logspace(-3, 3, 10):
                np.testing.assert_allclose(
                    prom.transfer(mu, 1j * w),
                    ts.roms[i].transfer(1j * w), atol=1e-12)

    def test_parameter_independent_system(self, rng):
        from conftest import random_stable_system
        sys_ = random_stable_system(rng, 10, m=2, p=2, symmetric=True)
        psys = constant_psys(sys_)
        mus = chebyshev_samples(*psys.domain, 4)
        ts = train(psys, mus, "bt-fixed", order=4)
        for kind in ("lagrange", "bspline2"):
            prom = interpolatory_assemble(ts, kind)
            for mu in (0.05, 0.7, 30.0):
                np.testing.assert_allclose(
                    prom.transfer(mu, 2j), ts.roms[0].transfer(2j),
                    atol=1e-9)

    def test_coefficients_outside_domain(self, ts_bt):
        prom = interpolatory_assemble(ts_bt, "bspline2")
        for mu in (1e3, 1e4, 1e-9):
            with pytest.raises(ValueError, match="outside domain"):
                prom.coefficients(mu)

    def test_order_is_sum_of_locals(self, ts_bt):
        prom = interpolatory_assemble(ts_bt, "lagrange")
        assert prom.order == sum(ts_bt.local_orders)

    def test_bspline_needs_three_nodes(self, thermal12):
        ts = train(thermal12, log_samples(*thermal12.domain, 2), "bt-tol",
                   tol=1e-4)
        with pytest.raises(ValueError, match="at least 3"):
            interpolatory_assemble(ts, "bspline2")

    def test_near_coincident_nodes_rejected(self, thermal12):
        ts = train(thermal12, [1.0, 2.0], "bt-tol", tol=1e-4)
        ts.samples = np.array([1.0, 1.0 + 1e-15])
        with pytest.raises(ValueError, match="coincident"):
            interpolatory_assemble(ts, "lagrange")

    def test_unknown_basis(self, ts_bt):
        with pytest.raises(ValueError, match="basis"):
            interpolatory_assemble(ts_bt, "sinc")

    def test_blended_d_terms(self, rng):
        from conftest import random_stable_system
        sys_ = random_stable_system(rng, 8, m=2, p=2, symmetric=True)
        sys_.d[:] = rng.standard_normal(sys_.d.shape)
        psys = ParametricSystem(sys_.a, 0 * sys_.a, sys_.b, sys_.c,
                                domain=(1e-2, 1e2), d=sys_.d)
        ts = train(psys, chebyshev_samples(1e-2, 1e2, 3), "bt-fixed",
                   order=3)
        prom = interpolatory_assemble(ts, "lagrange")
        h = prom.transfer(1.0, 1j * 1e6)  # ~ D at high frequency
        np.testing.assert_allclose(h, sys_.d, atol=1e-3)
