import gc
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from lrmor import (BenchConfig, LtiSystem, ParametricSystem, PiecewiseRom,
                   SingularOperatorError, gen_fd_laplacian,
                   gen_thermal_block_mini, interpolatory_assemble,
                   load_system, log_samples, piecewise_assemble, project,
                   read_dense, read_grid_csv, read_matrix, sigma_error_grid,
                   sigma_grid, train, write_grid_csv, write_matrix)
import lrmor.operators
import lrmor.sgrid
from lrmor.sgrid import SigmaGrid

from conftest import scalar_system

def per_cell_values(cell, objs, mus, omegas):
    """The sweep as one scalar ``transfer`` per cell: ``cell(models, s)``
    with ``models`` the ``objs`` at the row's mu, NaN where it raises."""
    values = np.empty((len(mus), len(omegas)))
    for i, mu in enumerate(mus):
        models = [obj.instantiate(mu) if hasattr(obj, "instantiate") else obj
                  for obj in objs]
        for j, om in enumerate(omegas):
            try:
                values[i, j] = cell(models, 1j * om)
            except (SingularOperatorError, np.linalg.LinAlgError):
                values[i, j] = np.nan
    return values


def sigma_cell(models, s):
    return np.linalg.norm(models[0].transfer(s), 2)


def error_cell(models, s):
    h = models[0].transfer(s)
    return np.linalg.norm(h - models[1].transfer(s), 2) / np.linalg.norm(h, 2)


class TestSigmaGrid:
    def test_scalar_values(self):
        grid = sigma_grid(scalar_system(), omegas=[0.0, 1.0])
        np.testing.assert_array_equal(grid.mus, [0.0])  # non-parametric
        assert grid.values.shape == (1, 2)
        np.testing.assert_allclose(grid.values[0],
                                   [1.0, 1.0 / np.sqrt(2)], atol=1e-12)

    def test_identity_rom_zero_error(self, rng):
        from conftest import random_stable_system
        sys_ = random_stable_system(rng, 6, m=2, p=2)
        rom = project(sys_, np.eye(6), np.eye(6))
        grid = sigma_error_grid(sys_, rom, omegas=np.logspace(-1, 1, 5))
        assert np.nanmax(grid.values) <= 1e-12

    def test_thermal_block_grid_finite(self):
        cfg = BenchConfig(grid_size=8, samples_per_axis=20)
        psys = gen_thermal_block_mini(cfg)
        grid = sigma_grid(psys, cfg)
        assert grid.values.shape == (20, 20)
        assert np.isfinite(grid.values).all()
        assert (grid.values > 0).all()

    def test_log_spacing_constant_ratio(self):
        cfg = BenchConfig(grid_size=8, samples_per_axis=40)
        psys = ParametricSystem([[0.0]], [[-1.0]], [[1.0]], [[1.0]],
                                domain=cfg.mu_range)
        grid = sigma_grid(psys, cfg)
        for samples, (lo, hi) in ((grid.mus, cfg.mu_range),
                                  (grid.omegas, cfg.omega_range)):
            assert len(samples) == 40
            np.testing.assert_allclose(samples[[0, -1]], [lo, hi], rtol=1e-12)
            ratios = samples[1:] / samples[:-1]
            assert np.abs(ratios / ratios[0] - 1.0).max() <= 1e-12

    def test_singular_point_becomes_nan(self):
        # purely imaginary eigenvalues +-i: the sweep hits them at omega=1
        sys_ = LtiSystem(a=[[0.0, 1.0], [-1.0, 0.0]], b=[[1.0], [0.0]],
                         c=[[0.0, 1.0]])
        grid = sigma_grid(sys_, omegas=[0.5, 1.0, 2.0])
        assert np.isfinite(grid.values[0, 0])
        assert np.isnan(grid.values[0, 1])
        assert np.isfinite(grid.values[0, 2])

    def test_singular_rom_cell_is_nan_and_its_row_kept(self):
        # the pencil of test_singular_point_becomes_nan as a dense ROM
        full = LtiSystem(a=[[0.0, 1.0], [-1.0, 0.0]], b=[[1.0], [0.0]],
                         c=[[0.0, 1.0]])
        rom = project(full, np.eye(2), np.eye(2))
        omegas = [0.5, 1.0, 2.0, 3.0]
        grid = sigma_grid(rom, omegas=omegas)
        np.testing.assert_array_equal(np.isnan(grid.values),
                                      [[False, True, False, False]])
        for j in (0, 2, 3):
            assert grid.values[0, j] == np.linalg.norm(
                rom.transfer(1j * omegas[j]), 2)
        np.testing.assert_array_equal(
            sigma_error_grid(full, rom, omegas=omegas).values,
            per_cell_values(error_cell, [full, rom], [0.0], omegas))

    def test_singular_cells_of_parametric_rom_rows_are_nan(self):
        prom = PiecewiseRom(singular_psys(), np.eye(2), np.eye(2), 0.0, 2)
        mus, omegas = [1.0, 2.0], [0.5, 1.0, 2.0, 3.0]
        grid = sigma_grid(prom, mus=mus, omegas=omegas)
        expected = np.zeros((2, 4), dtype=bool)
        expected[0, 1] = expected[1, 2] = True
        np.testing.assert_array_equal(np.isnan(grid.values), expected)
        for i, j in zip(*np.nonzero(~expected)):
            assert grid.values[i, j] == np.linalg.norm(
                prom.transfer(mus[i], 1j * omegas[j]), 2)

    def test_singular_cell_of_parametric_system_is_nan(self):
        # the cells at omega = mu are singular; the low frequencies of a
        # row come from moments
        mus, omegas = [1.0, 2.0, 3.0], [1e-3, 1e-2, 0.5, 1.0, 2.0, 3.0]
        grid = sigma_grid(singular_psys(), mus=mus, omegas=omegas)
        np.testing.assert_array_equal(np.isnan(grid.values),
                                      np.equal.outer(mus, omegas))

    def test_full_order_cells_match_dense_solves(self):
        psys = gen_thermal_block_mini(BenchConfig(grid_size=16))
        mus, omegas = np.logspace(-6, 2, 8), np.logspace(-4, 4, 40)
        grid = sigma_grid(psys, mus=mus, omegas=omegas)
        for i, mu in enumerate(mus):
            sys_ = psys.instantiate(mu)
            a, e = sys_.a.toarray(), sys_.dense_e()
            ref = [np.linalg.norm(sys_.c @ np.linalg.solve(
                1j * w * e - a, sys_.b) + sys_.d, 2) for w in omegas]
            np.testing.assert_allclose(grid.values[i], ref, rtol=1e-10)

    def test_no_frequencies_give_empty_rows(self, rng, lu_count):
        from conftest import random_stable_system
        sys_ = random_stable_system(rng, 4, m=2, p=2)
        rom = project(sys_, np.eye(4)[:, :2], np.eye(4)[:, :2])
        assert sigma_grid(sys_, omegas=[]).values.shape == (1, 0)
        assert sigma_error_grid(sys_, rom, mus=[0.0, 1.0],
                                omegas=[]).values.shape == (2, 0)
        assert lu_count() == 0

    def test_parametric_input_needs_mus(self):
        psys = gen_thermal_block_mini(BenchConfig(grid_size=8))
        with pytest.raises(ValueError, match="parametric"):
            sigma_grid(psys, omegas=[1.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            SigmaGrid([1.0], [1.0, 2.0], np.zeros((2, 2)))


class TestParametricRomSweeps:
    """Each sweep cell equals the ROM's own transfer(mu, s), bit for bit."""

    @pytest.fixture(scope="class")
    def training(self):
        psys = gen_thermal_block_mini(BenchConfig(grid_size=12))
        return train(psys, log_samples(*psys.domain, 4), "bt-tol", tol=1e-4)

    @pytest.mark.parametrize("assemble", [
        lambda ts: piecewise_assemble(ts, one_sided=True),
        interpolatory_assemble], ids=["piecewise", "interpolatory"])
    def test_cells_match_transfer(self, training, assemble):
        model = assemble(training)
        mus, omegas = np.logspace(-5, 1, 4), np.logspace(-3, 3, 4)
        grid = sigma_grid(model, mus=mus, omegas=omegas)
        expected = [[np.linalg.norm(model.transfer(mu, 1j * w), 2)
                     for w in omegas] for mu in mus]
        np.testing.assert_array_equal(grid.values, expected)

    @pytest.mark.parametrize("kind", ["full", "piecewise", "two-sided",
                                      "lagrange", "bspline2"])
    def test_grids_match_per_cell_loop(self, training, kind):
        psys = training.psys
        model = {"full": lambda: psys,
                 "piecewise": lambda: piecewise_assemble(training,
                                                         one_sided=True),
                 "two-sided": lambda: piecewise_assemble(training),
                 "lagrange": lambda: interpolatory_assemble(training),
                 "bspline2": lambda: interpolatory_assemble(
                     training, "bspline2")}[kind]()
        mus, omegas = np.logspace(-6, 2, 4), np.logspace(-4, 4, 6)
        # a full-order row serves its low frequencies from moments, which
        # round differently from a scalar call's own LU; a ROM's do not
        match = (np.testing.assert_array_equal if kind != "full" else
                 lambda a, b: np.testing.assert_allclose(a, b, rtol=1e-12))
        match(sigma_grid(model, mus=mus, omegas=omegas).values,
              per_cell_values(sigma_cell, [model], mus, omegas))
        # error cells are relative deviations: compared absolutely
        np.testing.assert_allclose(
            sigma_error_grid(psys, model, mus=mus, omegas=omegas).values,
            per_cell_values(error_cell, [psys, model], mus, omegas),
            rtol=1e-12, atol=1e-12)


def singular_psys():
    """Eigenvalues +-i*mu: singular at omega = mu."""
    return ParametricSystem([[0.0, 0.0], [0.0, 0.0]],
                            [[0.0, 1.0], [-1.0, 0.0]], [[1.0], [0.0]],
                            [[0.0, 1.0]], domain=(0.5, 4.0))


def os_threads():
    """The ids of this process's OS threads (BLAS may run some of its own)."""
    return set(os.listdir("/proc/self/task"))


class RecordingModel:
    """A parametric duck model that records the thread of every call and
    raises ``error`` from the transfer of row ``bad_mu``."""

    def __init__(self, bad_mu=None, error=None):
        self.bad_mu, self.error = bad_mu, error
        self.instantiated, self.transferred = [], []

    def instantiate(self, mu):
        self.instantiated.append((mu, threading.get_ident()))
        return _RecordingRow(self, mu)


class _RecordingRow:
    def __init__(self, owner, mu):
        self.owner, self.mu = owner, mu

    def transfer(self, s):
        self.owner.transferred.append((self.mu, threading.get_ident()))
        if self.mu == self.owner.bad_mu:
            raise self.owner.error
        return np.full((np.size(s), 1, 1), self.mu)


class TestParallelSweep:
    """Rows on worker threads give the serial sweep's grid bit for bit."""

    @pytest.fixture(scope="class")
    def training(self):
        psys = gen_thermal_block_mini(BenchConfig(grid_size=12))
        return train(psys, log_samples(*psys.domain, 4), "bt-tol", tol=1e-4)

    @pytest.fixture(params=["full16", "shared-pencil", "piecewise",
                            "interpolatory", "error-grid", "singular"])
    def sweep(self, request, training):
        """A callable that runs the case's sweep on a fresh model."""
        mus, omegas = np.logspace(-6, 2, 5), np.logspace(-4, 4, 6)
        return {
            "full16": lambda: sigma_grid(
                gen_thermal_block_mini(BenchConfig(grid_size=16)),
                mus=mus, omegas=omegas),
            "shared-pencil": lambda: sigma_grid(
                gen_fd_laplacian(10), mus=[0.0, 1.0, 2.0, 3.0],
                omegas=[0.5]),
            "piecewise": lambda: sigma_grid(
                piecewise_assemble(training), mus=mus, omegas=omegas),
            "interpolatory": lambda: sigma_grid(
                interpolatory_assemble(training, "bspline2"), mus=mus,
                omegas=omegas),
            "error-grid": lambda: sigma_error_grid(
                training.psys, piecewise_assemble(training, one_sided=True),
                mus=mus, omegas=omegas),
            "singular": lambda: sigma_grid(
                singular_psys(), mus=[1.0, 2.0, 3.0],
                omegas=[0.5, 1.0, 2.0, 3.0]),
        }[request.param]

    def test_parallel_equals_serial(self, sweep, monkeypatch):
        monkeypatch.setattr(lrmor.sgrid, "_cpus", lambda: 1)
        serial = sweep().values
        monkeypatch.setattr(lrmor.sgrid, "_cpus", lambda: 2)
        parallel = sweep().values
        np.testing.assert_array_equal(parallel, serial)
        # only the singular case, the one 3 x 4 grid, has NaN cells
        assert np.isnan(serial).any() == (serial.shape == (3, 4))

    def test_interpolatory_sweep_solves_once_per_point(self, training,
                                                       monkeypatch):
        # the block pencil does not depend on mu: a k x k grid makes one
        # dense LU per point, not per cell, with one worker and with two
        calls = []
        original = lrmor.mor.la.get_lapack_funcs

        def counting(names, arrays=()):
            getrf, getrs = original(names, arrays)

            def counted(*args, **kwargs):
                calls.append(None)
                return getrf(*args, **kwargs)

            counted.dtype = getrf.dtype
            return counted, getrs

        monkeypatch.setattr(lrmor.mor.la, "get_lapack_funcs", counting)
        k = 6
        mus, omegas = np.logspace(-6, 2, k), np.logspace(-4, 4, k)
        grids = []
        for cpus in (1, 2):
            monkeypatch.setattr(lrmor.sgrid, "_cpus", lambda c=cpus: c)
            del calls[:]
            grids.append(sigma_grid(interpolatory_assemble(training),
                                    mus=mus, omegas=omegas).values)
            assert len(calls) == k
        np.testing.assert_array_equal(grids[0], grids[1])

    def test_instantiate_in_caller_transfer_on_workers(self, monkeypatch):
        monkeypatch.setattr(lrmor.sgrid, "_cpus", lambda: 2)
        model, mus = RecordingModel(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        grid = sigma_grid(model, mus=mus, omegas=[1.0, 2.0])
        np.testing.assert_array_equal(grid.values, np.outer(mus, [1, 1]))
        caller = threading.get_ident()
        assert model.instantiated == [(mu, caller) for mu in mus]
        assert {t for _, t in model.transferred[1:]} - {caller}

    def test_one_worker_starts_no_thread(self, monkeypatch):
        def no_thread(self):
            raise AssertionError("the sweep started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        monkeypatch.setattr(lrmor.sgrid, "_cpus", lambda: 1)
        assert sigma_grid(RecordingModel(), mus=[1.0, 2.0, 3.0],
                          omegas=[1.0]).values.shape == (3, 1)
        monkeypatch.setattr(lrmor.sgrid, "_cpus", lambda: 2)
        assert sigma_grid(RecordingModel(), mus=[1.0],
                          omegas=[1.0]).values.shape == (1, 1)

    def test_every_lu_dies_on_its_makers_thread(self, lu_threads,
                                                monkeypatch):
        # SuperLU frees an LU's memory only on the thread that made it: 30
        # LUs of FD n = 10^4 made on a worker and dropped on the main
        # thread kept about 120 MB
        monkeypatch.setattr(lrmor.sgrid, "_cpus", lambda: 2)
        mus, omegas = np.logspace(-6, 2, 6), np.logspace(-4, 4, 4)
        sigma_grid(gen_thermal_block_mini(BenchConfig(grid_size=12)),
                   mus=mus, omegas=omegas)
        sigma_grid(gen_fd_laplacian(10), mus=mus, omegas=omegas)
        gc.collect()
        assert len(lu_threads) >= 2 * len(mus)  # one per row at least
        assert threading.main_thread() not in {t for t, _ in lu_threads}
        assert all(freer is maker for maker, freer in lu_threads)

    def test_lu_dropped_on_another_thread_is_flagged(self, lu_threads, fd7):
        with ThreadPoolExecutor(1) as pool:
            lu = pool.submit(lrmor.operators.splu,
                             fd7.a.tocsc()).result(timeout=60)
        del lu
        [(maker, freer)] = lu_threads
        assert freer is threading.main_thread() and maker is not freer

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc/self/task")
    def test_no_thread_outlives_a_sweep(self, monkeypatch):
        # a joined pool thread can linger in the OS for a few ms; a plain
        # pool leaves one behind after a few percent of such sweeps
        monkeypatch.setattr(lrmor.sgrid, "_cpus", lambda: 2)
        before = os_threads()
        model = scalar_system()
        lingering = 0
        for _ in range(300):
            sigma_grid(model, mus=[0.0, 1.0, 2.0], omegas=[1.0])
            lingering += os_threads() != before
        assert lingering == 0

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc/self/task")
    def test_row_error_propagates_and_leaves_no_thread(self, monkeypatch):
        monkeypatch.setattr(lrmor.sgrid, "_cpus", lambda: 2)
        before = os_threads()
        error = ValueError("bad row")
        model = RecordingModel(bad_mu=3.0, error=error)
        with pytest.raises(ValueError) as raised:
            sigma_grid(model, mus=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                       omegas=[1.0])
        assert raised.value is error
        assert os_threads() == before


class TestCsvRoundTrip:
    def test_exact_roundtrip(self, tmp_path, rng):
        grid = SigmaGrid(np.logspace(-6, 2, 4), np.logspace(-4, 4, 6),
                         rng.random((4, 6)))
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        back = read_grid_csv(path)
        np.testing.assert_array_equal(back.mus, grid.mus)
        np.testing.assert_array_equal(back.omegas, grid.omegas)
        np.testing.assert_array_equal(back.values, grid.values)

    def test_header_line(self, tmp_path):
        grid = SigmaGrid([1.0], [1.0], np.ones((1, 1)))
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        assert path.read_text().splitlines()[0] == "mu,omega,value"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_grid_csv(path)


class TestMatrixMarket:
    def test_sparse_roundtrip_bit_exact(self, tmp_path, rng):
        m = sp.random(20, 20, density=0.2,
                      random_state=np.random.RandomState(5), format="csr")
        path = tmp_path / "m.mtx"
        write_matrix(path, m)
        back = read_matrix(path).tocsr()
        assert (back != m).nnz == 0
        np.testing.assert_array_equal(back.toarray(), m.toarray())

    def test_dense_roundtrip_bit_exact(self, tmp_path, rng):
        m = rng.standard_normal((7, 3))
        path = tmp_path / "d.mtx"
        write_matrix(path, m)
        np.testing.assert_array_equal(read_dense(path), m)

    def test_symmetric_coordinate_read(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "2 2 2\n1 1 -2.0\n2 1 1.0\n")
        m = read_matrix(path).toarray()
        np.testing.assert_allclose(m, [[-2.0, 1.0], [1.0, 0.0]])

    def test_load_system(self, tmp_path):
        fd = gen_fd_laplacian(4)
        write_matrix(tmp_path / "A.mtx", fd.a)
        write_matrix(tmp_path / "B.mtx", fd.b)
        write_matrix(tmp_path / "C.mtx", fd.c)
        sys_ = load_system(tmp_path / "A.mtx", tmp_path / "B.mtx",
                           tmp_path / "C.mtx")
        assert sys_.order == 16
        assert not sys_.have_e
        np.testing.assert_array_equal(sys_.a.toarray(), fd.a.toarray())
