import numpy as np
import pytest

from lrmor import BenchConfig, gen_fd_laplacian, gen_thermal_block_mini
from lrmor.benchmarks import _block_boxes
from referees import loop_fd_laplacian, loop_thermal_block, stability_check


def assert_same_bits(got, want):
    """Equal CSR arrays (indptr, indices, data) or equal dense arrays, in
    value and dtype."""
    if hasattr(want, "indptr"):
        assert got.format == want.format == "csr"
        pairs = [(getattr(got, f), getattr(want, f))
                 for f in ("indptr", "indices", "data")]
    else:
        pairs = [(got, want)]
    for x, y in pairs:
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


class TestFdLaplacian:
    def test_minimal_grid(self):
        sys_ = gen_fd_laplacian(2)
        assert sys_.order == 4
        a = sys_.a.toarray()
        np.testing.assert_allclose(np.diag(a), -4.0 * 9.0 * np.ones(4))

    def test_symmetric_negative_definite(self):
        sys_ = gen_fd_laplacian(6)
        a = sys_.a.toarray()
        np.testing.assert_allclose(a, a.T)
        assert np.linalg.eigvalsh(a).max() < 0

    def test_io_shapes(self):
        sys_ = gen_fd_laplacian(5)
        assert sys_.b.shape == (25, 1)
        assert sys_.c.shape == (1, 25)
        assert sys_.b.max() == 1.0
        assert sys_.c.sum() == pytest.approx(1.0)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            gen_fd_laplacian(1)

    def test_deterministic(self):
        a1 = gen_fd_laplacian(7)
        a2 = gen_fd_laplacian(7)
        assert (a1.a != a2.a).nnz == 0
        np.testing.assert_array_equal(a1.b, a2.b)


class TestThermalBlock:
    def test_affine_decomposition(self):
        psys = gen_thermal_block_mini(BenchConfig(grid_size=10))
        mu = 3.7
        assert_same_bits(psys.instantiate(mu).a, psys.a0 + mu * psys.a1)

    def test_symmetric_for_all_mu(self):
        psys = gen_thermal_block_mini(BenchConfig(grid_size=10))
        for mu in (1e-6, 1.0, 1e2):
            a = psys.instantiate(mu).a
            assert abs(a - a.T).max() == 0.0

    def test_stable_at_mu_zero(self):
        psys = gen_thermal_block_mini(BenchConfig(grid_size=10))
        stable, _ = stability_check(None, psys.a0)
        assert stable

    def test_stable_across_domain(self):
        psys = gen_thermal_block_mini(BenchConfig(grid_size=8))
        for mu in (1e-6, 1e-2, 1.0, 1e2):
            stable, _ = stability_check(None, psys.instantiate(mu).a)
            assert stable

    def test_io_shape(self):
        psys = gen_thermal_block_mini(BenchConfig(grid_size=12))
        sys_ = psys.instantiate(1.0)
        assert sys_.b.shape[1] == 1
        assert sys_.c.shape[0] == 4

    def test_outputs_average_disjoint_blocks(self):
        psys = gen_thermal_block_mini(BenchConfig(grid_size=16))
        c = psys.c
        np.testing.assert_allclose(c.sum(axis=1), np.ones(4))
        support = (c > 0).astype(int)
        assert (support.sum(axis=0) <= 1).all()  # no node in two blocks

    def test_blocks_carry_the_parameter(self):
        psys = gen_thermal_block_mini(BenchConfig(grid_size=12))
        a1, c = psys.a1, psys.c
        # the mu-part acts exactly where the outputs observe
        block_nodes = np.flatnonzero(c.sum(axis=0) > 0)
        assert np.abs(a1.toarray()[np.ix_(block_nodes, block_nodes)]).max() \
            > 0

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            gen_thermal_block_mini(BenchConfig(grid_size=6))

    def test_blocks_inside_grid_and_disjoint(self):
        # the generator does not check this at run time; grids below 8 are
        # rejected above
        for g in range(8, 513):
            boxes = _block_boxes(g)
            for x0, x1, y0, y1 in boxes:
                assert 0 <= x0 <= x1 < g and 0 <= y0 <= y1 < g
            for i, a in enumerate(boxes):
                for b in boxes[i + 1:]:
                    assert (a[1] < b[0] or b[1] < a[0] or a[3] < b[2]
                            or b[3] < a[2])

    def test_deterministic(self):
        p1 = gen_thermal_block_mini(BenchConfig(grid_size=10))
        p2 = gen_thermal_block_mini(BenchConfig(grid_size=10))
        assert (p1.a1 != p2.a1).nnz == 0
        np.testing.assert_array_equal(p1.b, p2.b)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="positive"):
            BenchConfig(grid_size=10, mu_range=(0.0, 1.0))


class TestArrayAssembly:
    """The array assembly reproduces the per-node loop bit for bit."""

    @pytest.mark.parametrize("g", [2, 3, 4, 7, 10, 33])
    def test_fd_matches_loop(self, g):
        sys_ = gen_fd_laplacian(g)
        for got, want in zip((sys_.a, sys_.b, sys_.c), loop_fd_laplacian(g),
                             strict=True):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("g", [8, 9, 10, 12, 24, 32])
    def test_thermal_matches_loop(self, g):
        psys = gen_thermal_block_mini(BenchConfig(grid_size=g))
        got = (psys.a0, psys.a1, psys.b, psys.c)
        for x, y in zip(got, loop_thermal_block(g), strict=True):
            assert_same_bits(x, y)
