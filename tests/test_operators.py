import sys
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import lrmor.operators
from lrmor import (AdiOptions, BenchConfig, LtiSystem, LyapunovSpec,
                   OperatorSet, RiccatiSpec, SingularOperatorError,
                   gen_fd_laplacian, gen_thermal_block_mini,
                   heuristic_shifts, lr_adi, lr_newton)
from lrmor.operators import MAX_LUS, LuCache
from referees import dense_a_eff

from conftest import scalar_system, sparse_random


def _rand_sys(rng, n=5, m=2, with_e=True, k=0):
    a = sparse_random(rng, n) * -1.0
    e = sparse_random(rng, n) if with_e else None
    u = v = None
    if k:
        u = rng.standard_normal((n, k))
        v = rng.standard_normal((n, k))
    return LtiSystem(a=a, b=rng.standard_normal((n, m)),
                     c=rng.standard_normal((1, n)), e=e, u=u, v=v)


class TestInit:
    def test_well_formed(self):
        sys_ = LtiSystem(a=np.diag([-1.0, -2.0]), b=[[1.0], [0.0]],
                         c=[[1.0, 1.0]], e=np.eye(2))
        ops = OperatorSet(sys_)
        assert ops.system.order == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="E must match A"):
            LtiSystem(a=np.diag([-1.0, -2.0, -3.0]), b=np.ones((3, 1)),
                      c=np.ones((1, 3)), e=np.eye(2))

    def test_b_rows_mismatch(self):
        with pytest.raises(ValueError, match="B has"):
            LtiSystem(a=np.diag([-1.0, -2.0]), b=np.ones((3, 1)),
                      c=np.ones((1, 2)))

    def test_update_needs_both_factors(self):
        with pytest.raises(ValueError, match="both U and V"):
            LtiSystem(a=np.eye(2), b=np.ones((2, 1)), c=np.ones((1, 2)),
                      u=np.ones((2, 1)))

    def test_update_column_mismatch(self):
        with pytest.raises(ValueError, match="equal column"):
            LtiSystem(a=-np.eye(2), b=np.ones((2, 1)), c=np.ones((1, 2)),
                      u=np.ones((2, 1)), v=np.ones((2, 2)))

    def test_non_finite_entry(self):
        with pytest.raises(ValueError, match="non-finite"):
            LtiSystem(a=np.diag([-1.0, np.inf]), b=np.ones((2, 1)),
                      c=np.ones((1, 2)))


class TestMul:
    def test_mul_a_diagonal(self):
        ops = OperatorSet(LtiSystem(a=np.diag([2.0, 3.0]), b=np.ones((2, 1)),
                                    c=np.ones((1, 2))))
        np.testing.assert_allclose(ops.mul_a("N", np.array([1.0, 1.0])),
                                   [2.0, 3.0])

    def test_mul_a_identity(self, rng):
        ops = OperatorSet(LtiSystem(a=np.eye(3), b=np.ones((3, 1)),
                                    c=np.ones((1, 3))))
        x = rng.standard_normal((3, 2))
        np.testing.assert_array_equal(ops.mul_a("N", x), x)

    def test_mul_a_matches_dense(self, rng):
        sys_ = _rand_sys(rng)
        ops = OperatorSet(sys_)
        a = sys_.a.toarray()
        x = rng.standard_normal((5, 2))
        np.testing.assert_allclose(ops.mul_a("N", x), a @ x, atol=1e-13)
        np.testing.assert_allclose(ops.mul_a("T", x), a.T @ x, atol=1e-13)

    def test_mul_e_identity_shortcut(self, rng):
        ops = OperatorSet(_rand_sys(rng, with_e=False))
        x = rng.standard_normal((5, 3))
        np.testing.assert_array_equal(ops.mul_e("N", x), x)

    def test_mul_e_scaling(self):
        ops = OperatorSet(LtiSystem(a=-np.eye(2), b=np.ones((2, 1)),
                                    c=np.ones((1, 2)), e=2 * np.eye(2)))
        np.testing.assert_allclose(ops.mul_e("N", np.array([1.0, 1.0])),
                                   [2.0, 2.0])

    def test_mul_e_matches_dense(self, rng):
        sys_ = _rand_sys(rng)
        ops = OperatorSet(sys_)
        x = rng.standard_normal((5, 2))
        np.testing.assert_allclose(ops.mul_e("T", x),
                                   sys_.e.toarray().T @ x, atol=1e-13)

    def test_mul_ape_cancellation(self):
        ops = OperatorSet(LtiSystem(a=-np.eye(2), b=np.ones((2, 1)),
                                    c=np.ones((1, 2)), e=np.eye(2)))
        out = ops.mul_ape("N", 1.0, np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [0.0, 0.0])

    def test_mul_ape_scalar(self):
        ops = OperatorSet(scalar_system(a=-3.0, e=2.0))
        assert ops.mul_ape("N", 1.0, np.array([4.0]))[0] == -4.0

    def test_mul_ape_matches_dense(self, rng):
        sys_ = _rand_sys(rng)
        ops = OperatorSet(sys_)
        a, e = sys_.a.toarray(), sys_.e.toarray()
        x = rng.standard_normal((5, 2))
        p = 0.7 - 1.3j
        np.testing.assert_allclose(ops.mul_ape("N", p, x),
                                   (a + p * e) @ x, atol=1e-13)
        np.testing.assert_allclose(ops.mul_ape("T", p, x),
                                   (a + p * e).T @ x, atol=1e-13)

    def test_mul_ape_zero_shift_is_mul_a(self, rng):
        sys_ = _rand_sys(rng)
        ops = OperatorSet(sys_)
        x = rng.standard_normal((5, 2))
        np.testing.assert_allclose(ops.mul_ape("N", 0.0, x),
                                   ops.mul_a("N", x), atol=1e-14)

    def test_mul_a_splr(self, rng):
        sys_ = _rand_sys(rng, k=2)
        ops = OperatorSet(sys_)
        x = rng.standard_normal((5, 2))
        dense = sys_.a.toarray() + sys_.u @ sys_.v.T
        np.testing.assert_allclose(ops.mul_a("N", x), dense @ x, atol=1e-12)
        np.testing.assert_allclose(ops.mul_a("T", x), dense.T @ x, atol=1e-12)


class TestSol:
    def test_sol_a_diagonal(self):
        ops = OperatorSet(LtiSystem(a=np.diag([2.0, 4.0]), b=np.ones((2, 1)),
                                    c=np.ones((1, 2))))
        np.testing.assert_allclose(ops.sol_a("N", np.array([2.0, 4.0])),
                                   [1.0, 1.0])

    def test_sol_a_identity(self, rng):
        ops = OperatorSet(LtiSystem(a=np.eye(3), b=np.ones((3, 1)),
                                    c=np.ones((1, 3))))
        b = rng.standard_normal((3, 2))
        np.testing.assert_allclose(ops.sol_a("N", b), b, atol=1e-15)

    @pytest.mark.parametrize("tr", ["N", "T"])
    def test_sol_a_residual(self, rng, tr):
        sys_ = _rand_sys(rng, n=20)
        ops = OperatorSet(sys_)
        b = rng.standard_normal((20, 3))
        x = ops.sol_a(tr, b)
        a = sys_.a.toarray()
        mat = a if tr == "N" else a.T
        assert np.linalg.norm(mat @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_sol_mul_roundtrip(self, rng):
        sys_ = _rand_sys(rng, n=20)
        ops = OperatorSet(sys_)
        x = rng.standard_normal((20, 2))
        back = ops.sol_a("N", ops.mul_a("N", x))
        assert np.linalg.norm(back - x) <= 1e-9 * np.linalg.norm(x)

    def test_sol_e_shortcut(self, rng):
        ops = OperatorSet(_rand_sys(rng, with_e=False))
        b = rng.standard_normal(5)
        np.testing.assert_array_equal(ops.sol_e("N", b), b)

    def test_sol_e_scaling(self):
        ops = OperatorSet(LtiSystem(a=-np.eye(2), b=np.ones((2, 1)),
                                    c=np.ones((1, 2)), e=2 * np.eye(2)))
        np.testing.assert_allclose(ops.sol_e("N", np.array([2.0, 2.0])),
                                   [1.0, 1.0])

    def test_sol_e_residual(self, rng):
        sys_ = _rand_sys(rng, n=15)
        ops = OperatorSet(sys_)
        b = rng.standard_normal((15, 2))
        x = ops.sol_e("T", b)
        assert np.linalg.norm(sys_.e.toarray().T @ x - b) \
            <= 1e-10 * np.linalg.norm(b)

    def test_sol_ape_trivial(self, rng):
        # A + 2E = I for A = -I, E = I
        ops = OperatorSet(LtiSystem(a=-np.eye(2), b=np.ones((2, 1)),
                                    c=np.ones((1, 2)), e=np.eye(2)))
        b = rng.standard_normal((2, 2))
        np.testing.assert_allclose(ops.sol_ape("N", 2.0, "N", b), b,
                                   atol=1e-14)

    def test_sol_ape_scalar(self):
        ops = OperatorSet(scalar_system(a=-1.0))
        np.testing.assert_allclose(
            ops.sol_ape("N", -1.0, "N", np.array([1.0])), [-0.5])

    def test_sol_ape_complex_residual(self, rng):
        sys_ = _rand_sys(rng, n=12)
        ops = OperatorSet(sys_)
        b = rng.standard_normal((12, 2))
        p = -0.8 + 2.1j
        x = ops.sol_ape("T", p, "T", b)
        mat = (sys_.a.toarray() + p * sys_.e.toarray()).T
        assert np.linalg.norm(mat @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_sol_ape_zero_shift_is_sol_a(self, rng):
        sys_ = _rand_sys(rng, n=8)
        ops = OperatorSet(sys_)
        b = rng.standard_normal((8, 2))
        np.testing.assert_allclose(ops.sol_ape("N", 0.0, "N", b),
                                   ops.sol_a("N", b), atol=1e-13)

    def test_sol_ape_singular_shift(self):
        # p = -1 hits the eigenvalue +1 of the unstable pencil
        sys_ = LtiSystem(a=np.diag([1.0, -2.0]), b=np.ones((2, 1)),
                         c=np.ones((1, 2)), e=np.eye(2))
        ops = OperatorSet(sys_)
        with pytest.raises(SingularOperatorError):
            ops.sol_ape("N", -1.0, "N", np.ones(2))


class TestSolSplr:
    """Solves on sparse-plus-low-rank systems: ``sol_a``/``sol_ape`` act on
    A + U V^T through Woodbury."""

    def test_zero_column_update_is_sol_a(self, rng):
        sys_ = _rand_sys(rng, n=8)
        sys_u = sys_.with_update(np.zeros((8, 0)), np.zeros((8, 0)))
        b = rng.standard_normal((8, 2))
        np.testing.assert_allclose(OperatorSet(sys_u).sol_a("N", b),
                                   OperatorSet(sys_).sol_a("N", b), atol=1e-12)

    def test_scalar_smw(self):
        sys_ = LtiSystem(a=[[2.0]], b=[[1.0]], c=[[1.0]], u=[[1.0]],
                         v=[[3.0]])
        ops = OperatorSet(sys_)
        np.testing.assert_allclose(ops.sol_a("N", np.array([5.0])),
                                   [1.0])

    @pytest.mark.parametrize("tr", ["N", "T"])
    def test_matches_formed_dense(self, rng, tr):
        sys_ = _rand_sys(rng, n=8, k=2)
        ops = OperatorSet(sys_)
        b = rng.standard_normal((8, 3))
        x = ops.sol_a(tr, b)
        formed = sys_.a.toarray() + sys_.u @ sys_.v.T
        ref = np.linalg.solve(formed if tr == "N" else formed.T, b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_sol_ape_splr(self, rng):
        sys_ = _rand_sys(rng, n=8, k=2)
        ops = OperatorSet(sys_)
        b = rng.standard_normal((8, 2))
        p = -1.5 + 0.4j
        x = ops.sol_ape("N", p, "N", b)
        formed = sys_.a.toarray() + sys_.u @ sys_.v.T + p * sys_.e.toarray()
        assert np.linalg.norm(formed @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_singular_capacitance(self):
        # 1 + v a^{-1} u = 1 - 1 = 0
        sys_ = LtiSystem(a=[[1.0]], b=[[1.0]], c=[[1.0]], u=[[1.0]],
                         v=[[-1.0]])
        ops = OperatorSet(sys_)
        with pytest.raises(SingularOperatorError, match="capacitance"):
            ops.sol_a("N", np.array([1.0]))


class TestSizeAndCache:
    def test_size(self, fd10):
        assert OperatorSet(fd10).system.order == 100
        assert OperatorSet(scalar_system()).system.order == 1
        two = LtiSystem(a=-np.eye(2), b=np.ones((2, 1)), c=np.ones((1, 2)))
        assert OperatorSet(two).system.order == 2

    def test_warm_cold_cache_agree(self, rng):
        sys_ = _rand_sys(rng, n=10)
        b = rng.standard_normal((10, 2))
        cold = OperatorSet(sys_)
        warm = OperatorSet(sys_)
        first = warm.sol_ape("N", -0.3, "N", b)
        second = warm.sol_ape("N", -0.3, "N", b)  # cache hit
        np.testing.assert_allclose(first, second, atol=1e-14)
        np.testing.assert_allclose(cold.sol_ape("N", -0.3, "N", b), first,
                                   atol=1e-14)
        assert -0.3 in warm._cache

    def test_transpose_consistency(self, rng):
        sys_ = _rand_sys(rng, n=9)
        ops = OperatorSet(sys_)
        x = rng.standard_normal((9, 3))
        np.testing.assert_allclose(ops.mul_a("T", x),
                                   sys_.a.toarray().T @ x, atol=1e-12)

    def test_invalid_transpose_flag(self, rng):
        ops = OperatorSet(_rand_sys(rng))
        with pytest.raises(ValueError, match="transpose flag"):
            ops.mul_a("X", np.ones(5))

    def test_mixed_transpose_flags_raise(self, rng, lu_count):
        # A and E take one flag: A + pE^T is not solved, and no LU is made
        ops = OperatorSet(_rand_sys(rng, n=7))
        b = rng.standard_normal((7, 2))
        for tr_a, tr_e in (("N", "T"), ("T", "N")):
            with pytest.raises(ValueError, match="one transpose flag"):
                ops.sol_ape(tr_a, -0.9, tr_e, b)
        assert lu_count() == 0

    def test_concurrent_solves_share_cache_safely(self, rng):
        from concurrent.futures import ThreadPoolExecutor
        sys_ = _rand_sys(rng, n=30)
        ops = OperatorSet(sys_)
        b = rng.standard_normal((30, 2))
        ref = ops.sol_ape("N", -1.1, "N", b)

        def work(_):
            return ops.sol_ape("N", -1.1, "N", b)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(32)))
        for out in results:
            np.testing.assert_allclose(out, ref, atol=1e-14)

    def test_concurrent_first_factorizations_solve_exactly(self, rng):
        # threads making a fresh pencil's first LUs race to set its
        # ordering; every LU must solve with the permutation it was made on
        from concurrent.futures import ThreadPoolExecutor
        sys_ = _rand_sys(rng, n=30)
        ops = OperatorSet(sys_)
        b = rng.standard_normal((30, 2))
        shifts = -0.2 - 0.3 * np.arange(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(ops.sol_ape, "N", p, "N", b)
                           for p in shifts]
                first = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        again = [ops.sol_ape("N", p, "N", b) for p in shifts]  # cache hits
        for p, x, y in zip(shifts, first, again):
            mat = sys_.a.toarray() + p * sys_.e.toarray()
            for sol in (x, y):
                assert np.linalg.norm(mat @ sol - b) \
                    <= 1e-10 * np.linalg.norm(b)


@pytest.fixture
def permc_specs(monkeypatch):
    """The ``permc_spec`` of every sparse LU the operator layer makes."""
    specs = []

    def recording(*args, **kwargs):
        specs.append(kwargs.get("permc_spec"))
        return splu(*args, **kwargs)

    monkeypatch.setattr("lrmor.operators.splu", recording)
    return specs


class TestOrdering:
    """The pencil's first LU request orders it by a symmetric-mode MMD LU
    on A^T + A, of A + Re(p) E for a first shift p, which is dropped; every
    LU, the first included, reuses that ordering.  They solve exactly on
    structurally symmetric and non-symmetric patterns alike."""

    @staticmethod
    def _system(rng, symmetric, with_e, k):
        if symmetric:
            a = gen_fd_laplacian(6).a
            e = sp.identity(36) - 0.05 * a if with_e else None
        else:
            a = -sparse_random(rng, 36)
            e = sparse_random(rng, 36) if with_e else None
        n = a.shape[0]
        u = v = None
        if k:
            u = 0.3 * rng.standard_normal((n, k))
            v = 0.3 * rng.standard_normal((n, k))
        return LtiSystem(a=a, b=np.ones((n, 1)), c=np.ones((1, n)), e=e,
                         u=u, v=v)

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("with_e", [True, False])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_solves_match_dense(self, rng, symmetric, with_e, k,
                                permc_specs):
        # the first request (at -2.5) orders the pencil; the LUs at -2.5, of
        # A and of A + pE for both shifts use its order, for both flags
        sys_ = self._system(rng, symmetric, with_e, k)
        ops = OperatorSet(sys_)
        pattern = (sys_.a != 0).astype(int)
        assert ((pattern != pattern.T).nnz == 0) == symmetric
        n = sys_.order
        e = sys_.dense_e()
        a_eff = dense_a_eff(sys_)  # A itself for k = 0
        b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        ops.sol_ape("N", -2.5, "N", b)
        for p in (-0.8, -0.8 + 1.3j, 0.0):
            for tr in ("N", "T"):
                mat = a_eff + p * e
                ref = np.linalg.solve(mat if tr == "N" else mat.T, b)
                x = ops.sol_ape(tr, p, tr, b) if p else ops.sol_a(tr, b)
                assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert permc_specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * 4

    @pytest.mark.parametrize("make", [
        lambda: gen_fd_laplacian(10), lambda: gen_fd_laplacian(100),
        lambda: gen_thermal_block_mini(
            BenchConfig(grid_size=16)).instantiate(0.3),
        lambda: gen_thermal_block_mini(
            BenchConfig(grid_size=32)).instantiate(0.3)],
        ids=["fd10", "fd100", "thermal16", "thermal32"])
    @pytest.mark.parametrize("p", [-3.0j, -0.5 - 3.0j],
                             ids=["imaginary", "complex"])
    def test_real_ordering_lu_gives_the_complex_ones_order(self, make, p,
                                                           monkeypatch):
        # a sweep's first shift is complex; the ordering LU at its real part
        # finds the q that an MMD LU at the shift itself found, so no LU and
        # no output bit moves
        sys_ = make()
        e = sys_.e if sys_.have_e else sp.identity(sys_.order, format="csr")
        unpermuted = (sys_.a + 1j * e).tocsc()
        unpermuted.sort_indices()
        old = lrmor.operators._splu(lrmor.operators._shifted(unpermuted, p),
                                    "MMD_AT_PLUS_A")
        made = []

        def recording(m, **kwargs):
            made.append((kwargs["permc_spec"], np.iscomplexobj(m.data)))
            return splu(m, **kwargs)

        monkeypatch.setattr(lrmor.operators, "splu", recording)
        OperatorSet(sys_).sol_ape("N", p, "N", sys_.b)
        np.testing.assert_array_equal(sys_.lu_cache._symbolic["order"],
                                      np.argsort(old.perm_c))
        assert made == [("MMD_AT_PLUS_A", False), ("NATURAL", True)]

    def test_singular_real_part_orders_at_the_shift(self, permc_specs):
        # A + Re(p) I = A is singular, A + pI is not: the ordering LU falls
        # back to the shift's own matrix
        a = sp.diags([0.0, -1.0, -2.0], format="csr")
        sys_ = LtiSystem(a=a, b=np.ones((3, 1)), c=np.ones((1, 3)))
        x = OperatorSet(sys_).sol_ape("N", 1j, "N", np.ones(3))
        np.testing.assert_allclose(x, 1.0 / (np.array([0.0, -1.0, -2.0])
                                             + 1j), rtol=1e-15)
        assert permc_specs == ["MMD_AT_PLUS_A", "MMD_AT_PLUS_A", "NATURAL"]

    def test_no_lu_depends_on_the_first_shift(self):
        # the ordering is the pattern's: each shift's solve has the same
        # bits whichever shift a fresh pencil saw first
        b = np.ones((100, 1))
        runs = []
        for shifts in ((-0.5, -3.0), (-3.0, -0.5)):
            ops = OperatorSet(gen_fd_laplacian(10))
            runs.append({p: ops.sol_ape("N", p, "N", b) for p in shifts})
        for p in (-0.5, -3.0):
            np.testing.assert_array_equal(runs[0][p], runs[1][p])

    def test_reused_ordering_keeps_fill(self):
        sys_ = gen_fd_laplacian(30)
        ops = OperatorSet(sys_)
        shifts = (-10.0, -3.0, -3.0 + 2.0j)
        for p in shifts:
            ops.sol_ape("N", p, "N", np.ones(sys_.order))
        fill = [lu.L.nnz + lu.U.nnz for lu in (
            sys_.lu_cache[p] for p in shifts)]
        assert fill == [fill[0]] * 3

    def test_symmetric_ordering_reduces_fill(self):
        sys_ = gen_fd_laplacian(30)
        ops = OperatorSet(sys_)
        ops.sol_ape("N", -10.0, "N", np.ones(sys_.order))
        lu = ops._cache[-10.0]
        colamd = splu((sys_.a - 10.0 * sp.identity(sys_.order)).tocsc())
        assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz

    def test_singular_shift_symmetric_ordering(self):
        # tridiag(1, -2, 1) of order 3 has the eigenvalue -2, so A + 2I is
        # exactly singular
        a = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(3, 3))
        ops = OperatorSet(LtiSystem(a=a, b=np.ones((3, 1)), c=np.ones((1, 3))))
        with pytest.raises(SingularOperatorError):
            ops.sol_ape("N", 2.0, "N", np.ones(3))


class TestSharedLuCache:
    """The LUs belong to the (A, E) pencil: every set over the system, and
    over systems built from it on the same ``a``/``e``, shares them, and at
    most ``MAX_LUS`` are kept."""

    def test_sets_of_one_system_share_lus(self, rng, lu_count):
        sys_ = _rand_sys(rng, n=10)
        b = rng.standard_normal((10, 2))
        OperatorSet(sys_).sol_ape("N", -0.3, "N", b)
        OperatorSet(sys_).sol_ape("T", -0.3, "T", b)
        assert lu_count() == 1 + 1  # the ordering LU, then the shift's

    def test_eviction_bound_and_refactorization(self, rng, lu_count):
        # bound: the cache never holds more than MAX_LUS LUs, and a solve at
        # an evicted shift refactorizes to the same LU, within 1e-12 of the
        # dense solve
        sys_ = _rand_sys(rng, n=12)
        ops = OperatorSet(sys_)
        b = rng.standard_normal((12, 2))
        shifts = -0.1 - 0.25 * np.arange(MAX_LUS + 5)
        first = ops.sol_ape("N", shifts[0], "N", b)
        for p in shifts[1:]:
            ops.sol_ape("N", p, "N", b)
            assert len(sys_.lu_cache) <= MAX_LUS
        assert len(sys_.lu_cache) == MAX_LUS
        assert shifts[0] not in sys_.lu_cache
        again = ops.sol_ape("N", shifts[0], "N", b)
        assert lu_count() == 1 + len(shifts) + 1  # the ordering LU first
        mat = sys_.a.toarray() + shifts[0] * sys_.e.toarray()
        ref = np.linalg.solve(mat, b)
        assert np.linalg.norm(again - ref) <= 1e-12 * np.linalg.norm(ref)
        np.testing.assert_array_equal(again, first)

    def test_least_recently_used_goes_first(self, rng):
        sys_ = _rand_sys(rng, n=8)
        ops = OperatorSet(sys_)
        b = rng.standard_normal(8)
        shifts = -0.5 - np.arange(MAX_LUS)
        for p in shifts:
            ops.sol_ape("N", p, "N", b)
        ops.sol_ape("N", shifts[0], "N", b)  # now the most recent
        ops.sol_ape("N", -100.0, "N", b)
        assert shifts[0] in sys_.lu_cache
        assert shifts[1] not in sys_.lu_cache

    def test_with_update_reuses_factorized_shift(self, rng, lu_count):
        # bound: no new LU for the updated system at a factorized shift
        sys_ = _rand_sys(rng, n=10)
        b = rng.standard_normal((10, 2))
        p = -0.7 + 0.2j
        OperatorSet(sys_).sol_ape("N", p, "N", b)
        made = lu_count()
        u = 0.2 * rng.standard_normal((10, 2))
        v = 0.2 * rng.standard_normal((10, 2))
        updated = sys_.with_update(u, v)
        assert updated.lu_cache is sys_.lu_cache
        x = OperatorSet(updated).sol_ape("N", p, "N", b)
        assert lu_count() == made
        formed = dense_a_eff(updated) + p * updated.dense_e()
        assert np.linalg.norm(formed @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_transfer_leaves_shared_cache_unchanged(self, rng, lu_count):
        # bound: a transfer sweep factorizes once per point and keeps none
        sys_ = _rand_sys(rng, n=10)
        OperatorSet(sys_).sol_ape("N", -0.3, "N", np.ones(10))
        before = dict(sys_.lu_cache)
        omegas = np.logspace(-2, 2, MAX_LUS + 3)
        for om in omegas:
            h = sys_.transfer(1j * om)
            ref = sys_.c @ np.linalg.solve(
                1j * om * sys_.dense_e() - sys_.a.toarray(), sys_.b)
            np.testing.assert_allclose(h, ref, rtol=1e-10)
        assert lu_count() == 1 + 1 + len(omegas)  # the ordering LU first
        assert dict(sys_.lu_cache) == before

    def test_transfer_sweep_orders_pencil_once(self, rng, permc_specs):
        # bound: one MMD ordering for the whole sweep, and no LU kept
        sys_ = _rand_sys(rng, n=10)
        omegas = np.logspace(-2, 2, 15)
        for om in omegas:
            h = sys_.transfer(1j * om)
        ref = sys_.c @ np.linalg.solve(
            1j * omegas[-1] * sys_.dense_e() - sys_.a.toarray(), sys_.b)
        np.testing.assert_allclose(h, ref, rtol=1e-10)
        assert permc_specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * 15
        assert len(sys_.lu_cache) == 0

    def test_transfer_over_points_holds_one_lu_at_a_time(self, rng,
                                                         monkeypatch,
                                                         permc_specs):
        # bound: one call over 15 points orders the pencil once and keeps
        # no LU; each point's LU is gone before the next one is made
        sys_ = _rand_sys(rng, n=10)
        private_caches = []
        private = LuCache.private

        def tracked(cache):
            out = private(cache)
            private_caches.append(weakref.ref(out))
            return out

        monkeypatch.setattr(LuCache, "private", tracked)
        held = []
        recording = lrmor.operators.splu  # permc_specs records the LUs

        def counting(*args, **kwargs):
            held.append(sum(len(ref()) for ref in private_caches
                            if ref() is not None))
            return recording(*args, **kwargs)

        monkeypatch.setattr(lrmor.operators, "splu", counting)
        omegas = np.logspace(-2, 2, 15)
        h = sys_.transfer(1j * omegas)
        ref = sys_.c @ np.linalg.solve(
            1j * omegas[-1] * sys_.dense_e() - sys_.a.toarray(), sys_.b)
        np.testing.assert_allclose(h[-1], ref, rtol=1e-10)
        assert permc_specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * 15
        assert len(sys_.lu_cache) == 0
        assert held == [0] * 16

    def test_sol_a_shares_the_lu_of_shift_zero(self, rng, lu_count):
        sys_ = _rand_sys(rng, n=10, k=2)
        ops = OperatorSet(sys_)
        b = rng.standard_normal((10, 2))
        x = ops.sol_a("N", b)
        y = ops.sol_ape("N", 0.0, "N", b)
        assert lu_count() == 1 + 1  # the ordering LU, then A's
        np.testing.assert_array_equal(x, y)
        assert np.linalg.norm(dense_a_eff(sys_) @ x - b) \
            <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("p", [-0.8, -0.8 + 1.3j])
    @pytest.mark.parametrize("k", [0, 2])
    def test_solves_never_read_the_factors(self, rng, p, k):
        # reading SuperLU's L or U copies the whole factor; whether an LU
        # is complex follows from its key
        class FactorsHidden:
            def __init__(self, lu):
                self.solve = lu.solve

            @property
            def L(self):
                raise AssertionError("LU factor read")

            U = L

        sys_ = _rand_sys(rng, n=9, k=k)
        OperatorSet(sys_).sol_ape("N", p, "N", np.ones(9))
        key = next(iter(sys_.lu_cache))
        sys_.lu_cache[key] = FactorsHidden(sys_.lu_cache[key])
        formed = dense_a_eff(sys_) + p * sys_.dense_e()
        for b in (rng.standard_normal((9, 2)),
                  rng.standard_normal(9) + 1j * rng.standard_normal(9)):
            ops = OperatorSet(sys_)  # no Woodbury data yet
            for tr in ("N", "T"):
                x = ops.sol_ape(tr, p, tr, b)
                ref = np.linalg.solve(formed if tr == "N" else formed.T, b)
                assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_cache_for_other_matrices_is_replaced(self, rng):
        sys_ = _rand_sys(rng, n=6)
        other = LtiSystem(a=sys_.a * 2.0, b=sys_.b, c=sys_.c, e=sys_.e,
                          lu_cache=sys_.lu_cache)
        assert other.lu_cache is not sys_.lu_cache
        assert other.lu_cache.a is other.a


class TestNearest:
    """``LuCache.nearest`` finds a cached shift to refine on."""

    def test_contract(self, lu_count):
        sys_ = gen_fd_laplacian(6)
        ops, cache = OperatorSet(sys_), sys_.lu_cache
        assert cache.nearest(-1.0, 1e-2) is None
        for p in (-1.0, -1.004, -1.0 + 1j, -10.0):
            ops.sol_ape("N", p, "N", np.ones(36))
        made, keys = lu_count(), list(cache)
        q = cache.nearest(-1.003, 1e-2)
        assert q == -1.004 and type(q) is float
        # the exact shift wins over a cached neighbour
        assert cache.nearest(-1.0, 1e-2) == -1.0
        assert cache.nearest(-1.0 + 1.005j, 1e-2) == -1.0 + 1j
        # real and complex shifts are kept apart
        assert cache.nearest(-1.0 + 1e-3j, 1e-2) is None
        assert cache.nearest(-1.0 + 1e-3j, 2.0) == -1.0 + 1j
        # rel bounds the distance relative to |p|
        assert cache.nearest(-9.95, 1e-3) is None
        assert cache.nearest(-9.95, 1e-2) == -10.0
        assert lu_count() == made and list(cache) == keys


class TestWoodburyCache:
    """Each solve with an update solves [b, U] in one sweep on the pencil's
    cached LU; results are bit-identical with and without cached LUs, and
    the set keeps no solve data of its own."""

    @staticmethod
    def _solvers(sys_):
        out = []
        for side in ("N", "T"):
            for shifts in (None, heuristic_shifts(OperatorSet(sys_))):
                res = lr_adi(LyapunovSpec(sys_, side),
                             AdiOptions(shifts=shifts))
                out.append(res.z.z)
        res = lr_newton(RiccatiSpec(sys_, "T"))
        out.extend([res.z.z, res.k])
        return out

    def test_solver_outputs_match_uncached(self, rng, monkeypatch, lu_count):
        u = 0.5 * rng.standard_normal((36, 2))
        v = 0.5 * rng.standard_normal((36, 2))
        cached = self._solvers(gen_fd_laplacian(6).with_update(u, v))
        made = lu_count()
        # MAX_LUS = 0 keeps nothing: every solve refactorizes and solves U
        monkeypatch.setattr("lrmor.operators.MAX_LUS", 0)
        uncached = self._solvers(gen_fd_laplacian(6).with_update(u, v))
        assert lu_count() - made > made
        for x, y in zip(cached, uncached):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("p", [-0.7, -0.7 + 2j])
    def test_solves_read_the_current_update(self, rng, p):
        # RADI grows its feedback in the V of one closed-loop set between
        # solves, so a set must not keep M^{-1}U or the capacitance matrix
        sys_ = gen_fd_laplacian(6).with_update(rng.standard_normal((36, 2)),
                                               np.zeros((36, 2)))
        ops = OperatorSet(sys_)
        b = rng.standard_normal((36, 2))
        for tr in ("N", "T"):
            ops.sol_ape(tr, p, tr, b)
        sys_.v[:] = rng.standard_normal((36, 2))
        formed = dense_a_eff(sys_) + p * sys_.dense_e()
        for tr in ("N", "T"):
            x = ops.sol_ape(tr, p, tr, b)
            ref = np.linalg.solve(formed if tr == "N" else formed.T, b)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("p", [-0.8, -0.8 + 1.3j])
    def test_first_and_repeat_solves_match_dense(self, rng, p):
        # every right-hand side, first or repeated, solves U with it; a real
        # solve stays real after a complex one
        sys_ = _rand_sys(rng, n=9, k=2)
        formed = dense_a_eff(sys_) + p * sys_.dense_e()
        rhs = (rng.standard_normal((9, 2)), rng.standard_normal(9),
               rng.standard_normal(9) + 1j * rng.standard_normal(9))
        for first in rhs:
            ops = OperatorSet(sys_)
            for b in (first,) + rhs:
                for tr in ("N", "T"):
                    x = ops.sol_ape(tr, p, tr, b)
                    ref = np.linalg.solve(formed if tr == "N" else formed.T,
                                          b)
                    assert np.linalg.norm(x - ref) \
                        <= 1e-12 * np.linalg.norm(ref)
                    assert np.iscomplexobj(x) == np.iscomplexobj(ref)
