"""Tests for the SpMM kernel and its speedup model."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.codecs.stats import dsh_plan
from repro.core import recoded_spmm
from repro.sparse import (
    CSRMatrix,
    partition_csr,
    spmm,
    spmm_blocked,
    spmm_speedup_model,
)
from tests.per_block import multiply_blocks, per_block_route


def random_csr(m, n, density, seed) -> CSRMatrix:
    return CSRMatrix.from_scipy(sp.random(m, n, density=density, format="csr", random_state=seed))


class TestSpMM:
    def test_matches_dense(self):
        a = random_csr(30, 40, 0.1, 1)
        x = np.random.default_rng(0).normal(size=(40, 5))
        np.testing.assert_allclose(spmm(a, x), a.to_dense() @ x, rtol=1e-12)

    def test_matches_scipy(self):
        a = random_csr(64, 64, 0.05, 2)
        x = np.random.default_rng(1).normal(size=(64, 8))
        np.testing.assert_allclose(spmm(a, x), a.to_scipy() @ x, rtol=1e-12)

    def test_single_column_matches_spmv(self):
        from repro.sparse import spmv

        a = random_csr(50, 50, 0.08, 3)
        x = np.random.default_rng(2).normal(size=50)
        np.testing.assert_allclose(spmm(a, x[:, None])[:, 0], spmv(a, x), rtol=1e-12)

    def test_empty_matrix(self):
        a = CSRMatrix((4, 3), np.zeros(5), np.zeros(0), np.zeros(0))
        out = spmm(a, np.ones((3, 2)))
        np.testing.assert_array_equal(out, np.zeros((4, 2)))

    def test_wrong_shapes_rejected(self):
        a = random_csr(4, 6, 0.5, 4)
        with pytest.raises(ValueError):
            spmm(a, np.ones(6))  # 1-D
        with pytest.raises(ValueError):
            spmm(a, np.ones((5, 2)))

    def test_blocked_matches_flat(self):
        a = random_csr(80, 80, 0.06, 5)
        x = np.random.default_rng(3).normal(size=(80, 4))
        blocked = partition_csr(a, block_bytes=480)
        np.testing.assert_allclose(spmm_blocked(blocked, x), spmm(a, x), rtol=1e-12)

    def test_blocked_with_recode_hook(self):
        """A multiply of each decoded block, the recoded run's per-block
        route (the recode hook in front of each block) and its fused
        route all give the blocked kernel's bytes."""
        a = random_csr(60, 60, 0.08, 6)
        plan = dsh_plan(a)
        x = np.random.default_rng(4).normal(size=(60, 3))
        got = multiply_blocks(plan.blocked, x, decode=plan.decompress_block)
        np.testing.assert_allclose(got, spmm(a, x), rtol=1e-12)
        assert spmm_blocked(plan.blocked, x).tobytes() == got.tobytes()
        with per_block_route():
            assert recoded_spmm(plan, x)[0].tobytes() == got.tobytes()
        assert recoded_spmm(plan, x)[0].tobytes() == got.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 25), st.integers(1, 6), st.floats(0.05, 0.5), st.integers(0, 99))
    def test_property_matches_dense(self, n, k, density, seed):
        a = random_csr(n, n, density, seed)
        x = np.random.default_rng(seed).normal(size=(n, k))
        np.testing.assert_allclose(spmm(a, x), a.to_dense() @ x, rtol=1e-10, atol=1e-10)


class TestSpeedupModel:
    def test_k1_close_to_compression_ratio(self):
        # With nnz >> rows, k=1 speedup approaches 12 / bytes_per_nnz.
        s = spmm_speedup_model(nnz=10**7, nrows=10**4, ncols=10**4, k=1, bytes_per_nnz=5.0)
        assert s == pytest.approx(12 / 5, rel=0.05)

    def test_decays_with_k(self):
        speedups = [
            spmm_speedup_model(10**6, 10**4, 10**4, k, 5.0) for k in (1, 4, 16, 64, 256)
        ]
        assert all(a >= b for a, b in zip(speedups, speedups[1:]))
        assert speedups[-1] < speedups[0]
        assert speedups[-1] >= 1.0

    def test_limit_is_one(self):
        s = spmm_speedup_model(10**5, 10**4, 10**4, k=10**6, bytes_per_nnz=5.0)
        assert s == pytest.approx(1.0, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            spmm_speedup_model(10, 10, 10, 0, 5.0)
        with pytest.raises(ValueError):
            spmm_speedup_model(10, 10, 10, 1, 0.0)
