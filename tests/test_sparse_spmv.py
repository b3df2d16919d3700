"""Tests for SpMV kernels and the blocked partitioner."""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.codecs import compress_matrix
from repro.core import recoded_spmv
from repro.core.executor import RecodeHook
from repro.sparse import (
    CSRMatrix,
    partition_csr,
    spmv,
    spmv_blocked,
    spmv_reference,
)
from repro.sparse.blocked import CPU_BLOCK_BYTES, UDP_BLOCK_BYTES
from tests.per_block import multiply_blocks, per_block_route


def random_csr(m, n, density, seed) -> CSRMatrix:
    mat = sp.random(m, n, density=density, format="csr", random_state=seed)
    mat.sort_indices()
    return CSRMatrix.from_scipy(mat)


class TestSpMV:
    def test_paper_fig2_example(self):
        dense = np.array(
            [[1, 0, 2, 0], [0, 0, 0, 0], [3, 0, 4, 5], [0, 6, 0, 7]], dtype=float
        )
        a = CSRMatrix.from_dense(dense)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        expected = dense @ x
        np.testing.assert_allclose(spmv_reference(a, x), expected)
        np.testing.assert_allclose(spmv(a, x), expected)

    def test_vectorized_matches_reference(self):
        a = random_csr(40, 50, 0.1, 3)
        x = np.random.default_rng(1).normal(size=50)
        np.testing.assert_allclose(spmv(a, x), spmv_reference(a, x), rtol=1e-12)

    def test_matches_scipy(self):
        a = random_csr(64, 64, 0.05, 9)
        x = np.random.default_rng(2).normal(size=64)
        np.testing.assert_allclose(spmv(a, x), a.to_scipy() @ x, rtol=1e-12)

    def test_accumulates_into_y(self):
        a = random_csr(10, 10, 0.3, 5)
        x = np.ones(10)
        y0 = np.full(10, 7.0)
        out = spmv(a, x, y=y0)
        np.testing.assert_allclose(out, 7.0 + a.to_scipy() @ x, rtol=1e-12)
        # y0 not mutated
        np.testing.assert_array_equal(y0, np.full(10, 7.0))

    def test_empty_matrix(self):
        a = CSRMatrix((5, 4), np.zeros(6), np.zeros(0), np.zeros(0))
        np.testing.assert_array_equal(spmv(a, np.ones(4)), np.zeros(5))

    def test_empty_rows_and_trailing_empty_rows(self):
        dense = np.zeros((6, 3))
        dense[0, 1] = 2.0
        dense[2, 0] = 3.0
        a = CSRMatrix.from_dense(dense)
        x = np.array([1.0, 1.0, 1.0])
        np.testing.assert_allclose(spmv(a, x), dense @ x)

    def test_wrong_x_shape_raises(self):
        a = random_csr(4, 6, 0.5, 0)
        with pytest.raises(ValueError):
            spmv(a, np.ones(5))

    def test_wrong_y_shape_raises(self):
        a = random_csr(4, 6, 0.5, 0)
        with pytest.raises(ValueError):
            spmv(a, np.ones(6), y=np.ones(3))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 30),
        st.integers(1, 30),
        st.floats(0.01, 0.6),
        st.integers(0, 10_000),
    )
    def test_property_matches_dense(self, m, n, density, seed):
        a = random_csr(m, n, density, seed)
        x = np.random.default_rng(seed).normal(size=n)
        np.testing.assert_allclose(spmv(a, x), a.to_dense() @ x, rtol=1e-10, atol=1e-10)


class TestPartition:
    def test_block_budget_respected(self):
        a = random_csr(200, 200, 0.05, 11)
        blocked = partition_csr(a, block_bytes=256)
        for b in blocked.blocks:
            assert b.payload_bytes() <= 256

    def test_every_entry_exactly_once(self):
        a = random_csr(150, 150, 0.08, 13)
        blocked = partition_csr(a, block_bytes=512)
        assert blocked.nnz == a.nnz
        col_cat = np.concatenate([b.col_idx for b in blocked.blocks])
        val_cat = np.concatenate([b.val for b in blocked.blocks])
        np.testing.assert_array_equal(col_cat, a.col_idx)
        np.testing.assert_array_equal(val_cat, a.val)

    def test_dense_row_split_across_blocks(self):
        # One row with 100 entries, budget of 10 entries per block.
        dense = np.zeros((3, 100))
        dense[1, :] = np.arange(1, 101)
        a = CSRMatrix.from_dense(dense)
        blocked = partition_csr(a, block_bytes=10 * 12)
        assert blocked.nblocks >= 10
        partials = [b for b in blocked.blocks if b.leading_partial]
        assert len(partials) >= 9
        assert blocked.nnz == 100

    def test_default_block_sizes(self):
        assert UDP_BLOCK_BYTES == 8 * 1024
        assert CPU_BLOCK_BYTES == 32 * 1024

    def test_too_small_budget_raises(self):
        a = random_csr(4, 4, 0.5, 1)
        with pytest.raises(ValueError):
            partition_csr(a, block_bytes=4)

    def test_empty_matrix_partition(self):
        a = CSRMatrix((4, 4), np.zeros(5), np.zeros(0), np.zeros(0))
        blocked = partition_csr(a, block_bytes=1024)
        assert blocked.nnz == 0

    def test_byte_streams(self):
        a = random_csr(10, 10, 0.4, 2)
        blocked = partition_csr(a, block_bytes=1024)
        b = blocked.blocks[0]
        assert len(b.index_bytes()) == 4 * b.nnz
        assert len(b.value_bytes()) == 8 * b.nnz
        np.testing.assert_array_equal(
            np.frombuffer(b.index_bytes(), dtype="<i4"), b.col_idx
        )
        np.testing.assert_array_equal(
            np.frombuffer(b.value_bytes(), dtype="<f8"), b.val
        )


class TestBlockedSpMV:
    def test_matches_flat_spmv(self):
        a = random_csr(120, 120, 0.06, 17)
        x = np.random.default_rng(17).normal(size=120)
        blocked = partition_csr(a, block_bytes=600)
        np.testing.assert_allclose(spmv_blocked(blocked, x), spmv(a, x), rtol=1e-12)

    def test_with_split_rows(self):
        dense = np.zeros((4, 64))
        dense[0, :] = 1.0
        dense[2, ::2] = 2.0
        a = CSRMatrix.from_dense(dense)
        x = np.random.default_rng(0).normal(size=64)
        blocked = partition_csr(a, block_bytes=8 * 12)
        np.testing.assert_allclose(spmv_blocked(blocked, x), dense @ x, rtol=1e-12)

    def test_recode_hook_called_per_block(self):
        """The per-block route puts the recode hook in front of every
        block, in block order."""
        a = random_csr(60, 60, 0.1, 23)
        plan = compress_matrix(a, block_bytes=480)
        seen, real = [], RecodeHook.__call__

        def hook(self, *args):
            seen.append(self.blocks)
            return real(self, *args)

        with per_block_route(), mock.patch.object(RecodeHook, "__call__", hook):
            y, _ = recoded_spmv(plan, np.ones(60))
        assert plan.nblocks > 1 and seen == list(range(plan.nblocks))
        assert y.tobytes() == spmv_blocked(plan.blocked, np.ones(60)).tobytes()

    def test_identity_recode_preserves_result(self):
        a = random_csr(50, 50, 0.1, 29)
        x = np.random.default_rng(4).normal(size=50)
        blocked = partition_csr(a, block_bytes=256)
        got = multiply_blocks(blocked, x)
        np.testing.assert_allclose(got, spmv(a, x), rtol=1e-12)
        assert spmv_blocked(blocked, x).tobytes() == got.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(5, 40), st.floats(0.02, 0.5), st.integers(0, 999), st.integers(2, 20))
    def test_property_partition_invariance(self, n, density, seed, entries):
        a = random_csr(n, n, density, seed)
        x = np.random.default_rng(seed + 1).normal(size=n)
        blocked = partition_csr(a, block_bytes=entries * 12)
        np.testing.assert_allclose(
            spmv_blocked(blocked, x), spmv(a, x), rtol=1e-10, atol=1e-12
        )


class TestOutParameter:
    """The in-place ``out=`` contract shared by all three kernels."""

    def _case(self):
        a = random_csr(12, 12, 0.3, 31)
        x = np.random.default_rng(31).normal(size=12)
        return a, x

    @pytest.mark.parametrize("kernel", [spmv_reference, spmv])
    def test_out_returned_and_filled(self, kernel):
        a, x = self._case()
        out = np.full(12, np.nan)
        got = kernel(a, x, out=out)
        assert got is out
        np.testing.assert_allclose(out, a.to_dense() @ x, rtol=1e-12)

    @pytest.mark.parametrize("kernel", [spmv_reference, spmv])
    def test_out_initialized_from_y(self, kernel):
        a, x = self._case()
        y0 = np.full(12, 3.0)
        out = np.zeros(12)
        got = kernel(a, x, y=y0, out=out)
        assert got is out
        np.testing.assert_allclose(out, 3.0 + a.to_dense() @ x, rtol=1e-12)
        np.testing.assert_array_equal(y0, np.full(12, 3.0))

    def test_aliasing_out_is_y_accumulates_in_place(self):
        a, x = self._case()
        y = np.full(12, 2.0)
        got = spmv(a, x, y=y, out=y)
        assert got is y
        np.testing.assert_allclose(y, 2.0 + a.to_dense() @ x, rtol=1e-12)

    def test_blocked_out(self):
        a, x = self._case()
        blocked = partition_csr(a, block_bytes=5 * 12)
        out = np.empty(12)
        got = spmv_blocked(blocked, x, out=out)
        assert got is out
        np.testing.assert_allclose(out, a.to_dense() @ x, rtol=1e-12)

    def test_repeated_reuse_matches_fresh(self):
        a, x = self._case()
        out = np.empty(12)
        for _ in range(3):
            spmv(a, x, out=out)
        np.testing.assert_array_equal(out, spmv(a, x))

    def test_out_wrong_shape_raises(self):
        a, x = self._case()
        with pytest.raises(ValueError, match="out must have shape"):
            spmv(a, x, out=np.zeros(5))

    def test_out_wrong_dtype_raises(self):
        a, x = self._case()
        with pytest.raises(ValueError, match="float64"):
            spmv(a, x, out=np.zeros(12, dtype=np.float32))

    def test_out_not_writeable_raises(self):
        a, x = self._case()
        out = np.zeros(12)
        out.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            spmv(a, x, out=out)

    def test_out_not_ndarray_raises(self):
        a, x = self._case()
        with pytest.raises(ValueError, match="ndarray"):
            spmv(a, x, out=[0.0] * 12)


def adversarial_csr(draw):
    """A CSR matrix biased toward the kernels' edge cases: empty leading /
    trailing / interior rows, single-entry rows, one dense row (split into
    many blocks downstream), and tiny column counts."""
    n_cols = draw(st.integers(1, 12))
    lead = draw(st.integers(0, 3))
    trail = draw(st.integers(0, 3))
    body = draw(
        st.lists(
            st.one_of(
                st.just(0),  # interior empty rows, weighted heavily
                st.just(0),
                st.just(1),  # single-entry rows
                st.integers(1, n_cols),
                st.integers(2 * n_cols, 3 * n_cols),  # a dense row (splits)
            ),
            min_size=0,
            max_size=8,
        )
    )
    counts = [0] * lead + body + [0] * trail
    if not counts:
        counts = [0]
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    row_ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    nnz = int(row_ptr[-1])
    if nnz:
        # column indices sorted within each row, as CSR requires
        col_idx = np.concatenate(
            [np.sort(rng.integers(0, n_cols, size=c)) for c in counts]
        ).astype(np.int32)
    else:
        col_idx = np.zeros(0, dtype=np.int32)
    val = rng.normal(size=nnz)
    return CSRMatrix((len(counts), n_cols), row_ptr, col_idx, val)


class TestAdversarialDifferential:
    """Differential suite: spmv / spmv_blocked vs the scalar reference on
    adversarial shapes (satellite of the pipelined-executor issue)."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_spmv_matches_reference(self, data):
        a = adversarial_csr(data.draw)
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        x = rng.normal(size=a.ncols)
        ref = spmv_reference(a, x)
        np.testing.assert_allclose(spmv(a, x), ref, rtol=1e-12, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_blocked_matches_reference(self, data):
        a = adversarial_csr(data.draw)
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        x = rng.normal(size=a.ncols)
        entries = data.draw(st.integers(1, 6))
        blocked = partition_csr(a, block_bytes=entries * 12)
        ref = spmv_reference(a, x)
        np.testing.assert_allclose(
            spmv_blocked(blocked, x), ref, rtol=1e-12, atol=1e-14
        )

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_y0_accumulation_matches_reference(self, data):
        a = adversarial_csr(data.draw)
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        x = rng.normal(size=a.ncols)
        y0 = rng.normal(size=a.nrows)
        ref = spmv_reference(a, x, y=y0)
        np.testing.assert_allclose(spmv(a, x, y=y0), ref, rtol=1e-12, atol=1e-14)
        out = np.array(y0)
        np.testing.assert_allclose(
            spmv(a, x, y=out, out=out), ref, rtol=1e-12, atol=1e-14
        )


def _loop(blocked, x, y=None):
    """The per-block loop over the stored blocks, from ``y``."""
    return multiply_blocks(blocked, x, None if y is None else np.array(y, dtype=float))


def _oracle_csr(counts, ncols, seed, neg_zero=False) -> CSRMatrix:
    """Rows with the given entry counts; columns unique and sorted per row."""
    rng = np.random.default_rng(seed)
    row_ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    col_idx = np.concatenate(
        [np.empty(0, np.int64)]
        + [np.sort(rng.choice(ncols, size=c, replace=False)) for c in counts]
    )
    val = rng.normal(size=col_idx.size)
    if neg_zero:
        val[::3] = -0.0
    return CSRMatrix((len(counts), ncols), row_ptr, col_idx, val)


class TestHooklessOracle:
    """The hook-less kernel (one gather, one segment sum, one scatter-add
    per split-row pass over the concatenated blocks) against the per-block
    loop, byte for byte."""

    def _check(self, a, block_bytes=UDP_BLOCK_BYTES, seed=0):
        blocked = partition_csr(a, block_bytes=block_bytes)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=a.ncols)
        y0 = rng.normal(size=a.nrows)
        want = _loop(blocked, x).tobytes()
        assert spmv_blocked(blocked, x).tobytes() == want
        assert spmv_blocked(blocked.consolidated(), x).tobytes() == want
        assert spmv_blocked(blocked, x, y=y0).tobytes() == _loop(blocked, x, y=y0).tobytes()
        out = np.full(a.nrows, np.nan)
        assert spmv_blocked(blocked, x, out=out) is out
        assert out.tobytes() == want
        return blocked

    def test_row_split_over_three_blocks_with_empty_rows(self):
        # 8 KB blocks hold 682 entries: a 2000-entry row spans >= 3 blocks.
        counts = [0, 0, 5, 2000, 0, 7, 0, 0, 1500, 3, 0, 0]
        a = _oracle_csr(counts, 2500, seed=1)
        blocked = self._check(a)
        spans = [b for b in blocked.blocks if b.row_start <= 3 < b.row_end]
        assert len(spans) >= 3

    def test_all_empty_matrix(self):
        a = _oracle_csr([0] * 6, 4, seed=2)
        self._check(a)
        assert not spmv_blocked(partition_csr(a), np.ones(4)).any()

    def test_single_block(self):
        blocked = self._check(_oracle_csr([3, 0, 4, 1], 9, seed=3))
        assert blocked.nblocks == 1

    def test_negative_zero_values(self):
        a = _oracle_csr([0, 4, 900, 0, 2, 800, 0], 1000, seed=4, neg_zero=True)
        x = np.zeros(a.ncols)
        x[::2] = -0.0
        blocked = partition_csr(a)
        assert spmv_blocked(blocked, x).tobytes() == _loop(blocked, x).tobytes()
        self._check(a)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_adversarial_byte_equal(self, data):
        a = adversarial_csr(data.draw)
        self._check(a, block_bytes=data.draw(st.integers(1, 6)) * 12,
                    seed=data.draw(st.integers(0, 10_000)))

    def test_consolidated_blocks_are_readonly_views(self):
        blocked = partition_csr(_oracle_csr([5, 2000, 0, 9], 2500, seed=5))
        merged = blocked.consolidated()
        col, val = merged.flat
        assert merged.nnz == blocked.nnz and merged.nblocks == blocked.nblocks
        for mine, orig in zip(merged.blocks, blocked.blocks):
            assert np.shares_memory(mine.val, val) and np.shares_memory(mine.col_idx, col)
            assert np.array_equal(mine.val, orig.val)
            assert not mine.val.flags.writeable
