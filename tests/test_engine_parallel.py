"""Recode engine: decode byte-identical to the plan's own
``decompress_block``, decoded-block cache correctness, and deterministic
results regardless of test ordering (run with ``pytest -p no:randomly``
to pin collection order; nothing here depends on it)."""

import multiprocessing

import numpy as np
import pytest

from repro.codecs.engine import (
    DecodedBlockCache,
    RecodeEngine,
    plan_fingerprint,
)
from repro.codecs.pipeline import compress_matrix
from repro.collection import generators
from repro.core import recoded_spmv
from repro.sparse.blocked import CSRBlock
from repro.sparse.csr import CSRMatrix
from repro.sparse.spmv import spmv


def _block_equal(a: CSRBlock, b: CSRBlock) -> bool:
    return (
        a.row_start == b.row_start
        and a.row_end == b.row_end
        and a.leading_partial == b.leading_partial
        and a.nnz_start == b.nnz_start
        and np.array_equal(a.row_ptr, b.row_ptr)
        and np.array_equal(a.col_idx, b.col_idx)
        and a.val.tobytes() == b.val.tobytes()
    )


@pytest.fixture(scope="module")
def matrix():
    # ~9 blocks at the 8 KB budget.
    return generators.banded(n=1200, bandwidth=5, seed=3)


@pytest.fixture(scope="module")
def serial_plan(matrix):
    return compress_matrix(matrix)


class TestDecodeEquivalence:
    def test_decode_matches_serial(self, serial_plan):
        engine = RecodeEngine()
        blocks = engine.decode_blocked(serial_plan)
        assert len(blocks) == serial_plan.nblocks
        for i, block in enumerate(blocks):
            assert _block_equal(block, serial_plan.decompress_block(i))

    def test_subset_and_duplicate_ids_keep_request_order(self, serial_plan):
        ids = [3, 1, 1, 0, 3]
        blocks = RecodeEngine().decode_blocked(serial_plan, ids)
        assert [b.row_start for b in blocks] == [
            serial_plan.blocked.blocks[i].row_start for i in ids
        ]
        for i, block in zip(ids, blocks):
            assert _block_equal(block, serial_plan.decompress_block(i))

    @pytest.mark.parametrize("bad", [-1, 999])
    def test_out_of_range_block_id_raises(self, serial_plan, bad):
        with pytest.raises(ValueError, match="out of range"):
            RecodeEngine().decode_blocked(serial_plan, [bad])

    def test_decode_never_spawns_the_pool(self, serial_plan):
        # ``workers`` is accepted but selects no code: decode runs inline
        # on the caller's thread and no child process is ever started.
        engine = RecodeEngine(workers=2)
        engine.decode_blocked(serial_plan)
        engine.decode_block(serial_plan, 1)
        x = np.random.default_rng(0).standard_normal(serial_plan.blocked.shape[1])
        recoded_spmv(serial_plan, x, engine=engine, mode="pipelined")
        assert multiprocessing.active_children() == []

    def test_decode_stats_accounting(self, serial_plan):
        engine = RecodeEngine()
        engine.decode_blocked(serial_plan)
        assert engine.stats.blocks_decoded == serial_plan.nblocks
        assert engine.stats.bytes_decoded == 12 * serial_plan.nnz
        assert engine.stats.decode_seconds > 0
        assert engine.stats.decode_mb_per_s > 0
        engine.reset_stats()
        assert engine.stats.blocks_decoded == 0
        assert engine.stats.bytes_decoded == 0


class TestDecodedBlockCache:
    def test_repeat_decode_hits_cache_with_identical_blocks(self, serial_plan):
        engine = RecodeEngine(cache=DecodedBlockCache())
        first = engine.decode_blocked(serial_plan, matrix_id="m")
        second = engine.decode_blocked(serial_plan, matrix_id="m")
        assert engine.stats.cache_hits == serial_plan.nblocks
        assert engine.stats.blocks_decoded == serial_plan.nblocks  # only pass 1
        for a, b in zip(first, second):
            assert a is b  # cached object, not a re-decode

    def test_distinct_matrix_ids_do_not_cross_hit(self, serial_plan):
        engine = RecodeEngine(cache=DecodedBlockCache())
        engine.decode_blocked(serial_plan, matrix_id="a")
        engine.decode_blocked(serial_plan, matrix_id="b")
        assert engine.stats.cache_hits == 0
        assert engine.stats.blocks_decoded == 2 * serial_plan.nblocks

    def test_distinct_plans_do_not_cross_hit(self, matrix):
        engine = RecodeEngine(cache=DecodedBlockCache())
        dsh = compress_matrix(matrix)
        snappy = compress_matrix(matrix, use_delta=False, use_huffman=False)
        engine.decode_blocked(dsh, matrix_id="m")
        blocks = engine.decode_blocked(snappy, matrix_id="m")
        assert engine.stats.cache_hits == 0
        for i, block in enumerate(blocks):
            assert _block_equal(block, snappy.decompress_block(i))

    def test_eviction_keeps_results_correct(self, serial_plan):
        # Budget for roughly two decoded blocks: constant thrash, still exact.
        cache = DecodedBlockCache(max_bytes=2 * 12 * serial_plan.blocked.blocks[0].nnz)
        engine = RecodeEngine(cache=cache)
        for _ in range(2):
            blocks = engine.decode_blocked(serial_plan, matrix_id="m")
            for i, block in enumerate(blocks):
                assert _block_equal(block, serial_plan.decompress_block(i))
        assert cache.stats.evictions > 0
        assert cache.stats.current_bytes <= cache.max_bytes

    def test_lru_evicts_oldest_first(self):
        cache = DecodedBlockCache(max_bytes=1 << 30, max_blocks=2)
        blk = CSRBlock(0, 1, np.array([0, 1]), np.zeros(1, np.int32),
                       np.zeros(1), 0, False)
        cache.put(("m", 0, "f"), blk)
        cache.put(("m", 1, "f"), blk)
        assert cache.get(("m", 0, "f")) is not None  # 0 now most-recent
        cache.put(("m", 2, "f"), blk)  # evicts 1, the LRU entry
        assert cache.get(("m", 1, "f")) is None
        assert cache.get(("m", 0, "f")) is not None
        assert cache.get(("m", 2, "f")) is not None
        assert cache.stats.evictions == 1

    def test_clear_empties_cache(self):
        cache = DecodedBlockCache()
        blk = CSRBlock(0, 1, np.array([0, 1]), np.zeros(1, np.int32),
                       np.zeros(1), 0, False)
        cache.put(("m", 0, "f"), blk)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.current_bytes == 0
        assert cache.get(("m", 0, "f")) is None

    def test_hit_rate(self):
        cache = DecodedBlockCache()
        blk = CSRBlock(0, 1, np.array([0, 1]), np.zeros(1, np.int32),
                       np.zeros(1), 0, False)
        assert cache.stats.hit_rate == 0.0
        cache.put(("k",), blk)
        cache.get(("k",))
        cache.get(("missing",))
        assert cache.stats.hit_rate == pytest.approx(0.5)


class TestFingerprint:
    def test_identical_content_same_fingerprint(self, matrix):
        a = compress_matrix(matrix)
        b = compress_matrix(matrix)
        assert a is not b
        assert plan_fingerprint(a) == plan_fingerprint(b)

    def test_different_scheme_different_fingerprint(self, matrix):
        dsh = compress_matrix(matrix)
        raw = compress_matrix(matrix, use_delta=False, use_huffman=False)
        assert plan_fingerprint(dsh) != plan_fingerprint(raw)

    def test_same_streams_other_rows_do_not_share_cached_blocks(self):
        """Two plans whose col/val streams (so records and tables) are
        equal but whose rows differ: one entry per row against two in
        every other row. A shared cache under one matrix id must not hand
        the second plan the first's blocks."""
        n = 64
        col = np.arange(n, dtype=np.int32)
        val = np.random.default_rng(5).standard_normal(n)
        one = CSRMatrix((n, n), np.arange(n + 1), col, val)
        two = CSRMatrix((n, n), np.arange(n + 1) // 2 * 2, col, val)
        plans = [compress_matrix(m) for m in (one, two)]
        assert plans[0].index_records == plans[1].index_records
        assert plans[0].value_records == plans[1].value_records
        assert plan_fingerprint(plans[0]) != plan_fingerprint(plans[1])
        engine = RecodeEngine(cache=DecodedBlockCache())
        x = np.random.default_rng(6).standard_normal(n)
        for m, plan in zip((one, two), plans):
            y, _ = recoded_spmv(plan, x, engine=engine, matrix_id="shared")
            assert y.tobytes() == spmv(m, x).tobytes()

    def test_fingerprint_memoized_per_object(self, serial_plan):
        assert plan_fingerprint(serial_plan) == plan_fingerprint(serial_plan)


class TestEngineValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            RecodeEngine(workers=-1)

    def test_bad_sample_frac_rejected(self, matrix):
        with pytest.raises(ValueError, match="sample_frac"):
            compress_matrix(matrix, sample_frac=0.0)

    @pytest.mark.parametrize("bad", [-1, 0])
    def test_cache_budget_validation(self, bad):
        with pytest.raises(ValueError, match="max_bytes"):
            DecodedBlockCache(max_bytes=bad)
        with pytest.raises(ValueError, match="max_blocks"):
            DecodedBlockCache(max_blocks=bad)


class TestEdgeMatrices:
    def test_empty_matrix_round_trips(self):
        from repro.sparse.csr import CSRMatrix

        m = CSRMatrix((8, 8), np.zeros(9, dtype=np.int64),
                      np.zeros(0, dtype=np.int32), np.zeros(0))
        ser = compress_matrix(m)
        blocks = RecodeEngine().decode_blocked(ser)
        assert len(blocks) == ser.nblocks
        for i, block in enumerate(blocks):
            assert _block_equal(block, ser.decompress_block(i))
            assert block.nnz == 0

    def test_single_block_matrix(self):
        m = generators.banded(n=40, bandwidth=2, seed=1)
        ser = compress_matrix(m)
        blocks = RecodeEngine().decode_blocked(ser)
        for i, block in enumerate(blocks):
            assert _block_equal(block, ser.decompress_block(i))
