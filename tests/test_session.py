"""ExecutionSession: steady-state reuse must be invisible in the results.

The session's whole contract is "bit-identical to single-shot, cheaper
after the first call": warm fast-path SpMV/SpMM out of the decoded-block
cache, reused output buffers, a verified-once CRC memo for reader-backed
sessions, and cumulative engine counters that survive scoped metric
registries. Faulted/degraded runs must stay cold (honest per-iteration
traffic), and scrub must keep re-checking CRCs regardless of the memo.
"""

import numpy as np
import pytest

from repro import faults, obs
from repro.codecs import save_plan
from repro.codecs.container import ContainerReader, scrub_container
from repro.codecs.engine import DecodedBlockCache, RecodeEngine
from repro.codecs.stats import dsh_plan
from repro.collection import generators
from repro.core import ExecutionSession, recoded_spmm, recoded_spmv
from repro.faults import FaultPlan
from repro.sparse.blocked import CSRBlock


@pytest.fixture(scope="module")
def plan():
    return dsh_plan(generators.banded(1200, bandwidth=5, seed=3))


@pytest.fixture(scope="module")
def vectors(plan):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(plan.blocked.shape[1])
    X = rng.standard_normal((plan.blocked.shape[1], 3))
    return x, X


@pytest.fixture(scope="module")
def reference(plan, vectors):
    x, X = vectors
    y, _ = recoded_spmv(plan, x)
    Y, _ = recoded_spmm(plan, X)
    return y.tobytes(), Y.tobytes()


class TestWarmPath:
    def test_warm_spmv_bit_identical_and_trafficless(self, plan, vectors, reference):
        x, _ = vectors
        with ExecutionSession(plan, matrix_id="warm") as sess:
            y1, s1 = sess.spmv(x)
            assert y1.tobytes() == reference[0]
            assert s1.dram_bytes > 0
            assert sess.warm
            y2, s2 = sess.spmv(x)
            assert y2.tobytes() == reference[0]
            # Steady state: no DRAM stream, no DMA charge, all blocks reused.
            assert s2.dram_bytes == 0
            assert s2.dma_seconds == 0.0
            assert sess.warm_calls == 1 and sess.cold_calls == 1
            assert sess.blocks_reused == plan.nblocks

    def test_spmm_goes_warm_off_spmv_populated_cache(self, plan, vectors, reference):
        x, X = vectors
        with ExecutionSession(plan, matrix_id="shared") as sess:
            sess.spmv(x)
            Y, stats = sess.spmm(X)
            assert Y.tobytes() == reference[1]
            assert stats.dram_bytes == 0  # cache shared across ops
            assert sess.warm_calls == 1

    def test_out_buffer_identity_reuse(self, plan, vectors):
        x, _ = vectors
        with ExecutionSession(plan) as sess:
            y1, _ = sess.spmv(x)
            y2, _ = sess.spmv(x)
            assert y2 is y1
            assert sess.out_reuses == 1

    def test_caller_out_buffer_respected(self, plan, vectors, reference):
        x, _ = vectors
        out = np.empty(plan.blocked.shape[0])
        with ExecutionSession(plan) as sess:
            sess.spmv(x)
            y, _ = sess.spmv(x, out=out)
            assert y is out
            assert out.tobytes() == reference[0]

    def test_fast_path_falls_back_after_external_cache_clear(
        self, plan, vectors, reference
    ):
        x, _ = vectors
        with ExecutionSession(plan, matrix_id="cleared") as sess:
            sess.spmv(x)
            assert sess.warm
            sess.engine.cache.clear()
            y, stats = sess.spmv(x)  # probe misses -> cold fallback
            assert y.tobytes() == reference[0]
            assert stats.dram_bytes > 0
            assert sess.cold_calls == 2 and sess.warm_calls == 0
            y, stats = sess.spmv(x)  # and the fallback re-warmed it
            assert stats.dram_bytes == 0


class TestAssembleOnce:
    """The warm path multiplies one consolidated matrix assembled from the
    cached blocks; the cache's change counter guards it."""

    def test_clear_after_warm_call_forces_cold(self, plan, vectors, reference):
        x, _ = vectors
        with ExecutionSession(plan, matrix_id="clear-after-warm") as sess:
            sess.spmv(x)
            _, stats = sess.spmv(x)
            assert stats.dram_bytes == 0 and sess.warm_calls == 1
            sess.engine.cache.clear()
            y, stats = sess.spmv(x)
            assert y.tobytes() == reference[0]
            assert stats.dram_bytes > 0
            assert sess.cold_calls == 2 and sess.warm_calls == 1
            y, stats = sess.spmv(x)
            assert y.tobytes() == reference[0]
            assert stats.dram_bytes == 0 and sess.warm_calls == 2

    def test_eviction_in_borrowed_engine_forces_cold_then_rewarms(
        self, plan, vectors, reference
    ):
        x, _ = vectors
        cache = DecodedBlockCache(max_bytes=12 * plan.nnz + 12 * 10)
        engine = RecodeEngine(cache=cache)
        foreign = CSRBlock(0, 1, np.array([0, 50]), np.zeros(50), np.zeros(50), 0)
        try:
            with ExecutionSession(plan, matrix_id="evicted", engine=engine) as sess:
                sess.spmv(x)
                sess.spmv(x)
                assert sess.warm_calls == 1
                cache.put(("other", 0, "fp"), foreign)
                assert cache.stats.evictions > 0
                y, stats = sess.spmv(x)
                assert y.tobytes() == reference[0]
                assert stats.dram_bytes > 0 and sess.cold_calls == 2
                y, stats = sess.spmv(x)
                assert y.tobytes() == reference[0]
                assert stats.dram_bytes == 0 and sess.warm_calls == 2
        finally:
            engine.close()

    @pytest.mark.parametrize("how", ["evict_matrix", "clear", "share_eviction"])
    def test_shared_cache_eviction_forces_cold_then_rewarms(
        self, plan, vectors, reference, how
    ):
        """Whatever takes a block out of a serve-style shared cache (its
        per-matrix share, ``evict_matrix`` or ``clear``) sends the session
        cold instead of failing its warm-path probe."""
        x, _ = vectors
        cache = DecodedBlockCache(max_bytes=24 * plan.nnz, max_matrix_frac=0.5)
        foreign = CSRBlock(0, 1, np.array([0, 50]), np.zeros(50), np.zeros(50), 0)
        with ExecutionSession(
            plan, matrix_id="a", engine=RecodeEngine(cache=cache)
        ) as sess:
            sess.spmv(x)
            sess.spmv(x)
            assert sess.warm_calls == 1
            if how == "evict_matrix":
                cache.evict_matrix("a")
            elif how == "clear":
                cache.clear()
            else:
                cache.put(("a", -1, "fp"), foreign)  # lifts "a" over its share
                assert cache.matrix_evictions == 1
            y, stats = sess.spmv(x)
            assert y.tobytes() == reference[0]
            assert stats.dram_bytes > 0 and sess.cold_calls == 2
            y, stats = sess.spmv(x)
            assert y.tobytes() == reference[0]
            assert stats.dram_bytes == 0 and sess.warm_calls == 2

    def test_warm_blocks_share_one_allocation(self, plan, vectors):
        x, _ = vectors
        with ExecutionSession(plan, matrix_id="views") as sess:
            sess.spmv(x)
            resident = sess.stats()["resident_bytes"]
            assert resident == 12 * plan.nnz
            sess.spmv(x)
            keys = [("views", i, sess._fingerprint) for i in range(plan.nblocks)]
            blocks, _ = sess.engine.cache.peek_all(keys)
            col, val = sess._warm_blocked.flat
            assert val.size == plan.nnz
            for block in blocks:
                assert np.shares_memory(block.val, val)
                assert np.shares_memory(block.col_idx, col)
            assert sess.stats()["resident_bytes"] == resident

    def test_warm_call_credits_every_block_as_a_hit(self, plan, vectors):
        x, _ = vectors
        with ExecutionSession(plan, matrix_id="hits") as sess:
            sess.spmv(x)
            before = sess.engine.cache.stats.hits
            _, stats = sess.spmv(x)
            assert sess.engine.cache.stats.hits == before + plan.nblocks
            assert stats.traffic.bytes_on("udp", "cpu") == 12 * plan.nnz

    def test_warm_spmm_bit_identical_to_cold(self, plan, vectors, reference):
        _, X = vectors
        with ExecutionSession(plan, matrix_id="spmm-warm") as sess:
            cold, cold_stats = sess.spmm(X)
            cold = cold.tobytes()
            warm, warm_stats = sess.spmm(X)
            assert cold_stats.dram_bytes > 0 and warm_stats.dram_bytes == 0
            assert warm.tobytes() == cold == reference[1]


class TestColdPerCall:
    def test_reuse_false_never_warms(self, plan, vectors, reference):
        x, _ = vectors
        with ExecutionSession(plan, reuse=False) as sess:
            ys = [sess.spmv(x) for _ in range(3)]
            for y, stats in ys:
                assert y.tobytes() == reference[0]
                assert stats.dram_bytes > 0
            assert sess.cold_calls == 3 and sess.warm_calls == 0
            assert ys[0][0] is not ys[1][0]  # fresh buffers every call

    def test_reset_drops_warm_state(self, plan, vectors):
        x, _ = vectors
        with ExecutionSession(plan) as sess:
            sess.spmv(x)
            assert sess.warm
            sess.reset()
            assert not sess.warm
            _, stats = sess.spmv(x)
            assert stats.dram_bytes > 0


class TestFaultHonesty:
    def test_armed_fault_plan_disables_warm_path(self, plan, vectors, reference):
        """Chaos runs pay (and account) the full stream every iteration."""
        x, _ = vectors
        with ExecutionSession(plan, policy="degrade") as sess:
            sess.spmv(x)
            assert sess.warm
            with FaultPlan(seed=1).activate():
                assert not sess.warm
                for _ in range(2):
                    y, stats = sess.spmv(x)
                    assert y.tobytes() == reference[0]
                    assert stats.dram_bytes > 0
            assert faults.active() is None

    def test_degraded_run_does_not_warm(self, plan, vectors):
        x, _ = vectors
        chaos = FaultPlan(seed=9, bitflip_blocks=tuple(range(plan.nblocks)))
        with ExecutionSession(plan, policy="degrade") as sess:
            with chaos.activate():
                _, stats = sess.spmv(x)
                assert stats.degraded_blocks > 0
            # Every block degraded: nothing cached, session stays cold.
            assert not sess.warm


class TestReaderBacked:
    def test_crc_memo_skips_after_first_touch(self, tmp_path):
        # Enough blocks that the reader's 32-entry lazy-record LRU must
        # evict, so later accesses re-stream records instead of hitting
        # the in-memory objects — exactly where the memo pays.
        big = dsh_plan(generators.banded(4000, bandwidth=7, seed=3))
        x = np.random.default_rng(5).standard_normal(big.blocked.shape[1])
        y_ref, _ = recoded_spmv(big, x)
        path = tmp_path / "m.dsh"
        save_plan(big, path)
        with ExecutionSession(path, matrix_id="disk") as sess:
            assert sess.reader is not None
            y1, _ = sess.spmv(x)
            assert y1.tobytes() == y_ref.tobytes()
            # Construction materialized (and CRC-checked) every record
            # once; re-streams hit the memo instead of re-CRCing.
            assert sess.stats()["crc_skips"] > 0

    def test_scrub_still_rechecks_crcs(self, plan, tmp_path):
        path = tmp_path / "m.dsh"
        save_plan(plan, path)
        with ExecutionSession(path) as sess:
            # The session's reader has verified every record once and
            # memoized it; scrub reads the file itself and checks again.
            report = scrub_container(path)
        assert len(report.blocks) == plan.nblocks
        for block in report.blocks:
            assert block.index.crc_ok and block.value.crc_ok

    def test_reuse_false_leaves_memo_off(self, plan, vectors, tmp_path):
        x, _ = vectors
        path = tmp_path / "m.dsh"
        save_plan(plan, path)
        with ExecutionSession(path, reuse=False) as sess:
            sess.spmv(x)
            assert sess.stats()["crc_skips"] == 0


class TestLifecycle:
    def test_borrowed_engine_not_closed(self, plan, vectors):
        x, _ = vectors
        engine = RecodeEngine(cache=DecodedBlockCache())
        try:
            with ExecutionSession(plan, engine=engine) as sess:
                sess.spmv(x)
            engine.decode_block(plan, 0, matrix_id="still-open")
        finally:
            engine.close()

    def test_closed_session_raises(self, plan, vectors):
        x, _ = vectors
        sess = ExecutionSession(plan)
        sess.close()
        with pytest.raises(RuntimeError, match="closed"):
            sess.spmv(x)

    def test_rejects_unknown_source_type(self):
        with pytest.raises(TypeError, match="plan must be"):
            ExecutionSession(42)


class TestObservability:
    def test_session_counters_published_to_active_registry(self, plan, vectors):
        x, _ = vectors
        with obs.scoped_registry() as reg:
            with ExecutionSession(plan) as sess:
                sess.spmv(x)
                sess.spmv(x)
            assert reg.value("session.calls") == 2
            assert reg.value("session.warm_calls") == 1
            assert reg.value("session.cold_calls") == 1
            assert reg.value("session.blocks_reused") == plan.nblocks

    def test_engine_stats_cumulative_across_scoped_registries(self, plan, vectors):
        """The satellite fix: EngineStats totals are engine-lifetime
        cumulative, not bound to whichever registry was active at
        construction time."""
        x, _ = vectors
        engine = RecodeEngine(cache=DecodedBlockCache())
        try:
            with obs.scoped_registry():
                recoded_spmv(plan, x, engine=engine, matrix_id="a")
            assert engine.stats.blocks_decoded == plan.nblocks
            with obs.scoped_registry() as reg2:
                recoded_spmv(plan, x, engine=engine, matrix_id="a")
                # Fresh registry still gets this scope's increments (the
                # second run is served by the engine cache)...
                label = engine.stats.engine_label
                assert (
                    reg2.value("codecs.engine.cache_hits", engine=label)
                    == plan.nblocks
                )
            # ...while the engine's own totals keep accumulating.
            assert engine.stats.cache_hits == plan.nblocks
            assert engine.stats.blocks_decoded == plan.nblocks
        finally:
            engine.close()
