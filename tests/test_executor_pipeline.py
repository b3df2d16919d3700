"""Pipelined executor: bit-equality with the serial path, SpMM fusion.

The contract under test (ISSUE acceptance): ``mode="pipelined"`` must be
bit-identical to ``mode="serial"`` — result vector, TrafficLog byte
totals, ``dma_seconds``, degraded-block accounting, raised error types —
across worker counts, cache on/off, prefetch depths, and injected faults
under both failure policies. Fused SpMM must decode each block once and
match per-column SpMV bit-exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.codecs.engine import DecodedBlockCache, RecodeEngine
from repro.codecs.errors import BlockDecodeError
from repro.codecs.pipeline import compress_matrix
from repro.collection import generators
from repro.core import recoded_spmm, recoded_spmv
from repro.core.executor import BlockAccumulator, RunCounters, multiply_block
from repro.faults import FaultPlan
from repro.sparse.blocked import partition_csr


def make_engine(workers=0, cache=False):
    return RecodeEngine(
        workers=workers,
        executor="thread",
        cache=DecodedBlockCache(max_bytes=1 << 22) if cache else None,
        retry_base_s=0.0,
    )


@pytest.fixture(scope="module")
def plan():
    m = generators.unstructured(400, density=0.03, seed=3)
    return compress_matrix(m, block_bytes=2048)


@pytest.fixture(scope="module")
def split_plan():
    """Tiny byte budget on a dense-ish matrix: most blocks are split-row
    continuations (``leading_partial``), the accumulator's hard case."""
    m = generators.unstructured(60, density=0.5, seed=9)
    p = compress_matrix(m, block_bytes=60)
    assert any(b.leading_partial for b in p.blocked.blocks)
    return p


@pytest.fixture(scope="module")
def x(plan):
    return np.random.default_rng(7).standard_normal(plan.blocked.shape[1])


def assert_stats_parity(serial, pipelined):
    assert serial.dram_bytes == pipelined.dram_bytes
    assert serial.baseline_dram_bytes == pipelined.baseline_dram_bytes
    assert serial.traffic.bytes_on("dram", "udp") == pipelined.traffic.bytes_on(
        "dram", "udp"
    )
    assert serial.traffic.bytes_on("dram", "cpu") == pipelined.traffic.bytes_on(
        "dram", "cpu"
    )
    assert serial.traffic.bytes_on("udp", "cpu") == pipelined.traffic.bytes_on(
        "udp", "cpu"
    )
    assert serial.dma_seconds == pipelined.dma_seconds
    assert serial.degraded_blocks == pipelined.degraded_blocks


class TestPipelinedParity:
    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("cache", [False, True])
    @pytest.mark.parametrize("depth", [1, 4])
    def test_bit_identical_to_serial(self, plan, x, workers, cache, depth):
        ys, ss = recoded_spmv(
            plan, x, engine=make_engine(workers, cache), matrix_id="m", mode="serial"
        )
        yp, sp = recoded_spmv(
            plan, x, engine=make_engine(workers, cache), matrix_id="m",
            mode="pipelined", depth=depth,
        )
        np.testing.assert_array_equal(ys, yp)
        assert_stats_parity(ss, sp)
        assert ss.mode == "serial" and sp.mode == "pipelined"

    def test_warm_cache_parity(self, plan, x):
        eng_s = make_engine(2, cache=True)
        eng_p = make_engine(2, cache=True)
        for _ in range(3):
            ys, ss = recoded_spmv(plan, x, engine=eng_s, matrix_id="m", mode="serial")
            yp, sp = recoded_spmv(
                plan, x, engine=eng_p, matrix_id="m", mode="pipelined"
            )
            np.testing.assert_array_equal(ys, yp)
            assert_stats_parity(ss, sp)
        es, ep = ss.engine_stats, sp.engine_stats
        assert es["cache_hits"] == ep["cache_hits"] > 0
        assert es["blocks_decoded"] == ep["blocks_decoded"]
        assert es["bytes_decoded"] == ep["bytes_decoded"]

    def test_split_rows_all_depths(self, split_plan):
        xs = np.random.default_rng(1).standard_normal(split_plan.blocked.shape[1])
        ys, ss = recoded_spmv(split_plan, xs, mode="serial")
        for workers in (0, 2):
            for depth in (1, 3):
                yp, sp = recoded_spmv(
                    split_plan, xs, engine=make_engine(workers),
                    mode="pipelined", depth=depth,
                )
                np.testing.assert_array_equal(ys, yp)
                assert ss.dma_seconds == sp.dma_seconds

    def test_process_pool_parity(self, plan, x):
        ys, _ = recoded_spmv(plan, x, mode="serial")
        eng = RecodeEngine(workers=2, executor="process", retry_base_s=0.0)
        yp, _ = recoded_spmv(plan, x, engine=eng, mode="pipelined", depth=2)
        np.testing.assert_array_equal(ys, yp)

    def test_pipelined_requires_engine(self, plan, x):
        with pytest.raises(ValueError, match="requires a RecodeEngine"):
            recoded_spmv(plan, x, mode="pipelined")

    def test_bad_mode_and_depth(self, plan, x):
        with pytest.raises(ValueError, match="mode"):
            recoded_spmv(plan, x, mode="overlapped")
        with pytest.raises(ValueError, match="depth"):
            recoded_spmv(plan, x, engine=make_engine(), mode="pipelined", depth=0)

    def test_pipelined_rejects_udp_simulator(self, plan, x):
        with pytest.raises(ValueError, match="simulator"):
            recoded_spmv(
                plan, x, engine=make_engine(), mode="pipelined",
                use_udp_simulator=True,
            )


class TestFaultParity:
    def test_degrade_policy_parity(self, plan, x):
        fp = FaultPlan(seed=11, bitflip_blocks=(2, 7), worker_exc_blocks=(4,))
        with fp.activate():
            ys, ss = recoded_spmv(
                plan, x, engine=make_engine(2), matrix_id="f",
                mode="serial", policy="degrade",
            )
            yp, sp = recoded_spmv(
                plan, x, engine=make_engine(2), matrix_id="f",
                mode="pipelined", policy="degrade",
            )
        np.testing.assert_array_equal(ys, yp)
        assert_stats_parity(ss, sp)
        assert ss.degraded_blocks > 0

    def test_strict_policy_same_error(self, plan, x):
        fp = FaultPlan(seed=11, bitflip_blocks=(5,))
        with fp.activate():
            with pytest.raises(BlockDecodeError) as err_s:
                recoded_spmv(
                    plan, x, engine=make_engine(2), matrix_id="g",
                    mode="serial", policy="strict",
                )
            with pytest.raises(BlockDecodeError) as err_p:
                recoded_spmv(
                    plan, x, engine=make_engine(2), matrix_id="g",
                    mode="pipelined", policy="strict",
                )
        assert str(err_s.value) == str(err_p.value)
        assert err_s.value.block_id == err_p.value.block_id == 5

    def test_strict_multiple_failures_raises_lowest_block(self, plan, x):
        fp = FaultPlan(seed=3, bitflip_blocks=(6, 1, 9))
        with fp.activate():
            with pytest.raises(BlockDecodeError) as err_s:
                recoded_spmv(
                    plan, x, engine=make_engine(2), matrix_id="g2",
                    mode="serial", policy="strict",
                )
            with pytest.raises(BlockDecodeError) as err_p:
                recoded_spmv(
                    plan, x, engine=make_engine(2), matrix_id="g2",
                    mode="pipelined", depth=4, policy="strict",
                )
        assert str(err_s.value) == str(err_p.value)
        assert err_s.value.block_id == err_p.value.block_id == 1

    def test_dram_site_faults_bypass_engine(self, plan, x):
        fp = FaultPlan(seed=5, dram_bitflip_blocks=(1, 3))
        with fp.activate():
            ys, ss = recoded_spmv(
                plan, x, engine=make_engine(2), matrix_id="d",
                mode="serial", policy="degrade",
            )
            yp, sp = recoded_spmv(
                plan, x, engine=make_engine(2), matrix_id="d",
                mode="pipelined", policy="degrade",
            )
        np.testing.assert_array_equal(ys, yp)
        assert_stats_parity(ss, sp)
        assert ss.degraded_blocks == 2

    def test_worker_kill_recovery_parity(self, plan, x):
        fp = FaultPlan(seed=13, worker_kill_blocks=(3,))
        eng_s = RecodeEngine(workers=2, executor="process", retry_base_s=0.0)
        eng_p = RecodeEngine(workers=2, executor="process", retry_base_s=0.0)
        with fp.activate():
            ys, ss = recoded_spmv(
                plan, x, engine=eng_s, matrix_id="k",
                mode="serial", policy="degrade",
            )
            yp, sp = recoded_spmv(
                plan, x, engine=eng_p, matrix_id="k",
                mode="pipelined", policy="degrade",
            )
        np.testing.assert_array_equal(ys, yp)
        assert_stats_parity(ss, sp)

    @settings(max_examples=8, deadline=None)
    @given(
        bitflips=st.sets(st.integers(0, 11), max_size=3),
        excs=st.sets(st.integers(0, 11), max_size=2),
        seed=st.integers(0, 500),
        policy=st.sampled_from(["strict", "degrade"]),
        depth=st.integers(1, 5),
    )
    def test_random_fault_plans_parity(self, plan, x, bitflips, excs, seed, policy, depth):
        fp = FaultPlan(
            seed=seed,
            bitflip_blocks=tuple(sorted(bitflips)),
            worker_exc_blocks=tuple(sorted(excs)),
        )
        outcome_s = outcome_p = None
        with fp.activate():
            try:
                outcome_s = recoded_spmv(
                    plan, x, engine=make_engine(0), matrix_id=f"h{seed}",
                    mode="serial", policy=policy,
                )
            except BlockDecodeError as e:
                outcome_s = (str(e), e.block_id)
            try:
                outcome_p = recoded_spmv(
                    plan, x, engine=make_engine(0), matrix_id=f"h{seed}",
                    mode="pipelined", depth=depth, policy=policy,
                )
            except BlockDecodeError as e:
                outcome_p = (str(e), e.block_id)
        if isinstance(outcome_s, tuple) and isinstance(outcome_s[0], str):
            assert outcome_s == outcome_p
        else:
            ys, ss = outcome_s
            yp, sp = outcome_p
            np.testing.assert_array_equal(ys, yp)
            assert_stats_parity(ss, sp)


class TestFusedSpMM:
    def test_columns_match_spmv_bit_exactly(self, plan):
        X = np.random.default_rng(5).standard_normal((plan.blocked.shape[1], 4))
        Y, stats = recoded_spmm(plan, X, mode="serial")
        assert Y.shape == (plan.blocked.shape[0], 4)
        assert stats.nrhs == 4
        for j in range(4):
            yj, _ = recoded_spmv(plan, X[:, j], mode="serial")
            np.testing.assert_array_equal(Y[:, j], yj)

    def test_decodes_each_block_once(self, plan, x):
        X = np.random.default_rng(5).standard_normal((plan.blocked.shape[1], 6))
        _, sm = recoded_spmm(plan, X, mode="serial")
        _, s1 = recoded_spmv(plan, x, mode="serial")
        # A-side DRAM traffic of a 6-column multiply equals one SpMV's.
        assert sm.traffic.bytes_on("dram", "udp") == s1.traffic.bytes_on(
            "dram", "udp"
        )
        eng = make_engine(0, cache=True)
        _, sm2 = recoded_spmm(plan, X, engine=eng, matrix_id="mm", mode="serial")
        assert sm2.engine_stats["blocks_decoded"] == plan.nblocks

    def test_pipelined_spmm_parity(self, plan):
        X = np.random.default_rng(6).standard_normal((plan.blocked.shape[1], 3))
        Ys, ss = recoded_spmm(plan, X, engine=make_engine(0), mode="serial")
        for workers in (0, 2):
            Yp, sp = recoded_spmm(
                plan, X, engine=make_engine(workers), mode="pipelined", depth=2
            )
            np.testing.assert_array_equal(Ys, Yp)
            assert_stats_parity(ss, sp)
            assert sp.nrhs == 3

    def test_split_rows_spmm_parity(self, split_plan):
        X = np.random.default_rng(2).standard_normal((split_plan.blocked.shape[1], 3))
        Ys, _ = recoded_spmm(split_plan, X, mode="serial")
        Yp, _ = recoded_spmm(
            split_plan, X, engine=make_engine(2), mode="pipelined"
        )
        np.testing.assert_array_equal(Ys, Yp)

    def test_degrade_parity(self, plan):
        X = np.random.default_rng(8).standard_normal((plan.blocked.shape[1], 2))
        fp = FaultPlan(seed=21, bitflip_blocks=(0, 4))
        with fp.activate():
            Ys, ss = recoded_spmm(
                plan, X, engine=make_engine(0), matrix_id="df",
                mode="serial", policy="degrade",
            )
            Yp, sp = recoded_spmm(
                plan, X, engine=make_engine(0), matrix_id="df",
                mode="pipelined", policy="degrade",
            )
        np.testing.assert_array_equal(Ys, Yp)
        assert_stats_parity(ss, sp)

    def test_bad_x_shape(self, plan):
        with pytest.raises(ValueError, match="X must have shape"):
            recoded_spmm(plan, np.ones(plan.blocked.shape[1]))
        with pytest.raises(ValueError, match="X must have shape"):
            recoded_spmm(plan, np.ones((3, 2)))


class TestPipelineMetrics:
    def test_pipelined_run_emits_pipeline_metrics(self, plan, x):
        with obs.scoped_registry() as reg:
            recoded_spmv(plan, x, engine=make_engine(2), mode="pipelined")
            names = set(obs.aggregate_by_name(reg.snapshot()))
        assert "spmv.pipeline.runs" in names
        assert "spmv.pipeline.queue_depth" in names
        assert "spmv.pipeline.inflight" in names
        assert "spmv.pipeline.multiply_idle_seconds" in names
        assert "spmv.pipeline.decode_idle_seconds" in names
        assert "spmv.pipeline.multiply_seconds" in names

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_pool_decode_emits_inline_span_count(self, plan, x, executor):
        # One codecs.engine.decode span per chunk, wherever the chunk runs.
        def decode_spans(workers):
            eng = RecodeEngine(workers=workers, executor=executor, chunk_blocks=4)
            try:
                with obs.scoped_tracer(obs.Tracer(enabled=True)) as tracer:
                    recoded_spmv(plan, x, engine=eng, mode="pipelined")
            finally:
                eng.close()
            return [e for e in tracer.events() if e["name"] == "codecs.engine.decode"]

        inline = decode_spans(0)
        assert len(inline) == -(-plan.nblocks // 4)
        assert len(decode_spans(2)) == len(inline)

    def test_serial_run_does_not(self, plan, x):
        with obs.scoped_registry() as reg:
            recoded_spmv(plan, x, engine=make_engine(0), mode="serial")
            names = set(obs.aggregate_by_name(reg.snapshot()))
        assert not any(n.startswith("spmv.pipeline.") for n in names)

    def test_spmm_uses_spmm_prefix(self, plan):
        X = np.ones((plan.blocked.shape[1], 2))
        with obs.scoped_registry() as reg:
            recoded_spmm(plan, X, mode="serial")
            names = set(obs.aggregate_by_name(reg.snapshot()))
        assert "spmm.iterations" in names
        assert "spmm.flops" in names
        assert "spmv.iterations" not in names


class TestRunCounters:
    def test_cursor_and_degraded(self):
        c = RunCounters()
        assert [c.next_block() for _ in range(3)] == [0, 1, 2]
        c.add_degraded()
        c.add_degraded(2)
        assert c.degraded == 3
        assert c.blocks_started == 3

    def test_thread_safety(self):
        import threading

        c = RunCounters()
        seen = []

        def claim():
            for _ in range(500):
                seen.append(c.next_block())
                c.add_degraded()

        threads = [threading.Thread(target=claim) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(seen) == list(range(2000))
        assert c.degraded == 2000


class TestBlockAccumulator:
    def _blocked(self):
        m = generators.unstructured(40, density=0.6, seed=4)
        return partition_csr(m, block_bytes=48)  # 4 entries/block: many splits

    def test_out_of_order_equals_in_order(self):
        blocked = self._blocked()
        xs = np.random.default_rng(3).standard_normal(blocked.shape[1])
        order = np.random.default_rng(4).permutation(blocked.nblocks)

        out_fwd = np.zeros(blocked.shape[0])
        acc = BlockAccumulator(blocked.blocks, out_fwd)
        for i in range(blocked.nblocks):
            multiply_block(blocked.blocks[i], xs, acc, i)
        acc.finalize()

        out_perm = np.zeros(blocked.shape[0])
        acc2 = BlockAccumulator(blocked.blocks, out_perm)
        for i in order:
            multiply_block(blocked.blocks[int(i)], xs, acc2, int(i))
        acc2.finalize()

        np.testing.assert_array_equal(out_fwd, out_perm)

    def test_matches_serial_kernel(self):
        from repro.sparse.spmv import spmv_blocked

        blocked = self._blocked()
        xs = np.random.default_rng(5).standard_normal(blocked.shape[1])
        out = np.zeros(blocked.shape[0])
        acc = BlockAccumulator(blocked.blocks, out)
        for i in reversed(range(blocked.nblocks)):
            multiply_block(blocked.blocks[i], xs, acc, i)
        acc.finalize()
        np.testing.assert_array_equal(out, spmv_blocked(blocked, xs))
