"""Pipelined executor: bit-equality with the serial path, SpMM fusion.

The contract under test (ISSUE acceptance): ``mode="pipelined"`` must be
bit-identical to ``mode="serial"`` — result vector, TrafficLog byte
totals, ``dma_seconds``, degraded-block accounting, raised error types —
across worker counts, cache on/off, prefetch depths, and injected faults
under both failure policies. Fused SpMM must decode each block once and
match per-column SpMV bit-exactly.
"""

import inspect
import os
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.codecs import engine as engine_mod
from repro.codecs.engine import AsyncDecode, DecodedBlockCache, RecodeEngine
from repro.codecs.errors import BlockDecodeError
from repro.codecs.pipeline import compress_matrix
from repro.collection import generators
from repro.core import recoded_spmm, recoded_spmv
from repro.core import RunCancelled
from repro.core.executor import multiply_block
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


class TestInputShape:
    """Every mode rejects a wrong-shape operand with serial's ValueError."""

    @pytest.mark.parametrize("mode", ["serial", "pipelined"])
    @pytest.mark.parametrize("kind", ["long", "short", "2d"])
    def test_spmv_wrong_x(self, plan, mode, kind):
        n = plan.blocked.shape[1]
        bad = {"long": np.ones(n + 5), "short": np.ones(n - 1), "2d": np.ones((n, 2))}[kind]
        msg = re.escape(f"x must have shape ({n},), got {bad.shape}")
        with pytest.raises(ValueError, match=msg):
            recoded_spmv(plan, bad, engine=make_engine(2), mode=mode)

    @pytest.mark.parametrize("mode", ["serial", "pipelined"])
    @pytest.mark.parametrize("rows", [-1, 5])
    def test_spmm_wrong_row_count(self, plan, mode, rows):
        n = plan.blocked.shape[1]
        bad = np.ones((n + rows, 2))
        msg = re.escape(f"X must have shape ({n}, k), got {bad.shape}")
        with pytest.raises(ValueError, match=msg):
            recoded_spmm(plan, bad, engine=make_engine(2), mode=mode)


class TestInOrderConsumption:
    def test_out_of_order_completion_matches_serial(self, plan, x, monkeypatch):
        """Block 0's chunk finishes last; the hook still multiplies in
        block order, so every serial observable is reproduced."""
        real_chunk = engine_mod._decode_pair_chunk

        def slow_first_chunk(task):
            if 0 in task[0]:
                time.sleep(0.2)
            return real_chunk(task)

        yielded = []
        real_next = AsyncDecode.__next__

        def spy_next(self):
            item = real_next(self)
            yielded.append(item[0])
            return item

        fp = FaultPlan(seed=4, bitflip_blocks=(6,))
        with fp.activate():
            ys, ss = recoded_spmv(
                plan, x, engine=make_engine(0), mode="serial", policy="degrade"
            )
            monkeypatch.setattr(engine_mod, "_decode_pair_chunk", slow_first_chunk)
            monkeypatch.setattr(AsyncDecode, "__next__", spy_next)
            eng = RecodeEngine(workers=2, executor="thread", chunk_blocks=2,
                               retry_base_s=0.0)
            try:
                yp, sp = recoded_spmv(
                    plan, x, engine=eng, mode="pipelined", depth=4, policy="degrade"
                )
            finally:
                eng.close()
        assert yielded[0] != 0 and sorted(yielded) == list(range(plan.nblocks))
        np.testing.assert_array_equal(ys, yp)
        assert ss.traffic.edges() == sp.traffic.edges()
        assert ss.dma_seconds == sp.dma_seconds
        assert ss.degraded_blocks == sp.degraded_blocks == 1


class TestPipelinedLifecycle:
    """However a pipelined run ends, its handle is closed, no fd leaks,
    and the engine serves the next call bit-identically."""

    @staticmethod
    def _fds() -> int:
        return len(os.listdir("/proc/self/fd"))

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_success_strict_degrade_cancel(self, plan, x, monkeypatch):
        handles = []
        real_async = RecodeEngine.decode_blocks_async

        def spy_async(self, *args, **kwargs):
            handle = real_async(self, *args, **kwargs)
            handles.append(handle)
            return handle

        monkeypatch.setattr(RecodeEngine, "decode_blocks_async", spy_async)
        y_ref, _ = recoded_spmv(plan, x, mode="serial")
        eng = RecodeEngine(workers=2, executor="process", chunk_blocks=2,
                           retry_base_s=0.0)
        fault = FaultPlan(seed=11, bitflip_blocks=(5,))
        calls = []

        def cancel_after_three():
            calls.append(None)
            return len(calls) > 3

        def check(mid):
            y, _ = recoded_spmv(plan, x, engine=eng, matrix_id=mid, mode="pipelined")
            np.testing.assert_array_equal(y, y_ref)

        try:
            check("warmup")  # the pool's own fds open here, once
            fds = self._fds()
            for ending in ("success", "strict", "degrade", "cancel"):
                handles.clear()
                kwargs = dict(engine=eng, matrix_id=ending, mode="pipelined", depth=2)
                if ending == "success":
                    y, _ = recoded_spmv(plan, x, **kwargs)
                    np.testing.assert_array_equal(y, y_ref)
                elif ending == "cancel":
                    with pytest.raises(RunCancelled):
                        recoded_spmv(plan, x, cancel=cancel_after_three, **kwargs)
                else:
                    with fault.activate():
                        if ending == "strict":
                            with pytest.raises(BlockDecodeError):
                                recoded_spmv(plan, x, policy="strict", **kwargs)
                        else:
                            y, st = recoded_spmv(plan, x, policy="degrade", **kwargs)
                            np.testing.assert_array_equal(y, y_ref)
                            assert st.degraded_blocks == 1
                assert len(handles) == 1
                assert inspect.getgeneratorstate(handles[0]._gen) == inspect.GEN_CLOSED
                assert self._fds() == fds, ending
                check(f"after-{ending}")
        finally:
            eng.close()


class TestMultiplyBlock:
    def test_matches_serial_kernel(self, split_plan):
        from repro.sparse.spmm import spmm_blocked
        from repro.sparse.spmv import spmv_blocked

        blocked = split_plan.blocked
        rng = np.random.default_rng(5)
        for xs, kernel in (
            (rng.standard_normal(blocked.shape[1]), spmv_blocked),
            (rng.standard_normal((blocked.shape[1], 3)), spmm_blocked),
        ):
            out = np.zeros((blocked.shape[0],) + xs.shape[1:])
            for block in blocked.blocks:
                multiply_block(block, xs, out)
            np.testing.assert_array_equal(out, kernel(blocked, xs))
