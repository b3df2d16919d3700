"""The engine-backed executor: bit-equality with the engine-less path,
one decode handle per run, SpMM fusion.

The contract under test: a run with an engine reads every block off one
engine decode handle, whatever ``mode`` it is given, and is
bit-identical to the engine-less run of the same plan — result vector,
TrafficLog byte totals, ``dma_seconds``, degraded-block accounting,
raised error types — across cache on/off, repeated runs, and injected
faults under both failure policies. Fused SpMM must
decode each block once and match per-column SpMV bit-exactly.
"""

import inspect
import os
import re
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.codecs.engine import AsyncDecode, DecodedBlockCache, RecodeEngine
from repro.codecs.errors import BlockDecodeError
from repro.codecs.pipeline import compress_matrix
from repro.collection import generators
from repro.core import ExecutionSession, recoded_spmm, recoded_spmv
from repro.core import RunCancelled
from repro.core.executor import multiply_block
from repro.faults import FaultPlan
from repro.sparse.blocked import partition_csr


def make_engine(cache=False):
    return RecodeEngine(
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


def assert_stats_parity(a, b):
    assert a.dram_bytes == b.dram_bytes
    assert a.baseline_dram_bytes == b.baseline_dram_bytes
    assert a.traffic.edges() == b.traffic.edges()
    assert a.dma_seconds == b.dma_seconds
    assert a.degraded_blocks == b.degraded_blocks


class TestPipelinedParity:
    @pytest.mark.parametrize("cache", [False, True])
    @pytest.mark.parametrize("passes", [1, 4])
    def test_bit_identical_to_serial(self, plan, x, cache, passes):
        """An engine-backed run, under either ``mode``, matches the
        engine-less serial decoder bit for bit, cold and cached."""
        eng = make_engine(cache)
        ys, ss = recoded_spmv(plan, x, matrix_id="m")
        for i in range(passes):
            mode = ("serial", "pipelined")[i % 2]
            yp, sp = recoded_spmv(plan, x, engine=eng, matrix_id="m", mode=mode)
            np.testing.assert_array_equal(ys, yp)
            assert_stats_parity(ss, sp)
            assert sp.mode == mode

    def test_warm_cache_parity(self, plan, x):
        eng = make_engine(cache=True)
        ys, ss = recoded_spmv(plan, x)
        for _ in range(3):
            yp, sp = recoded_spmv(plan, x, engine=eng, matrix_id="m")
            np.testing.assert_array_equal(ys, yp)
            assert_stats_parity(ss, sp)
        es = sp.engine_stats
        assert es["blocks_decoded"] == plan.nblocks
        assert es["cache_hits"] == 2 * plan.nblocks

    def test_split_rows_parity(self, split_plan):
        xs = np.random.default_rng(1).standard_normal(split_plan.blocked.shape[1])
        ys, ss = recoded_spmv(split_plan, xs)
        yp, sp = recoded_spmv(split_plan, xs, engine=make_engine())
        np.testing.assert_array_equal(ys, yp)
        assert ss.dma_seconds == sp.dma_seconds

    def test_pipelined_requires_engine(self, plan, x):
        with pytest.raises(ValueError, match="requires a RecodeEngine"):
            recoded_spmv(plan, x, mode="pipelined")

    def test_bad_mode_and_depth(self, plan, x):
        with pytest.raises(ValueError, match="mode"):
            recoded_spmv(plan, x, mode="overlapped")
        # Decode runs inline: there is no prefetch depth to set.
        with pytest.raises(TypeError, match="depth"):
            recoded_spmv(plan, x, engine=make_engine(), mode="pipelined", depth=4)

    def test_pipelined_rejects_udp_simulator(self, plan, x):
        with pytest.raises(ValueError, match="simulator"):
            recoded_spmv(
                plan, x, engine=make_engine(), mode="pipelined",
                use_udp_simulator=True,
            )


class TestOneHandlePerRun:
    """Every engine-backed run, whatever its ``mode``, reads its blocks off
    exactly one engine decode handle and never asks the engine for a
    single block."""

    @pytest.mark.parametrize("mode", ["serial", "pipelined"])
    def test_one_async_decode_per_run(self, plan, x, mode, monkeypatch):
        handles = []
        real_init = AsyncDecode.__init__

        def spy_init(self, *args, **kwargs):
            handles.append(self)
            real_init(self, *args, **kwargs)

        def no_single_block(*args, **kwargs):
            raise AssertionError("an engine-backed run called decode_block")

        monkeypatch.setattr(AsyncDecode, "__init__", spy_init)
        monkeypatch.setattr(RecodeEngine, "decode_block", no_single_block)
        X = np.ones((plan.blocked.shape[1], 2))
        eng = make_engine(cache=True)
        fp = FaultPlan(seed=4, dram_bitflip_blocks=(3,))
        for kwargs in ({}, {"policy": "degrade"}):
            recoded_spmv(plan, x, engine=eng, matrix_id="h", mode=mode, **kwargs)
            recoded_spmm(plan, X, engine=eng, matrix_id="h", mode=mode, **kwargs)
            with fp.activate():
                recoded_spmv(plan, x, engine=make_engine(), mode=mode, policy="degrade")
        assert len(handles) == 6

    def test_session_cold_calls_read_one_handle(self, plan, x, monkeypatch):
        handles = []
        real_async = RecodeEngine.decode_blocks_async

        def spy_async(self, *args, **kwargs):
            handle = real_async(self, *args, **kwargs)
            handles.append(handle)
            return handle

        monkeypatch.setattr(RecodeEngine, "decode_blocks_async", spy_async)
        # A cache-less engine keeps every session call cold.
        with ExecutionSession(plan, engine=make_engine()) as sess:
            for _ in range(3):
                sess.spmv(x)
        assert len(handles) == 3


class TestFaultParity:
    def test_degrade_policy_parity(self, plan, x):
        """A record-site fault the engine sees costs an engine-backed run
        what a DRAM-site fault at the same blocks costs an engine-less one:
        the result stays bit-exact and the same blocks stream raw."""
        record = FaultPlan(seed=11, bitflip_blocks=(2, 7), truncate_blocks=(4,))
        dram = FaultPlan(seed=11, dram_bitflip_blocks=(2, 4, 7))
        with record.activate():
            yp, sp = recoded_spmv(
                plan, x, engine=make_engine(), matrix_id="f", policy="degrade"
            )
        with dram.activate():
            ys, ss = recoded_spmv(plan, x, matrix_id="f", policy="degrade")
        np.testing.assert_array_equal(ys, yp)
        np.testing.assert_array_equal(yp, recoded_spmv(plan, x)[0])
        assert_stats_parity(ss, sp)
        assert sp.degraded_blocks == 3

    def test_strict_policy_same_error(self, plan, x):
        """A strict engine-backed run raises the error the engine itself
        reports for the block."""
        fp = FaultPlan(seed=11, bitflip_blocks=(5,))
        with fp.activate():
            with pytest.raises(BlockDecodeError) as err_run:
                recoded_spmv(
                    plan, x, engine=make_engine(), matrix_id="g", policy="strict"
                )
            with pytest.raises(BlockDecodeError) as err_engine:
                make_engine().decode_blocked(plan, matrix_id="g")
        assert str(err_run.value) == str(err_engine.value)
        assert err_run.value.block_id == err_engine.value.block_id == 5

    def test_strict_multiple_failures_raises_lowest_block(self, plan, x):
        fp = FaultPlan(seed=3, bitflip_blocks=(6, 1, 9))
        with fp.activate():
            with pytest.raises(BlockDecodeError) as err_run:
                recoded_spmv(
                    plan, x, engine=make_engine(), matrix_id="g2", policy="strict"
                )
            with pytest.raises(BlockDecodeError) as err_engine:
                make_engine().decode_blocked(plan, matrix_id="g2")
        assert str(err_run.value) == str(err_engine.value)
        assert err_run.value.block_id == err_engine.value.block_id == 1

    def test_dram_site_faults_bypass_engine(self, plan, x):
        fp = FaultPlan(seed=5, dram_bitflip_blocks=(1, 3))
        with fp.activate():
            ys, ss = recoded_spmv(plan, x, matrix_id="d", policy="degrade")
            yp, sp = recoded_spmv(
                plan, x, engine=make_engine(), matrix_id="d", policy="degrade"
            )
        np.testing.assert_array_equal(ys, yp)
        assert_stats_parity(ss, sp)
        assert ss.degraded_blocks == 2

    @settings(max_examples=8, deadline=None)
    @given(
        dram=st.sets(st.integers(0, 11), max_size=2),
        bitflips=st.sets(st.integers(0, 11), max_size=2),
        truncates=st.sets(st.integers(0, 11), max_size=2),
        seed=st.integers(0, 500),
        policy=st.sampled_from(["strict", "degrade"]),
        cache=st.booleans(),
    )
    def test_random_fault_plans_parity(
        self, plan, x, dram, bitflips, truncates, seed, policy, cache
    ):
        """An engine-backed run fails at, or degrades, every block faulted
        at either site. Strict, it raises at the lowest such block: the
        engine-less run's error for a DRAM-site fault, the engine's own
        error for a record-site one. Under degrade it matches an
        engine-less run with DRAM-site faults at all of those blocks."""
        fp = FaultPlan(
            seed=seed,
            dram_bitflip_blocks=tuple(sorted(dram)),
            bitflip_blocks=tuple(sorted(bitflips)),
            truncate_blocks=tuple(sorted(truncates)),
        )
        bad = dram | bitflips | truncates
        matrix_id = f"h{seed}"

        def outcome(engine, fault_plan):
            with fault_plan.activate():
                try:
                    return recoded_spmv(
                        plan, x, engine=engine, matrix_id=matrix_id, policy=policy
                    )
                except BlockDecodeError as e:
                    return (str(e), e.block_id)

        backed = outcome(make_engine(cache), fp)
        if policy == "strict" and bad:
            first = min(bad)
            if first in dram:
                want = outcome(None, fp)
            else:
                with fp.activate(), pytest.raises(BlockDecodeError) as err:
                    make_engine().decode_blocked(plan, matrix_id=matrix_id)
                want = (str(err.value), err.value.block_id)
            assert isinstance(backed[0], str)
            assert backed == want
            assert backed[1] == first
        else:
            oracle = FaultPlan(seed=seed, dram_bitflip_blocks=tuple(sorted(bad)))
            ys, ss = outcome(None, oracle)
            yp, sp = backed
            np.testing.assert_array_equal(ys, yp)
            assert_stats_parity(ss, sp)
            assert sp.degraded_blocks == len(bad)


class TestFusedSpMM:
    def test_columns_match_spmv_bit_exactly(self, plan):
        X = np.random.default_rng(5).standard_normal((plan.blocked.shape[1], 4))
        Y, stats = recoded_spmm(plan, X)
        assert Y.shape == (plan.blocked.shape[0], 4)
        assert stats.nrhs == 4
        for j in range(4):
            yj, _ = recoded_spmv(plan, X[:, j])
            np.testing.assert_array_equal(Y[:, j], yj)

    def test_decodes_each_block_once(self, plan, x):
        X = np.random.default_rng(5).standard_normal((plan.blocked.shape[1], 6))
        _, sm = recoded_spmm(plan, X)
        _, s1 = recoded_spmv(plan, x)
        # A-side DRAM traffic of a 6-column multiply equals one SpMV's.
        assert sm.traffic.bytes_on("dram", "udp") == s1.traffic.bytes_on(
            "dram", "udp"
        )
        eng = make_engine(cache=True)
        _, sm2 = recoded_spmm(plan, X, engine=eng, matrix_id="mm")
        assert sm2.engine_stats["blocks_decoded"] == plan.nblocks

    def test_pipelined_spmm_parity(self, plan):
        X = np.random.default_rng(6).standard_normal((plan.blocked.shape[1], 3))
        Ys, ss = recoded_spmm(plan, X)
        Yp, sp = recoded_spmm(plan, X, engine=make_engine())
        np.testing.assert_array_equal(Ys, Yp)
        assert_stats_parity(ss, sp)
        assert sp.nrhs == 3

    def test_split_rows_spmm_parity(self, split_plan):
        X = np.random.default_rng(2).standard_normal((split_plan.blocked.shape[1], 3))
        Ys, _ = recoded_spmm(split_plan, X)
        Yp, _ = recoded_spmm(split_plan, X, engine=make_engine())
        np.testing.assert_array_equal(Ys, Yp)

    def test_degrade_parity(self, plan):
        X = np.random.default_rng(8).standard_normal((plan.blocked.shape[1], 2))
        with FaultPlan(seed=21, bitflip_blocks=(0, 4)).activate():
            Yp, sp = recoded_spmm(
                plan, X, engine=make_engine(), matrix_id="df", policy="degrade"
            )
        with FaultPlan(seed=21, dram_bitflip_blocks=(0, 4)).activate():
            Ys, ss = recoded_spmm(plan, X, matrix_id="df", policy="degrade")
        np.testing.assert_array_equal(Ys, Yp)
        assert_stats_parity(ss, sp)
        assert sp.degraded_blocks == 2

    def test_bad_x_shape(self, plan):
        with pytest.raises(ValueError, match="X must have shape"):
            recoded_spmm(plan, np.ones(plan.blocked.shape[1]))
        with pytest.raises(ValueError, match="X must have shape"):
            recoded_spmm(plan, np.ones((3, 2)))


class TestPipelineMetrics:
    def test_pipelined_run_emits_pipeline_metrics(self, plan, x):
        """Every engine-backed run books ``spmv.pipeline.*``."""
        for mode in ("serial", "pipelined"):
            with obs.scoped_registry() as reg:
                recoded_spmv(plan, x, engine=make_engine(), mode=mode)
                names = set(obs.aggregate_by_name(reg.snapshot()))
            assert "spmv.pipeline.runs" in names
            assert "spmv.pipeline.multiply_idle_seconds" in names
            assert "spmv.pipeline.decode_idle_seconds" in names
            assert "spmv.pipeline.multiply_seconds" not in names

    def test_fused_engine_run_books_the_idle_split(self, plan, x):
        """A cache-less engine run takes the fused route, booking its op's
        decode time as multiply idle and its multiply time as decode idle,
        both within the run's wall time."""
        with obs.scoped_registry() as reg:
            t0 = time.perf_counter()
            recoded_spmv(plan, x, engine=make_engine(), mode="pipelined")
            wall = time.perf_counter() - t0
        multiply_idle = reg.value("spmv.pipeline.multiply_idle_seconds")
        decode_idle = reg.value("spmv.pipeline.decode_idle_seconds")
        assert multiply_idle > 0 and decode_idle > 0
        assert multiply_idle + decode_idle <= wall

    def test_decode_emits_inline_span_count(self, plan, x):
        # The run's spmv.block spans of fused blocks (start/stop) and its
        # codecs.engine.decode spans of blocks the hook took cover every
        # block once, all on the caller's thread: a run driven from a
        # worker thread decodes on that thread. The latency fault sends
        # some blocks to the hook.
        eng = make_engine()
        tids = []

        def run():
            tids.append(threading.get_native_id())
            recoded_spmv(plan, x, engine=eng)

        with obs.scoped_tracer(obs.Tracer(enabled=True)) as tracer:
            with FaultPlan(seed=2, latency_s=1e-6, latency_rate=0.3).activate():
                t = threading.Thread(target=run)
                t.start()
                t.join()
        events = tracer.events()
        fused = [e for e in events if e["name"] == "spmv.block" and "start" in e["args"]]
        decoded = [e for e in events if e["name"] == "codecs.engine.decode"]
        assert fused and decoded
        covered = [e["args"]["block"] for e in decoded] + [
            i for e in fused for i in range(e["args"]["start"], e["args"]["stop"])]
        assert sorted(covered) == list(range(plan.nblocks))
        assert {(e["pid"], e["tid"]) for e in fused + decoded} == {(os.getpid(), tids[0])}

    def test_serial_run_does_not(self, plan, x):
        """An engine-less run (the serial decoder) books no
        ``spmv.pipeline.*``."""
        with obs.scoped_registry() as reg:
            recoded_spmv(plan, x, mode="serial")
            names = set(obs.aggregate_by_name(reg.snapshot()))
        assert not any(n.startswith("spmv.pipeline.") for n in names)

    def test_spmm_uses_spmm_prefix(self, plan):
        X = np.ones((plan.blocked.shape[1], 2))
        with obs.scoped_registry() as reg:
            recoded_spmm(plan, X)
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
            recoded_spmv(plan, bad, engine=make_engine(), mode=mode)

    @pytest.mark.parametrize("mode", ["serial", "pipelined"])
    @pytest.mark.parametrize("rows", [-1, 5])
    def test_spmm_wrong_row_count(self, plan, mode, rows):
        n = plan.blocked.shape[1]
        bad = np.ones((n + rows, 2))
        msg = re.escape(f"X must have shape ({n}, k), got {bad.shape}")
        with pytest.raises(ValueError, match=msg):
            recoded_spmm(plan, bad, engine=make_engine(), mode=mode)


class TestInOrderConsumption:
    def test_in_order_handle_matches_serial(self, plan, x, monkeypatch):
        """The run's one decode handle accounts every block exactly once,
        in block order, whether a fused span took it or the handle yielded
        it, so every observable of the engine-less serial decoder is
        reproduced."""
        accounted = []
        real_next, real_took = AsyncDecode.__next__, AsyncDecode.took

        def spy_next(self):
            item = real_next(self)
            accounted.append(item[0])
            return item

        def spy_took(self, start, stop, *args):
            accounted.extend(range(start, stop))
            real_took(self, start, stop, *args)

        fp = FaultPlan(seed=4, dram_bitflip_blocks=(6,))
        with fp.activate():
            ys, ss = recoded_spmv(plan, x, policy="degrade")
            monkeypatch.setattr(AsyncDecode, "__next__", spy_next)
            monkeypatch.setattr(AsyncDecode, "took", spy_took)
            yp, sp = recoded_spmv(plan, x, engine=make_engine(), policy="degrade")
        assert accounted == list(range(plan.nblocks))
        np.testing.assert_array_equal(ys, yp)
        assert ss.traffic.edges() == sp.traffic.edges()
        assert ss.dma_seconds == sp.dma_seconds
        assert ss.degraded_blocks == sp.degraded_blocks == 1


class TestPipelinedLifecycle:
    """However an engine-backed run ends, its handle is closed, no fd
    leaks, and the engine serves the next call bit-identically."""

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
        y_ref, _ = recoded_spmv(plan, x)
        eng = RecodeEngine(workers=2, retry_base_s=0.0)
        fault = FaultPlan(seed=11, bitflip_blocks=(5,))
        calls = []

        def cancel_after_three():
            calls.append(None)
            return len(calls) > 3

        def check(mid):
            y, _ = recoded_spmv(plan, x, engine=eng, matrix_id=mid)
            np.testing.assert_array_equal(y, y_ref)

        try:
            check("warmup")
            fds = self._fds()
            for ending in ("success", "strict", "degrade", "cancel"):
                handles.clear()
                kwargs = dict(engine=eng, matrix_id=ending)
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
