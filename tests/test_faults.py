"""Fault-injection framework + graceful-degradation tests.

Covers the chaos acceptance scenario (seeded plan corrupting ~5% of
blocks plus one worker kill: ``degrade`` completes bit-exact with nonzero
quarantine/retry counters, ``strict`` raises one typed error naming the
block), the engine's per-block isolation/retry/quarantine machinery, the
pool-leak regression, and the Hypothesis property that *any* single
injected block fault under ``degrade`` leaves SpMV bit-exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.codecs.engine as engine_mod
from repro import faults, obs
from repro.codecs.engine import BlockFailure, DecodedBlockCache, RecodeEngine
from repro.codecs.errors import (
    BlockDecodeError,
    CodecError,
    CorruptPayloadError,
    block_error,
)
from repro.codecs.stats import dsh_plan
from repro.collection import generators
from repro.core.spmv_pipeline import recoded_spmv
from repro.faults import FaultPlan, InjectedFault


@pytest.fixture(scope="module")
def plan():
    return dsh_plan(generators.banded(1600, bandwidth=5, seed=3))


@pytest.fixture(scope="module")
def reference(plan):
    x = np.random.default_rng(0).standard_normal(plan.blocked.shape[1])
    y, _ = recoded_spmv(plan, x)
    return x, y


def serial_engine(**kw):
    kw.setdefault("workers", 0)
    kw.setdefault("retry_base_s", 0.0)
    return RecodeEngine(**kw)


class TestFaultPlan:
    def test_parse_round_trip(self):
        fp = FaultPlan.parse("seed=7,bitflip=0.05,kill=3|9,latency=0.002,latency-rate=0.1")
        assert fp.seed == 7
        assert fp.bitflip_rate == 0.05
        assert fp.worker_kill_blocks == (3, 9)
        assert fp.latency_s == 0.002 and fp.latency_rate == 0.1

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault-plan key"):
            FaultPlan.parse("seed=1,frobnicate=2")

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="bitflip_rate"):
            FaultPlan(bitflip_rate=1.5)

    def test_activation_is_scoped_and_nestable(self):
        outer, inner = FaultPlan(seed=1), FaultPlan(seed=2)
        assert faults.active() is None
        with outer.activate():
            assert faults.active() is outer
            with inner.activate():
                assert faults.active() is inner
            assert faults.active() is outer
        assert faults.active() is None

    def test_mutations_are_deterministic(self, plan):
        fp = FaultPlan(seed=5, bitflip_rate=1.0)
        rec = plan.index_records[0]
        a = fp.mutate_record(rec, 0, "index")
        b = fp.mutate_record(rec, 0, "index")
        assert a.payload == b.payload and a.payload != rec.payload

    def test_no_fault_returns_same_object(self, plan):
        fp = FaultPlan(seed=5)  # all rates zero
        rec = plan.index_records[0]
        assert fp.mutate_record(rec, 0, "index") is rec
        assert fp.mutate_dram_record(rec, 0, "index") is rec
        assert fp.mutate_container(b"abc") == b"abc"

    def test_injected_corruption_is_detected_by_payload_crc(self, plan):
        fp = FaultPlan(seed=5, bitflip_blocks=(0,))
        bad = fp.mutate_record(plan.index_records[0], 0, "index")
        with pytest.raises(CodecError):
            plan.decompress_block(0, index_record=bad)


def test_block_error_wraps_codec_errors_and_passes_block_errors_through():
    cause = CorruptPayloadError("payload crc mismatch")
    err = block_error(7, cause)
    assert str(err) == "block 7 failed to decode: payload crc mismatch"
    assert err.block_id == 7 and err.__cause__ is cause
    named = BlockDecodeError("block 3 is quarantined", block_id=3)
    assert block_error(7, named) is named


class TestEngineIsolation:
    def test_targeted_faults_quarantine_only_those_blocks(self, plan):
        with obs.scoped_registry() as reg:
            eng = serial_engine()
            fp = FaultPlan(seed=11, bitflip_blocks=(2, 5))
            with fp.activate():
                blocks, failures = eng.decode_resilient(plan)
            assert sorted(f.block_id for f in failures) == [2, 5]
            assert all(isinstance(f.error, BlockDecodeError) for f in failures)
            assert set(blocks) == set(range(plan.nblocks)) - {2, 5}
            assert reg.value("faults.blocks_quarantined") == 2
            # max_retries retries per failing block
            assert reg.value("faults.retries") == 2 * eng.max_retries

    def test_healthy_blocks_bit_exact_after_isolation(self, plan):
        eng = serial_engine()
        fp = FaultPlan(seed=11, truncate_blocks=(1,))
        with fp.activate():
            blocks, failures = eng.decode_resilient(plan)
        assert [f.block_id for f in failures] == [1]
        for i, ref in enumerate(plan.blocked.blocks):
            if i == 1:
                continue
            np.testing.assert_array_equal(blocks[i].col_idx, ref.col_idx)
            np.testing.assert_array_equal(blocks[i].val, ref.val)

    def test_quarantine_memo_skips_known_bad_blocks(self, plan):
        with obs.scoped_registry() as reg:
            eng = serial_engine()
            fp = FaultPlan(seed=11, bitflip_blocks=(3,))
            with fp.activate():
                eng.decode_resilient(plan)
            retries_first = reg.value("faults.retries")
            with fp.activate():
                _, failures = eng.decode_resilient(plan)
            assert [f.block_id for f in failures] == [3]
            assert reg.value("faults.retries") == retries_first  # no re-decode
            assert reg.value("faults.quarantine_hits") == 1

    def test_strict_decode_raises_single_typed_error(self, plan):
        eng = serial_engine()
        fp = FaultPlan(seed=11, bitflip_blocks=(4,))
        with fp.activate(), pytest.raises(BlockDecodeError) as exc_info:
            eng.decode_blocked(plan)
        assert exc_info.value.block_id == 4
        assert isinstance(exc_info.value, ValueError)  # backward compat
        assert isinstance(exc_info.value.__cause__, CodecError)

    def test_worker_exception_in_thread_pool_is_isolated(self, plan):
        eng = RecodeEngine(workers=2, executor="thread", chunk_blocks=2,
                           retry_base_s=0.0)
        try:
            fp = FaultPlan(seed=7, worker_exc_blocks=(0,))
            with fp.activate():
                blocks, failures = eng.decode_resilient(plan)
            assert [f.block_id for f in failures] == [0]
            assert isinstance(failures[0].error.__cause__, InjectedFault)
            assert len(blocks) == plan.nblocks - 1
        finally:
            eng.close()

    def test_kill_downgrades_to_exception_outside_process_pools(self, plan):
        # A kill block must never take the main process down when there is
        # no process pool to sacrifice.
        eng = serial_engine()
        fp = FaultPlan(seed=7, worker_kill_blocks=(1,))
        with fp.activate():
            blocks, failures = eng.decode_resilient(plan)
        assert [f.block_id for f in failures] == [1]

    def test_decode_without_faults_matches_reference(self, plan):
        eng = serial_engine()
        blocks, failures = eng.decode_resilient(plan)
        assert failures == ()
        for i, ref in enumerate(plan.blocked.blocks):
            np.testing.assert_array_equal(blocks[i].col_idx, ref.col_idx)
            np.testing.assert_array_equal(blocks[i].val, ref.val)


def _drain_resilient(eng, plan):
    blocks, failures = eng.decode_resilient(plan)
    return blocks, [(f.block_id, f.attempts, str(f.error)) for f in failures]


def _drain_async(eng, plan):
    blocks, failures = {}, []
    for i, res in eng.decode_blocks_async(plan):
        if isinstance(res, BlockFailure):
            failures.append((i, res.attempts, str(res.error)))
        else:
            blocks[i] = res
    return blocks, sorted(failures)


def _strict_blocked(eng, plan):
    try:
        return dict(enumerate(eng.decode_blocked(plan))), []
    except BlockDecodeError as exc:
        return None, [(exc.block_id, str(exc))]


def _block_loop(eng, plan):
    blocks, failures = {}, []
    for i in range(plan.nblocks):
        try:
            blocks[i] = eng.decode_block(plan, i)
        except BlockDecodeError as exc:
            failures.append((i, str(exc)))
    return blocks, failures


_ENTRY_POINTS = {
    "decode_resilient": _drain_resilient,
    "decode_blocks_async": _drain_async,
    "decode_blocked": _strict_blocked,
    "decode_block": _block_loop,
}

#: Counters that measure time, not work; they never agree across runs.
_TIMING_COUNTERS = {
    "codecs.engine.decode_seconds",
    "codecs.engine.encode_seconds",
    "codecs.engine.pool_startup_seconds",
}


class TestDecodeEntryPointParity:
    """The four decode entry points are views of one decode loop: under
    bit flips and worker exceptions they agree on the decoded blocks, the
    failures, the quarantine set, and the work counters, over a cold pass
    and a second pass that hits the cache and the quarantine memo."""

    FAULTS = FaultPlan(seed=11, bitflip_blocks=(2, 5), worker_exc_blocks=(4,))

    def _run(self, plan, entry, workers, cache):
        eng = RecodeEngine(
            workers=workers, executor="thread", chunk_blocks=2, retry_base_s=0.0,
            cache=DecodedBlockCache() if cache else None,
        )
        try:
            with obs.scoped_registry() as reg, self.FAULTS.activate():
                passes = [_ENTRY_POINTS[entry](eng, plan) for _ in range(2)]
        finally:
            eng.close()
        counters: dict[str, float] = {}
        for rec in reg.snapshot().values():
            name = rec["name"]
            if (rec["type"] == "counter" and name not in _TIMING_COUNTERS
                    and name.startswith(("codecs.engine.", "faults."))):
                counters[name] = counters.get(name, 0) + rec["value"]
        return passes, eng.quarantined, counters

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("cache", [False, True])
    def test_entry_points_agree(self, plan, workers, cache):
        runs = {e: self._run(plan, e, workers, cache) for e in _ENTRY_POINTS}
        ref_passes, ref_quarantined, ref_counters = runs["decode_resilient"]

        first_blocks, first_failures = ref_passes[0]
        assert [f[0] for f in first_failures] == [2, 4, 5]
        assert all(f[1] == 3 for f in first_failures)
        assert [f[1] for f in ref_passes[1][1]] == [0, 0, 0]  # memo-quarantined
        for i, block in first_blocks.items():
            ref = plan.blocked.blocks[i]
            assert block.col_idx.tobytes() == ref.col_idx.tobytes()
            assert block.val.tobytes() == ref.val.tobytes()
        assert ref_counters["faults.blocks_quarantined"] == 3
        assert ref_counters["faults.quarantine_hits"] == 3

        def payload(blocks):
            return {i: (b.col_idx.tobytes(), b.val.tobytes()) for i, b in blocks.items()}

        for entry, (passes, quarantined, counters) in runs.items():
            assert quarantined == ref_quarantined, entry
            assert counters == ref_counters, entry
            for (blocks, failures), (ref_blocks, ref_failures) in zip(passes, ref_passes):
                if entry == "decode_blocked":
                    # Strict: raises the lowest failing block's error.
                    assert blocks is None
                    assert failures == [ref_failures[0][::2]]
                    continue
                assert payload(blocks) == payload(ref_blocks), entry
                if entry == "decode_block":
                    ref_failures = [f[::2] for f in ref_failures]
                assert failures == ref_failures, entry


class TestPoolCrashRecovery:
    def test_worker_kill_rebuilds_pool_and_quarantines(self, plan):
        with obs.scoped_registry() as reg:
            eng = RecodeEngine(workers=2, executor="process", chunk_blocks=4,
                               retry_base_s=0.0)
            try:
                fp = FaultPlan(seed=5, worker_kill_blocks=(3,))
                with fp.activate():
                    blocks, failures = eng.decode_resilient(plan)
                assert [f.block_id for f in failures] == [3]
                assert reg.value("faults.pool_rebuilds") == 1
                assert reg.value("faults.injected.worker_kills") == 1
                assert reg.value("faults.blocks_quarantined") == 1
                # every surviving block is bit-exact
                for i, ref in enumerate(plan.blocked.blocks):
                    if i == 3:
                        continue
                    np.testing.assert_array_equal(blocks[i].val, ref.val)
                # the next parallel call runs on a fresh pool; the kill
                # block is memo-quarantined, so no second crash
                with fp.activate():
                    _, failures2 = eng.decode_resilient(plan)
                assert [f.block_id for f in failures2] == [3]
                assert reg.value("faults.pool_rebuilds") == 1
            finally:
                eng.close()


class TestPoolLeakRegression:
    def test_escaping_exception_closes_pool(self, plan, monkeypatch):
        # Regression: an exception escaping a decode used to leave
        # the executor running until GC. Non-CodecError escapes must shut
        # it down deterministically.
        eng = RecodeEngine(workers=2, executor="thread", chunk_blocks=2)
        eng.decode_blocked(plan, [0, 1])
        assert eng._pool is not None

        def boom(args):
            raise RuntimeError("synthetic non-codec failure")

        monkeypatch.setattr(engine_mod, "_decode_pair_chunk", boom)
        with pytest.raises(RuntimeError, match="synthetic"):
            eng.decode_blocked(plan)
        assert eng._pool is None, "worker pool leaked"

    def test_engine_still_usable_after_close(self, plan):
        eng = RecodeEngine(workers=2, executor="thread", chunk_blocks=2)
        eng.decode_blocked(plan, [0])
        eng.close()
        blocks = eng.decode_blocked(plan, [0, 1])  # pool rebuilt lazily
        assert len(blocks) == 2
        eng.close()


class TestSpMVPolicies:
    def test_chaos_degrade_bit_exact_with_worker_kill(self, plan, reference):
        # The acceptance scenario: ~5% of blocks corrupted plus one worker
        # kill; degrade completes bit-exact with nonzero quarantine/retry
        # counters.
        x, y_ref = reference
        with obs.scoped_registry() as reg:
            eng = RecodeEngine(workers=2, executor="process", chunk_blocks=4,
                               retry_base_s=0.0)
            try:
                fp = FaultPlan(seed=42, bitflip_rate=0.05, worker_kill_blocks=(1,))
                with fp.activate():
                    y, stats = recoded_spmv(plan, x, engine=eng,
                                            policy="degrade", matrix_id="chaos")
                np.testing.assert_array_equal(y, y_ref)
                assert stats.policy == "degrade"
                assert stats.degraded_blocks > 0
                assert reg.value("faults.blocks_quarantined") > 0
                assert reg.value("faults.retries") > 0
                assert reg.value("spmv.degraded_blocks") == stats.degraded_blocks
                assert reg.value("spmv.degraded_iterations") == 1
            finally:
                eng.close()

    def test_chaos_strict_raises_single_typed_error(self, plan, reference):
        x, _ = reference
        eng = serial_engine()
        fp = FaultPlan(seed=42, bitflip_rate=0.05, worker_kill_blocks=(1,))
        with fp.activate(), pytest.raises(BlockDecodeError) as exc_info:
            recoded_spmv(plan, x, engine=eng, policy="strict", matrix_id="strict")
        assert exc_info.value.block_id is not None

    def test_degrade_counts_raw_traffic_honestly(self, plan, reference):
        x, _ = reference
        _, clean = recoded_spmv(plan, x)
        fp = FaultPlan(seed=9, dram_bitflip_blocks=(0,))
        with fp.activate():
            _, st = recoded_spmv(plan, x, policy="degrade")
        assert st.degraded_blocks == 1
        # the substituted block streams its raw bytes: traffic goes up
        assert st.dram_bytes > clean.dram_bytes
        assert st.traffic_ratio > clean.traffic_ratio

    def test_dram_fault_without_engine_detected(self, plan, reference):
        x, y_ref = reference
        fp = FaultPlan(seed=9, dram_bitflip_blocks=(2,))
        with fp.activate(), pytest.raises(BlockDecodeError) as exc_info:
            recoded_spmv(plan, x, policy="strict")
        assert exc_info.value.block_id == 2
        assert isinstance(exc_info.value.__cause__, CorruptPayloadError)
        with fp.activate():
            y, st = recoded_spmv(plan, x, policy="degrade")
        np.testing.assert_array_equal(y, y_ref)
        assert st.degraded_blocks == 1

    def test_invalid_policy_rejected(self, plan, reference):
        x, _ = reference
        with pytest.raises(ValueError, match="policy"):
            recoded_spmv(plan, x, policy="yolo")

    def test_hooks_disabled_change_nothing(self, plan, reference):
        # No armed plan: strict and degrade are byte-for-byte the same run.
        x, y_ref = reference
        y, st = recoded_spmv(plan, x, policy="degrade")
        np.testing.assert_array_equal(y, y_ref)
        assert st.degraded_blocks == 0


SMALL_PLAN = dsh_plan(generators.banded(500, bandwidth=3, seed=17))
SMALL_X = np.random.default_rng(1).standard_normal(SMALL_PLAN.blocked.shape[1])
SMALL_Y, _ = recoded_spmv(SMALL_PLAN, SMALL_X)

FAULT_KINDS = ("bitflip", "truncate", "dram", "worker-exc")


class TestDegradeProperty:
    @settings(max_examples=24, deadline=None)
    @given(
        block=st.integers(0, SMALL_PLAN.nblocks - 1),
        kind=st.sampled_from(FAULT_KINDS),
        seed=st.integers(0, 2**16),
    )
    def test_any_single_block_fault_is_bit_exact_under_degrade(
        self, block, kind, seed
    ):
        field = {
            "bitflip": "bitflip_blocks",
            "truncate": "truncate_blocks",
            "dram": "dram_bitflip_blocks",
            "worker-exc": "worker_exc_blocks",
        }[kind]
        fp = FaultPlan(seed=seed, **{field: (block,)})
        eng = serial_engine()
        with fp.activate():
            y, stats = recoded_spmv(SMALL_PLAN, SMALL_X, engine=eng,
                                    policy="degrade", matrix_id=f"prop-{kind}")
        # raw-CSR substitution is exact, not approximate
        np.testing.assert_array_equal(y, SMALL_Y)
        assert stats.degraded_blocks == 1
