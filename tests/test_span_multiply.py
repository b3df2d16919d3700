"""Fused span multiply: a recoded run with no engine, or a cache-less one,
decodes and multiplies a span of blocks per ``dsh_spmv_span`` call.

The oracle is the per-block route (:mod:`tests.per_block`): every
observable of a fused run must equal that route's on the same backend —
result bytes, ``dma_seconds``, the traffic log, out-of-core page counts,
degraded blocks, a cache-less engine's block and byte counts and
quarantine, a borrowed reader's CRC skips, the ``codecs.decode.*``,
``kernels.dispatch``, ``faults.*`` and ``memsys.*`` telemetry, and the
error raised (type, message, block, cause). The blocks a bad record, a
column outside ``x`` or an armed fault plan hands to the per-block route
sit first, in the middle and last in a span.
"""

import contextlib
import dataclasses

import numpy as np
import pytest

from repro import kernels, obs
from repro.codecs.container import ContainerReader, save_plan
from repro.codecs.engine import RecodeEngine
from repro.codecs.errors import ContainerError
from repro.codecs.pipeline import SPAN, STAGE_SNAPPY
from repro.core import RunCancelled, recoded_spmm, recoded_spmv
from repro.faults import FaultPlan
from tests.per_block import (
    BACKENDS, UNCACHED, assert_parity, multiply_blocks, observe, per_block_route, sha,
)
from tests.tagged_plans import encode_stream_record
from tests.test_span_decode import PLANS, WHERE, _flip_record_byte, _rhs, _undecodable


@pytest.fixture(scope="module")
def plans(tmp_path_factory):
    out = {}
    for name, build in PLANS.items():
        plan = build()
        path = tmp_path_factory.mktemp("fused") / f"{name}.dsh"
        save_plan(plan, path)
        out[name] = (plan, path)
    return out


@pytest.mark.parametrize("k", [None, 8], ids=["spmv", "spmm8"])
@pytest.mark.parametrize("name", sorted(PLANS))
def test_fused_runs_match_the_per_block_route(plans, name, k):
    plan, path = plans[name]
    x = _rhs(plan, k)
    want = sha(multiply_blocks(plan.blocked, x))
    for state in UNCACHED:
        for source in (plan, str(path), lambda: ContainerReader(path, verify="lazy")):
            seen, counts, *_ = assert_parity(plan, source, x, state)
            assert seen[0] == want
            if plan.nblocks:
                assert sum(n for key, n in counts.items()
                           if key.startswith("kernels.dispatch")) == plan.nblocks


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_clean_run_is_one_op_call_per_span(plans, monkeypatch, backend):
    plan, path = plans["many-spans"]
    calls = []
    real = kernels.REGISTRY._impls[("dsh_spmv_span", backend)]
    monkeypatch.setitem(kernels.REGISTRY._impls, ("dsh_spmv_span", backend),
                        lambda p, span, *a: calls.append(span.stop - span.start) or real(p, span, *a))
    for source in (plan, str(path)):
        calls.clear()
        with kernels.use_backend(backend):
            recoded_spmm(source, _rhs(plan, 2))
        assert calls == [min(SPAN, plan.nblocks - s) for s in range(0, plan.nblocks, SPAN)]


@pytest.mark.parametrize("policy", ["strict", "degrade"])
@pytest.mark.parametrize("where", WHERE)
def test_record_crc_mismatch_in_a_span(plans, tmp_path, where, policy):
    plan, path = plans["many-spans"]
    bad = _flip_record_byte(path, where, tmp_path)
    for source in (bad, lambda: ContainerReader(bad, verify="lazy")):
        seen = assert_parity(plan, source, _rhs(plan), "none", policy=policy)[0]
        assert seen[:2] == (ContainerError, "container corruption: record CRC mismatch")


@pytest.mark.parametrize("policy", ["strict", "degrade"])
@pytest.mark.parametrize("where", WHERE)
def test_undecodable_record_in_a_span(plans, tmp_path, where, policy):
    plan = _undecodable(plans["many-spans"][0], where)
    path = tmp_path / "bad.dsh"
    save_plan(plan, path)
    for source in (plan, str(path)):
        seen = assert_parity(plan, source, _rhs(plan), "none", policy=policy)[0]
        if policy == "strict":
            assert seen[2] == where


def _with_column(plan, block: int, column: int):
    """``plan`` with ``block``'s first column index set to ``column``, its
    index record re-encoded Snappy-only and carrying no CRC stamp."""
    col = plan.blocked.blocks[block].col_idx.copy()
    col[0] = column
    rec = encode_stream_record(col.astype("<i4").tobytes(), STAGE_SNAPPY, None)
    records = list(plan.index_records)
    records[block] = dataclasses.replace(rec, payload_crc=None)
    return dataclasses.replace(plan, index_records=tuple(records))


@pytest.mark.parametrize("where", WHERE)
def test_column_outside_x_in_a_span(plans, where):
    """A column past ``x`` raises numpy's IndexError, as the per-block
    route's multiply does; a negative one wraps there, and must here."""
    plan = plans["many-spans"][0]
    ncols = plan.blocked.shape[1]
    for column in (ncols + 3, -2):
        bad = _with_column(plan, where, column)
        seen = assert_parity(bad, bad, _rhs(plan), "none")[0]
        if column > 0:
            assert seen[0] is IndexError and str(ncols + 3) in seen[1]
        else:
            assert isinstance(seen[0], str)


def test_dram_faults_mid_span_degrade_the_blocks_they_touch(plans):
    plan, path = plans["many-spans"]
    x = _rhs(plan)
    fault = FaultPlan(seed=5, dram_bitflip_rate=0.1)
    want = sha(multiply_blocks(plan.blocked, x))
    for state in UNCACHED:
        for source in (plan, str(path)):
            with fault.activate():
                seen, counts, *_ = assert_parity(plan, source, x, state, policy="degrade")
            assert seen[0] == want and seen[3] > 0


def test_non_contiguous_out_is_filled(plans):
    plan = plans["many-spans"][0]
    X = _rhs(plan, 3)
    want = multiply_blocks(plan.blocked, X).tobytes()
    for state in UNCACHED:
        for per_block in (False, True):
            out = np.zeros((plan.blocked.shape[0], 3), order="F")
            engine = None if state == "none" else RecodeEngine()
            with per_block_route() if per_block else contextlib.nullcontext():
                got, _ = recoded_spmm(plan, X, engine=engine, out=out)
            assert got is out and got.tobytes() == want, (state, per_block)


@pytest.mark.parametrize("backend", BACKENDS)
def test_cancel_stops_the_fused_run_at_the_block_whose_poll_fires(plans, backend):
    """A fused run polls ``cancel`` once per block in block order (a span's
    blocks after its first once the op returns) and stops at the block
    whose poll fires, counting only the records of the blocks before it;
    the per-block route stops at the same block."""
    plan, path = plans["many-spans"]
    done = SPAN // 2 + 1
    for source in (plan, str(path)):
        for per_block in (False, True):
            polls = []
            with obs.scoped_registry() as reg, kernels.use_backend(backend), \
                    per_block_route() if per_block else contextlib.nullcontext():
                with pytest.raises(RunCancelled) as info:
                    recoded_spmv(source, _rhs(plan), cancel=lambda: polls.append(1) or
                                 len(polls) > done)
            assert info.value.blocks_done == done, per_block
            assert len(polls) == done + 1, per_block
            assert reg.value("codecs.decode.records") == 2 * done, per_block


def test_engine_quarantine_hits_degrade_what_a_fused_run_degrades(plans):
    """A block an engine run quarantined fails at once on the next run,
    which then degrades exactly the blocks an engine-less fused run
    degrades under DRAM faults there."""
    plan = plans["many-spans"][0]
    x = _rhs(plan)
    bad = (0, SPAN // 2, SPAN - 1)
    engine = RecodeEngine(retry_base_s=0.0)
    with FaultPlan(seed=3, bitflip_blocks=bad).activate():
        recoded_spmv(plan, x, engine=engine, matrix_id="q", policy="degrade")
    assert {q[2] for q in engine.quarantined} == set(bad)
    with obs.scoped_registry() as reg:
        y, st = recoded_spmv(plan, x, engine=engine, matrix_id="q", policy="degrade")
    assert reg.value("faults.quarantine_hits") == len(bad)
    with FaultPlan(seed=3, dram_bitflip_blocks=bad).activate():
        want, ws = recoded_spmv(plan, x, policy="degrade")
    assert (y.tobytes(), st.degraded_blocks, st.dma_seconds) == (
        want.tobytes(), ws.degraded_blocks, ws.dma_seconds)


# ---------------------------------------------------------------------------
# Cache-less engine runs
# ---------------------------------------------------------------------------


def _sources(plan, path):
    return (plan, lambda: ContainerReader(path, verify="lazy"))


@pytest.mark.parametrize("policy", ["strict", "degrade"])
@pytest.mark.parametrize("fault", ["bitflip", "truncate", "latency"])
@pytest.mark.parametrize("where", WHERE[:3])
def test_engine_fused_record_and_latency_faults(plans, monkeypatch, fault, where, policy):
    """A block a record-site or latency fault touches takes the handle's
    per-block route, with its retries, quarantine and latency."""
    plan, path = plans["many-spans"]
    if fault == "latency":
        monkeypatch.setattr(FaultPlan, "_delays", lambda self, i: i == where)
        plan_faults = FaultPlan(seed=2, latency_s=1e-4)
    else:
        plan_faults = FaultPlan(seed=2, **{f"{fault}_blocks": (where,)})
    for source in _sources(plan, path):
        with plan_faults.activate():
            seen, counts, *_, quarantined = assert_parity(
                plan, source, _rhs(plan), "cache-less", policy=policy)
        if fault == "latency":
            assert counts["faults.injected.latency_events"] == 1
            assert isinstance(seen[0], str) and not quarantined
        else:
            assert quarantined == [where]
            assert counts["faults.retries"] == 2
            assert (seen[2] == where) if policy == "strict" else (seen[3] == 1)


@pytest.mark.parametrize("policy", ["strict", "degrade"])
def test_engine_fused_quarantine_hits(plans, policy):
    """A second run hits the blocks a first run quarantined: its spans end
    before them, and each fails at once, as on the per-block route."""
    plan, path = plans["many-spans"]
    x = _rhs(plan)
    bad = (0, SPAN // 2, SPAN - 1)
    for source in _sources(plan, path):
        for rhs in (x, _rhs(plan, 8)):
            seen, counts, *_ = assert_parity(plan, source, rhs, "cache-less", quarantined=bad,
                                             policy=policy)
            hits = counts["faults.quarantine_hits"]
            if policy == "strict":
                assert (hits, seen[2]) == (1, 0)
            else:
                assert (hits, seen[3]) == (len(bad), len(bad))


@pytest.mark.parametrize("policy", ["strict", "degrade"])
@pytest.mark.parametrize("where", WHERE[:3])
def test_engine_fused_record_crc_mismatch(plans, tmp_path, where, policy):
    plan, path = plans["many-spans"]
    bad = _flip_record_byte(path, where, tmp_path)
    source = lambda: ContainerReader(bad, verify="lazy")  # noqa: E731
    seen = assert_parity(plan, source, _rhs(plan), "cache-less", policy=policy)[0]
    assert seen[:2] == (ContainerError, "container corruption: record CRC mismatch")
    for backend in BACKENDS:  # the engine-less run raises the same
        assert observe(plan, source, _rhs(plan), backend, None, policy=policy)[0] == seen


@pytest.mark.parametrize("where", WHERE[:3])
def test_engine_fused_column_outside_x(plans, where):
    plan = plans["many-spans"][0]
    bad = _with_column(plan, where, plan.blocked.shape[1] + 3)
    for k in (None, 4):
        x = _rhs(plan, k)
        seen = assert_parity(bad, bad, x, "cache-less")[0]
        assert seen[0] is IndexError
        for backend in BACKENDS:
            assert observe(bad, bad, x, backend, None)[0] == seen
