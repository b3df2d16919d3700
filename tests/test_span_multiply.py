"""Fused span multiply: a recoded run with no engine, or a cache-less one,
decodes and multiplies a span of blocks per ``dsh_spmv_span`` call.

A run given ``cancel`` still takes the per-block route (the recode hook
in front of each multiply), so a never-firing ``cancel`` gives the
oracle: every observable of a fused run must equal that route's on the
same backend — result bytes, ``dma_seconds``, the traffic log,
out-of-core page counts, degraded blocks, the ``codecs.decode.*``,
``kernels.dispatch``, ``faults.*`` and ``memsys.*`` telemetry, and the
error raised (type, message, block, cause). The blocks a bad record, a
column outside ``x`` or an armed fault plan hands to the per-block route
sit first, in the middle and last in a span. A cache-less engine run is
also held to the engine's per-block route: its engine's block and byte
counts, its quarantine and a borrowed reader's CRC skips too.
"""

import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest

from repro import kernels, obs
from repro.codecs.container import ContainerReader, save_plan
from repro.codecs.engine import RecodeEngine
from repro.codecs.errors import ContainerError
from repro.codecs.pipeline import SPAN, STAGE_SNAPPY
from repro.core import RunCancelled, recoded_spmm, recoded_spmv, spmv_pipeline
from repro.faults import FaultPlan
from repro.sparse.spmv import spmv_blocked
from tests.tagged_plans import encode_stream_record
from tests.test_span_decode import PLANS, WHERE, _flip_record_byte, _rhs, _undecodable

BACKENDS = kernels.available_backends()


def _never() -> bool:
    return False


def _observe(source, x, backend, **kwargs):
    """What a run reports, or the error it raises, and its telemetry."""
    fn = recoded_spmv if x.ndim == 1 else recoded_spmm
    with obs.scoped_registry() as reg, kernels.use_backend(backend):
        try:
            y, st = fn(source(), x, **kwargs)
            seen = (y.tobytes(), st.dma_seconds.hex(), sorted(st.traffic.edges().items()),
                    st.oocore, st.degraded_blocks)
        except Exception as exc:  # compared, type included, against the route's
            seen = (type(exc), str(exc), getattr(exc, "block_id", None),
                    type(exc.__cause__), str(exc.__cause__))
    counts = {
        key: rec.get("value", rec.get("count")) for key, rec in reg.snapshot().items()
        if rec["name"].startswith(("codecs.decode.", "codec.mix.", "kernels.dispatch",
                                   "faults.", "memsys."))
        and rec["name"] != "codecs.decode.stage_seconds"
    }
    return seen, counts


def _assert_fused_matches_per_block(source, x, **kwargs):
    for backend in BACKENDS:
        fused = _observe(source, x, backend, **kwargs)
        assert fused == _observe(source, x, backend, cancel=_never, **kwargs), backend
    return fused


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
    for source in (lambda: plan, lambda: str(path),
                   lambda: ContainerReader(path, verify="lazy")):
        seen, counts = _assert_fused_matches_per_block(source, x)
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
    seen, _ = _assert_fused_matches_per_block(lambda: bad, _rhs(plan), policy=policy)
    assert seen[:2] == (ContainerError, "container corruption: record CRC mismatch")


@pytest.mark.parametrize("policy", ["strict", "degrade"])
@pytest.mark.parametrize("where", WHERE)
def test_undecodable_record_in_a_span(plans, tmp_path, where, policy):
    plan = _undecodable(plans["many-spans"][0], where)
    path = tmp_path / "bad.dsh"
    save_plan(plan, path)
    for source in (lambda: plan, lambda: str(path)):
        seen, _ = _assert_fused_matches_per_block(source, _rhs(plan), policy=policy)
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
        seen, _ = _assert_fused_matches_per_block(lambda: bad, _rhs(plan))
        if column > 0:
            assert seen[0] is IndexError and str(ncols + 3) in seen[1]
        else:
            assert isinstance(seen[0], bytes)


def test_dram_faults_mid_span_degrade_the_blocks_they_touch(plans):
    plan, path = plans["many-spans"]
    x = _rhs(plan)
    fault = FaultPlan(seed=5, dram_bitflip_rate=0.1)
    want = spmv_blocked(plan.blocked, x, recode=lambda b: b).tobytes()
    for source in (lambda: plan, lambda: str(path)):
        with fault.activate():
            seen, counts = _assert_fused_matches_per_block(source, x, policy="degrade")
        assert seen[0] == want and seen[4] > 0


def test_non_contiguous_out_is_filled(plans):
    plan = plans["many-spans"][0]
    X = _rhs(plan, 3)
    want, _ = recoded_spmm(plan, X)
    out = np.zeros(want.shape, order="F")
    got, _ = recoded_spmm(plan, X, out=out)
    assert got is out and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
def test_cancel_takes_the_per_block_route_and_stops_exactly(plans, backend):
    plan, path = plans["many-spans"]
    done = SPAN // 2 + 1
    for source in (plan, str(path)):
        polls = []
        with obs.scoped_registry() as reg, kernels.use_backend(backend):
            with pytest.raises(RunCancelled) as info:
                recoded_spmv(source, _rhs(plan), cancel=lambda: polls.append(1) or
                             len(polls) > done)
        assert info.value.blocks_done == done
        assert reg.value("codecs.decode.records") == 2 * done


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


def _engine_observe(source, x, backend, engine, **kwargs):
    """:func:`_observe` of a run on ``engine``, with the engine's block and
    byte counts and quarantined blocks, and each borrowed reader's CRC
    skips."""
    readers = []

    def opened():
        src = source()
        if isinstance(src, ContainerReader):
            readers.append(src)
        return src

    seen, counts = _observe(opened, x, backend, engine=engine, **kwargs)
    for reader in readers:
        reader.close()
    return (seen, counts, [r.crc_skips for r in readers], engine.stats.blocks_decoded,
            engine.stats.bytes_decoded, sorted(q[2] for q in engine.quarantined))


def _assert_engine_fused_matches_per_block(source, x, **kwargs):
    """A run on a cache-less engine, fused, equals the same run on another
    taking the per-block route (a ``cancel`` that never fires), on every
    backend."""
    for backend in BACKENDS:
        fused = _fused_engine_observe(source, x, backend, RecodeEngine(retry_base_s=0.0),
                                      **kwargs)
        per_block = _engine_observe(source, x, backend, RecodeEngine(retry_base_s=0.0),
                                    cancel=_never, **kwargs)
        assert fused == per_block, backend
    return fused


def _fused_engine_observe(source, x, backend, engine, **kwargs):
    """:func:`_engine_observe` of a run that must take the fused route."""
    with mock.patch.object(spmv_pipeline, "run_spans", side_effect=spmv_pipeline.run_spans) as op:
        seen = _engine_observe(source, x, backend, engine, **kwargs)
    assert op.call_count == 1 and op.call_args.args[-1] is not None
    return seen


def _sources(plan, path):
    return (lambda: plan, lambda: ContainerReader(path, verify="lazy"))


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
            seen, counts, *_, quarantined = _assert_engine_fused_matches_per_block(
                source, _rhs(plan), policy=policy)
        if fault == "latency":
            assert counts["faults.injected.latency_events"] == 1
            assert isinstance(seen[0], bytes) and not quarantined
        else:
            assert quarantined == [where]
            assert counts["faults.retries"] == 2
            assert (seen[2] == where) if policy == "strict" else (seen[4] == 1)


@pytest.mark.parametrize("policy", ["strict", "degrade"])
def test_engine_fused_quarantine_hits(plans, policy):
    """A second run hits the blocks a first run quarantined: its spans end
    before them, and each fails at once, as on the per-block route."""
    plan, path = plans["many-spans"]
    x = _rhs(plan)
    bad = (0, SPAN // 2, SPAN - 1)
    engine = RecodeEngine(retry_base_s=0.0)
    with FaultPlan(seed=3, bitflip_blocks=bad).activate():
        recoded_spmv(plan, x, engine=engine, matrix_id="q", policy="degrade")
    for source, rhs, backend in itertools.product(
            _sources(plan, path), (x, _rhs(plan, 8)), BACKENDS):
        fused_engine, per_block_engine = (RecodeEngine(retry_base_s=0.0) for _ in range(2))
        fused_engine.quarantined = set(engine.quarantined)
        per_block_engine.quarantined = set(engine.quarantined)
        fused = _fused_engine_observe(source, rhs, backend, fused_engine, matrix_id="q",
                                      policy=policy)
        assert fused == _engine_observe(source, rhs, backend, per_block_engine,
                                        matrix_id="q", policy=policy, cancel=_never)
        seen, counts = fused[:2]
        hits = counts["faults.quarantine_hits"]
        if policy == "strict":
            assert (hits, seen[2]) == (1, 0)
        else:
            assert (hits, seen[4]) == (len(bad), len(bad))


@pytest.mark.parametrize("policy", ["strict", "degrade"])
@pytest.mark.parametrize("where", WHERE[:3])
def test_engine_fused_record_crc_mismatch(plans, tmp_path, where, policy):
    plan, path = plans["many-spans"]
    bad = _flip_record_byte(path, where, tmp_path)
    source = lambda: ContainerReader(bad, verify="lazy")  # noqa: E731
    seen = _assert_engine_fused_matches_per_block(source, _rhs(plan), policy=policy)[0]
    assert seen[:2] == (ContainerError, "container corruption: record CRC mismatch")
    for backend in BACKENDS:  # the engine-less run raises the same
        assert _observe(source, _rhs(plan), backend, policy=policy)[0] == seen


@pytest.mark.parametrize("where", WHERE[:3])
def test_engine_fused_column_outside_x(plans, where):
    plan = plans["many-spans"][0]
    bad = _with_column(plan, where, plan.blocked.shape[1] + 3)
    for k in (None, 4):
        x = _rhs(plan, k)
        seen = _assert_engine_fused_matches_per_block(lambda: bad, x)[0]
        assert seen[0] is IndexError
        for backend in BACKENDS:
            assert _observe(lambda: bad, x, backend)[0] == seen
