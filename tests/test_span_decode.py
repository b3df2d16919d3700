"""Span decode: a recoded run decodes a span of blocks per native call.

A :class:`~repro.codecs.pipeline.DecodeRun` decodes up to ``SPAN`` blocks
ahead in one ``dsh_decode_span`` call, reading a container's payloads in
place. These tests hold every backend's runs to an oracle that decodes
nothing (the blocked kernels over the plan's raw blocks, the same loop
bit for bit) and to the ``python`` backend's accounting, and check that
a bad record, a cancel or an armed fault plan lands on exactly the block
and counters per-block decoding gives.
"""

import dataclasses
import re
import zlib

import numpy as np
import pytest

from repro import kernels, obs
from repro.codecs.container import ContainerReader, save_plan
from repro.codecs.engine import DecodedBlockCache, RecodeEngine
from repro.codecs.errors import BlockDecodeError, CodecError, ContainerError
from repro.codecs.pipeline import SPAN, compress_matrix, decode_block_reference
from repro.collection import generators
from repro.core import RunCancelled, recoded_spmm, recoded_spmv
from repro.faults import FaultPlan
from repro.sparse.csr import CSRMatrix
from repro.sparse.spmm import spmm_blocked
from repro.sparse.spmv import spmv_blocked
from tests.tagged_plans import reencode_with_tags

BACKENDS = kernels.available_backends()
WHERE = (0, SPAN // 2, SPAN - 1, SPAN)  # first, middle, last of a span; next span


def _long_rows() -> CSRMatrix:
    """50 entries a row against 20-entry blocks: every block boundary,
    the span boundary included, splits a row."""
    rows = 60
    col = np.tile(np.arange(0, 100, 2, dtype=np.int32), rows)
    val = np.random.default_rng(4).standard_normal(col.size)
    return CSRMatrix((rows, 100), np.arange(0, col.size + 1, 50), col, val)


def _empty_rows() -> CSRMatrix:
    rng = np.random.default_rng(7)
    dense = rng.standard_normal((60, 40)) * (rng.random((60, 40)) < 0.3)
    dense[:4] = dense[20:27] = dense[41] = dense[55:] = 0.0
    return CSRMatrix.from_dense(dense)


def _tagged():
    plan = compress_matrix(generators.banded(1200, bandwidth=4, seed=2), block_bytes=1024)
    n = plan.nblocks
    return reencode_with_tags(plan, [t % 8 for t in range(n)], [(t + 3) % 8 for t in range(n)])


PLANS = {
    "many-spans": lambda: compress_matrix(
        generators.banded(2000, bandwidth=5, seed=3), block_bytes=1024),
    "split-at-span-boundary": lambda: compress_matrix(_long_rows(), block_bytes=240),
    "empty-rows": lambda: compress_matrix(_empty_rows(), block_bytes=240),
    "one-block": lambda: compress_matrix(generators.banded(20, bandwidth=1, seed=1)),
    "zero-blocks": lambda: compress_matrix(CSRMatrix((0, 4), np.zeros(1, np.int64), [], [])),
    "tagged": _tagged,
}


@pytest.fixture(scope="module")
def plans(tmp_path_factory):
    out = {}
    for name, build in PLANS.items():
        plan = build()
        path = tmp_path_factory.mktemp("span") / f"{name}.dsh"
        save_plan(plan, path)
        out[name] = (plan, path)
    big, split = out["many-spans"][0], out["split-at-span-boundary"][0]
    assert big.nblocks > 2 * SPAN and split.nblocks > SPAN
    assert split.blocked.blocks[SPAN].leading_partial
    return out


def _rhs(plan, k=None):
    rng = np.random.default_rng(9)
    n = plan.blocked.shape[1]
    return rng.standard_normal(n) if k is None else rng.standard_normal((n, k))


def _observe(source, x, backend, **kwargs):
    """Everything a run reports that must not depend on the backend."""
    fn = recoded_spmv if x.ndim == 1 else recoded_spmm
    with obs.scoped_registry() as reg, kernels.use_backend(backend):
        y, st = fn(source, x, **kwargs)
    counts = {
        rec["name"]: rec.get("value", rec.get("count")) for rec in reg.snapshot().values()
        if rec["name"].startswith(("codecs.decode.", "codec.mix.", "kernels.dispatch",
                                   "faults."))
        and rec["name"] not in ("codecs.decode.stage_seconds",)
    }
    return (y.tobytes(), st.dma_seconds.hex(), st.dram_bytes,
            sorted(st.traffic.edges().items()), st.oocore, st.degraded_blocks, counts)


@pytest.mark.parametrize("spmm", [False, True], ids=["spmv", "spmm8"])
@pytest.mark.parametrize("name", sorted(PLANS))
def test_span_runs_match_the_reference(plans, name, spmm):
    plan, path = plans[name]
    x = _rhs(plan, 8 if spmm else None)
    kernel = spmm_blocked if spmm else spmv_blocked
    want_y = kernel(plan.blocked, x, recode=lambda b: b).tobytes()
    sources = {
        "in-memory": lambda: plan,
        "path": lambda: str(path),
        "borrowed": lambda: ContainerReader(path, verify="lazy"),
    }
    engines = {"none": lambda: None, "engine": lambda: RecodeEngine(),
               "cached": lambda: RecodeEngine(cache=DecodedBlockCache())}
    for (label, source), (elabel, engine) in (
        (s, e) for s in sources.items() for e in engines.items()
    ):
        seen = {b: _observe(source(), x, b, engine=engine()) for b in BACKENDS}
        for backend, got in seen.items():
            assert got[0] == want_y, (label, elabel, backend)
            assert got == seen["python"], (label, elabel, backend)
        if plan.nblocks:
            dispatched = seen["python"][-1]["kernels.dispatch"]
            assert dispatched == plan.nblocks, (label, elabel)


# ---------------------------------------------------------------------------
# Bad records inside a span
# ---------------------------------------------------------------------------


def _flip_record_byte(path, block: int, tmp_path) -> str:
    """A copy of ``path`` with one payload byte of ``block``'s index record
    flipped: its record CRC no longer matches."""
    with ContainerReader(path, verify="lazy") as reader:
        at = reader.payload_offset[2 * block] + reader.payload_len[2 * block] // 2
    data = bytearray(path.read_bytes())
    data[at] ^= 0x20
    out = tmp_path / f"flip{block}.dsh"
    out.write_bytes(bytes(data[:-4]) + zlib.crc32(data[:-4]).to_bytes(4, "little"))
    return str(out)


def _undecodable(plan, block: int):
    """``plan`` with ``block``'s value record cut short, its CRC stamp
    recomputed: the bytes are what was stored, and they do not decode."""
    rec = plan.value_records[block]
    cut = rec.payload[: len(rec.payload) // 2]
    bad = dataclasses.replace(rec, payload=cut, payload_crc=zlib.crc32(cut))
    records = list(plan.value_records)
    records[block] = bad
    return dataclasses.replace(plan, value_records=tuple(records))


def _polls():
    polls = []
    return polls, lambda: polls.append(1) and False


@pytest.mark.parametrize("policy", ["strict", "degrade"])
@pytest.mark.parametrize("where", WHERE)
def test_record_crc_mismatch_raises_at_its_block(plans, tmp_path, where, policy):
    plan, path = plans["many-spans"]
    bad = _flip_record_byte(path, where, tmp_path)
    for backend in BACKENDS:
        for engine in (None, RecodeEngine(retry_base_s=0.0)):
            polls, cancel = _polls()
            with kernels.use_backend(backend):
                with pytest.raises(ContainerError, match="^container corruption: record CRC "
                                   "mismatch$") as info:
                    recoded_spmv(bad, _rhs(plan), policy=policy, engine=engine, cancel=cancel)
            assert type(info.value) is ContainerError
            assert len(polls) == where + 1, (backend, engine)


@pytest.mark.parametrize("where", WHERE)
def test_undecodable_record_fails_or_degrades_exactly_its_block(plans, tmp_path, where):
    plan = _undecodable(plans["many-spans"][0], where)
    path = tmp_path / "bad.dsh"
    save_plan(plan, path)
    with kernels.use_backend("python"), pytest.raises(CodecError) as ref:
        decode_block_reference(plan, plan.index_records[where], plan.value_records[where])
    cause = (type(ref.value), str(ref.value))
    x = _rhs(plan)
    want_y = spmv_blocked(plan.blocked, x, recode=lambda b: b).tobytes()
    for backend in BACKENDS:
        for source in (plan, str(path)):
            for engine in (None, RecodeEngine(retry_base_s=0.0)):
                polls, cancel = _polls()
                with kernels.use_backend(backend):
                    with pytest.raises(BlockDecodeError) as info:
                        recoded_spmv(source, x, engine=engine, cancel=cancel)
                    assert info.value.block_id == where
                    assert len(polls) == where + 1
                    if engine is None:
                        assert (type(info.value.__cause__), str(info.value.__cause__)) == cause
                    if source is plan:
                        y, st = recoded_spmv(source, x, engine=engine, policy="degrade")
                        assert (y.tobytes(), st.degraded_blocks) == (want_y, 1)
                    else:
                        # The degraded block re-decodes the very mapped bytes.
                        with pytest.raises(cause[0], match=re.escape(cause[1])):
                            recoded_spmv(source, x, engine=engine, policy="degrade")


# ---------------------------------------------------------------------------
# Cancel and close
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_cancel_mid_span_counts_only_blocks_done(plans, monkeypatch, backend):
    plan, path = plans["many-spans"]
    done = SPAN // 2 + 1
    decoded = []
    real = kernels.REGISTRY._impls[("dsh_spmv_span", backend)]
    monkeypatch.setitem(kernels.REGISTRY._impls, ("dsh_spmv_span", backend),
                        lambda *a: decoded.append((out := real(*a))[0]) or out)
    for source in (plan, str(path)):
        decoded.clear()
        polls = []
        with obs.scoped_registry() as reg, kernels.use_backend(backend):
            with pytest.raises(RunCancelled) as info:
                recoded_spmv(source, _rhs(plan), cancel=lambda: polls.append(1) or
                             len(polls) > done)
        assert info.value.blocks_done == done
        assert reg.value("codecs.decode.records") == 2 * done
        assert reg.value("kernels.dispatch", op="dsh_decode_span", backend=backend) == done
        assert done <= sum(decoded) <= done + SPAN


def test_close_right_after_a_span_decode(plans):
    plan, path = plans["many-spans"]
    reader = ContainerReader(path, verify="lazy")
    rows = reader.record(slice(0, SPAN), "index")
    assert rows.shape == (SPAN, 5)
    with pytest.raises(RunCancelled):
        recoded_spmv(reader, _rhs(plan), cancel=iter([False] * 3 + [True]).__next__)
    reader.close()  # no export of the mapping is left: no BufferError
    assert reader._mm is None and reader._file is None
    with pytest.raises(ValueError, match="closed"):
        reader.record(0, "index")


@pytest.mark.parametrize("name", ["one-block", "empty-rows", "many-spans"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_run_after_close_raises_and_reads_nothing(plans, name, backend):
    """The records a run read in place are remembered, but a closed
    reader's mapping is gone: a later run over its plan raises."""
    plan, path = plans[name]
    x = _rhs(plan)
    with kernels.use_backend(backend):
        with ContainerReader(path, verify="lazy") as reader:
            borrowed = reader.plan()
            recoded_spmv(reader, x)
            recoded_spmv(borrowed, x)
        for source in (reader, borrowed):
            with pytest.raises(ValueError, match="ContainerReader is closed"):
                recoded_spmv(source, x)


# ---------------------------------------------------------------------------
# Armed fault plans
# ---------------------------------------------------------------------------


def _fired(fault, plan, site, rate):
    return {(i, s) for i in range(plan.nblocks) for s in ("index", "value")
            if fault._fires(rate, site, i, s)}


@pytest.mark.parametrize("kind", ["dram", "record", "latency"])
def test_fault_plans_touch_the_blocks_they_decide(plans, kind):
    plan, path = plans["many-spans"]
    x = _rhs(plan)
    fault = {
        "dram": FaultPlan(seed=5, dram_bitflip_rate=0.2),
        "record": FaultPlan(seed=6, bitflip_rate=0.2),
        "latency": FaultPlan(seed=7, latency_s=1e-4, latency_rate=0.3),
    }[kind]
    want_y = spmv_blocked(plan.blocked, x, recode=lambda b: b).tobytes()
    seen = {}
    for backend in BACKENDS:
        for label, source in (("in-memory", plan), ("path", str(path))):
            engine = RecodeEngine(retry_base_s=0.0)
            with fault.activate():
                got = _observe(source, x, backend, engine=engine, policy="degrade")
            seen[backend, label] = got[1:], sorted(engine.quarantined)
            assert got[0] == want_y
            counts = got[-1]
            if kind == "dram":
                flips = _fired(fault, plan, "dram", fault.dram_bitflip_rate)
                assert counts["faults.injected.dram_bitflips"] == len(flips)
                assert got[5] == len({i for i, _ in flips})
            elif kind == "record":
                flips = _fired(fault, plan, "bitflip", fault.bitflip_rate)
                assert counts["faults.injected.bitflips"] == len(flips)
                assert {q[2] for q in engine.quarantined} == {i for i, _ in flips}
            else:
                slow = [i for i in range(plan.nblocks)
                        if fault._fires(fault.latency_rate, "latency", i)]
                assert counts["faults.injected.latency_events"] == len(slow)
    for key, got in seen.items():
        assert got == seen["python", key[1]], key
