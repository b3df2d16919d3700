"""Run accounting: what a recoded run charges, however it ends.

A recoded SpMV/SpMM charges the DMA model for every record it streams
(``dma_seconds``, the ``dram -> udp`` traffic edge, the ``memsys.*``
counters), the ``udp -> cpu`` edge for every block it decodes, and the
``codecs.decode.*`` and ``kernels.dispatch`` telemetry of every decode.
These tests pin those totals to the per-block charging they stand for —
one :meth:`DMAEngine.transfer` per streamed record, one ``dram -> cpu``
transfer per degraded block, one one-block
:meth:`~repro.codecs.pipeline.MatrixCompression.decompress_block` per
decoded block — replayed in block order into a fresh registry. The
executor may charge a run's fixed bookkeeping once per run; it must land
on the same numbers, bit for bit, on success, on a strict decode error,
on a cancel and under degrade, for serial and pipelined runs over an
in-memory plan and over a streamed container.
"""

import numpy as np
import pytest

from repro import kernels, obs
from repro.codecs.container import ContainerReader, save_plan
from repro.codecs.engine import RecodeEngine
from repro.codecs.errors import BlockDecodeError
from repro.codecs.pipeline import compress_matrix
from repro.collection import generators
from repro.core import RunCancelled, recoded_spmm, recoded_spmv
from repro.faults import FaultPlan
from repro.kernels.registry import KernelRegistry
from repro.memsys.dma import DMAEngine
from repro.memsys.dram import DDR4_100GBS
from repro.memsys.traffic import TrafficLog

#: The block a faulted run fails on.
FAULT_BLOCK = 4
#: Blocks a cancelled run completes.
CANCEL_AFTER = 3

#: ``(mode, with_engine)``: serial decoding on the spot, serial through an
#: engine, and pipelined (always an engine).
EXECUTORS = (("serial", False), ("serial", True), ("pipelined", True))
ENDINGS = ("success", "strict", "cancel", "degrade")


@pytest.fixture(scope="module")
def plan():
    p = compress_matrix(generators.unstructured(300, density=0.04, seed=11), block_bytes=1024)
    assert p.nblocks > FAULT_BLOCK + 2
    return p


@pytest.fixture(scope="module")
def container(plan, tmp_path_factory):
    path = tmp_path_factory.mktemp("accounting") / "m.dsh"
    save_plan(plan, path)
    return path


def _fault(with_engine: bool) -> FaultPlan:
    # The engine decodes the record-site copy; a plain serial run decodes
    # what the DMA streamed, so its fault goes on the DRAM copy.
    if with_engine:
        return FaultPlan(bitflip_blocks=(FAULT_BLOCK,))
    return FaultPlan(dram_bitflip_blocks=(FAULT_BLOCK,))


def _tracked(snapshot: dict) -> dict:
    """The run's accounting metrics; wall-clock ones by presence/count."""
    out = {}
    for key, rec in snapshot.items():
        name = rec["name"]
        if not (
            name.startswith(("memsys.", "codecs.decode.", "codecs.huffman.decode",
                             "codecs.delta.decode"))
            or name == "kernels.dispatch"
        ):
            continue
        if rec["type"] == "histogram":
            out[key] = ("count", rec["count"])
        elif name == "codecs.decode.stage_seconds":
            out[key] = "present"
        else:
            out[key] = rec["value"]
    return out


def _run(source, x, mode, with_engine, ending, spmm):
    """Run one configuration in a fresh registry; returns
    ``(snapshot, stats or None, blocks_streamed)``."""
    polls = []

    def cancel():
        polls.append(1)
        return len(polls) > CANCEL_AFTER

    kwargs = dict(
        mode=mode,
        engine=RecodeEngine(retry_base_s=0.0) if with_engine else None,
        policy="degrade" if ending == "degrade" else "strict",
        cancel=cancel if ending == "cancel" else None,
    )
    fn = recoded_spmm if spmm else recoded_spmv
    stats = None
    with obs.scoped_registry() as reg:
        if ending in ("strict", "degrade"):
            with _fault(with_engine).activate():
                if ending == "strict":
                    with pytest.raises(BlockDecodeError) as info:
                        fn(source, x, **kwargs)
                    assert info.value.block_id == FAULT_BLOCK
                else:
                    _, stats = fn(source, x, **kwargs)
        elif ending == "cancel":
            with pytest.raises(RunCancelled) as info:
                fn(source, x, **kwargs)
            assert info.value.blocks_done == CANCEL_AFTER
        else:
            _, stats = fn(source, x, **kwargs)
        return reg.snapshot(), stats


def _replay(plan, streamed: int, failed: int | None, degraded: set, raw_decodes: bool):
    """The per-block charging of a run that streamed ``streamed`` blocks,
    failed to decode block ``failed`` (or none) and substituted the
    ``degraded`` ones: returns ``(snapshot, log, dma_seconds)``."""
    log = TrafficLog()
    seconds = 0.0
    with obs.scoped_registry() as reg:
        dma = DMAEngine(DDR4_100GBS, log=log)
        for i in range(streamed):
            seconds += dma.transfer(plan.index_records[i].stored_bytes, "dram", "udp").seconds
            seconds += dma.transfer(plan.value_records[i].stored_bytes, "dram", "udp").seconds
            if i in degraded:
                block = plan.decompress_block(i) if raw_decodes else plan.blocked.blocks[i]
                seconds += dma.transfer(12 * block.nnz, "dram", "cpu").seconds
            elif i != failed:
                block = plan.decompress_block(i)
                log.record("udp", "cpu", 12 * block.nnz)
        return reg.snapshot(), log, seconds


@pytest.mark.parametrize("spmm", [False, True], ids=["spmv", "spmm"])
@pytest.mark.parametrize("streamed_source", [False, True], ids=["in-memory", "container"])
@pytest.mark.parametrize("executor", EXECUTORS, ids=["serial", "serial-engine", "pipelined"])
@pytest.mark.parametrize("ending", ENDINGS)
def test_run_charges_what_per_block_charging_does(
    plan, container, ending, executor, streamed_source, spmm
):
    mode, with_engine = executor
    ncols = plan.blocked.shape[1]
    rng = np.random.default_rng(3)
    x = rng.standard_normal((ncols, 3)) if spmm else rng.standard_normal(ncols)
    reader = ContainerReader(container, verify="lazy") if streamed_source else None
    try:
        snapshot, stats = _run(reader or plan, x, mode, with_engine, ending, spmm)
    finally:
        if reader is not None:
            reader.close()

    n = plan.nblocks
    streamed = {"success": n, "strict": FAULT_BLOCK + 1, "cancel": CANCEL_AFTER,
                "degrade": n}[ending]
    failed = FAULT_BLOCK if ending in ("strict", "degrade") else None
    degraded = {FAULT_BLOCK} if ending == "degrade" else set()
    want, log, dma_seconds = _replay(plan, streamed, failed, degraded, streamed_source)

    assert _tracked(snapshot) == _tracked(want)
    if stats is not None:
        assert stats.dma_seconds == dma_seconds  # exact: same additions, same order
        assert stats.traffic.edges() == log.edges()
        assert stats.degraded_blocks == len(degraded)


@pytest.mark.skipif(
    "native" not in kernels.available_backends(), reason="needs the native backend"
)
@pytest.mark.parametrize("mode", ["serial", "pipelined"])
def test_fault_free_run_pays_its_bookkeeping_once(plan, container, monkeypatch, mode):
    """No per-block DMA model call, and one kernel-backend resolution per
    run, whatever the number of blocks."""
    calls = {"transfer": 0, "resolve": 0}
    transfer, resolve = DMAEngine.transfer, KernelRegistry.resolve_backend

    def counted_transfer(self, *args, **kwargs):
        calls["transfer"] += 1
        return transfer(self, *args, **kwargs)

    def counted_resolve(self):
        calls["resolve"] += 1
        return resolve(self)

    monkeypatch.setattr(DMAEngine, "transfer", counted_transfer)
    monkeypatch.setattr(KernelRegistry, "resolve_backend", counted_resolve)
    x = np.ones(plan.blocked.shape[1])
    engine = RecodeEngine() if mode == "pipelined" else None
    with kernels.use_backend("native"), ContainerReader(container, verify="lazy") as reader:
        for source in (plan, reader):
            calls.update(transfer=0, resolve=0)
            _, stats = recoded_spmv(source, x, mode=mode, engine=engine)
            assert stats.traffic.bytes_on("dram", "udp") > 0
            assert calls == {"transfer": 0, "resolve": 1}, (source, plan.nblocks)
