"""Block executors for recoded SpMV/SpMM: the ``recode`` hooks of one loop.

The paper's executor (Fig. 7) is one tiled loop over blocks with a
``recode()`` call in front of each multiply. The blocked kernels
(:func:`~repro.sparse.spmv.spmv_blocked`,
:func:`~repro.sparse.spmm.spmm_blocked`) are that loop, and every
executor is only the hook it calls for block *i*, in block order:

* :class:`RecodeHook` polls ``cancel``, streams block *i*'s compressed
  records out of DRAM, asks a *decoder* for the block, and applies the
  strict/degrade failure policy; the DMA model is charged per run, from
  a per-plan :func:`dma_ledger`;
* :func:`run_pipelined` is the decoder of every engine-backed run: it
  reads block *i* off one
  :meth:`~repro.codecs.engine.RecodeEngine.decode_blocks_async` handle
  for the whole run, which decodes it inline when asked;
* :func:`serial_decoder` is the decoder of engine-less runs: the
  cycle-level UDP programs, or ``plan.decompress_block`` through the
  run's :class:`~repro.codecs.pipeline.DecodeRun`.

Because the kernel consumes blocks in order whatever the decoder, the
multiply, the ``TrafficLog``, the ``dma_seconds`` float-addition
sequence and the raised errors are the engine-less ones bit for bit.
"""

from __future__ import annotations

import time
from collections.abc import Callable

import numpy as np

from repro import obs
from repro.codecs.engine import BlockFailure, RecodeEngine
from repro.codecs.errors import BlockDecodeError, CodecError, block_error
from repro.codecs.pipeline import DecodeRun, MatrixCompression, stored_sizes
from repro.memsys.dma import DMAEngine, DMALedger
from repro.memsys.dram import MemorySystem
from repro.memsys.traffic import TrafficLog
from repro.sparse.blocked import CSRBlock
from repro.udp.lane import Lane
from repro.udp.runtime import DecoderToolchain

#: ``decoder(i, idx_rec, val_rec, faulty) -> CSRBlock``, ``faulty`` when
#: a DRAM fault changed the streamed records; raises CodecError.
Decoder = Callable[[int, object, object, bool], CSRBlock]


class RunCancelled(RuntimeError):
    """A run's ``cancel`` callback fired at a block boundary.

    Cooperative cancellation for deadline-bound callers (the serve layer):
    the executor polls the callback between blocks and abandons the run
    as soon as it returns True, so a request past its deadline stops
    borrowing decode time, DMA model time, and cache capacity. The
    partial result is discarded — nothing observable is half-updated.
    """

    def __init__(self, message: str = "run cancelled", blocks_done: int = 0):
        super().__init__(message)
        self.blocks_done = blocks_done


# perfbench's ledger patches this name; the blocked kernels multiply in-loop.
def multiply_block(block: CSRBlock, x: np.ndarray, out: np.ndarray) -> None:
    """Multiply one block into ``out`` exactly as the blocked kernels do."""
    if block.nnz:
        rows, seg_starts = block.row_segments()
        vals = block.val if x.ndim == 1 else block.val[:, None]
        out[rows] += np.add.reduceat(vals * x[block.col_idx], seg_starts, axis=0)


def serial_decoder(
    plan: MatrixCompression, use_udp_simulator: bool, run: DecodeRun
) -> Decoder:
    """Decode each block when the kernel reaches it, with the UDP programs
    or through ``run``: the decoder of runs without an engine (and of UDP
    simulator runs, which ignore it)."""
    toolchain = DecoderToolchain(plan) if use_udp_simulator else None
    lane = Lane() if use_udp_simulator else None

    def decode(i: int, idx_rec, val_rec, faulty: bool) -> CSRBlock:
        if toolchain is not None:
            idx_chain = toolchain.run_chain(i, "index", lane=lane)
            val_chain = toolchain.run_chain(i, "value", lane=lane)
            if not (idx_chain.verified and val_chain.verified):
                raise BlockDecodeError(
                    f"UDP decode failed verification at block {i}", block_id=i
                )
            return plan.blocked.blocks[i].with_payload(
                np.frombuffer(idx_chain.output, dtype="<i4"),
                np.frombuffer(val_chain.output, dtype="<f8"),
            )
        return plan.decompress_block(i, index_record=idx_rec, value_record=val_rec, run=run)

    return decode


class PipelinedDecoder:
    """The engine decoder: one engine handle for the whole run, read in
    block order.

    The handle yields block *i* when the kernel asks for it. A DRAM-
    faulted block still takes its engine result off the handle but
    decodes what arrived instead. :meth:`close` (called however the run
    ends) closes the handle and flushes the ``spmv.pipeline.*``
    telemetry: ``multiply_idle_seconds`` is the time the kernel waited on
    decode, and ``decode_idle_seconds`` the time it spent multiplying,
    with the inline decoder idle.
    """

    def __init__(
        self, plan: MatrixCompression, engine: RecodeEngine, matrix_id: str, run: DecodeRun
    ):
        self._plan = plan
        self._run = run
        self._handle = engine.decode_blocks_async(plan, matrix_id=matrix_id)
        self._wait_s = self._multiply_s = 0.0
        # When the last block went to the multiply.
        self._handed_at: float | None = None

    def _charge_multiply(self) -> None:
        if self._handed_at is not None:
            self._multiply_s += time.perf_counter() - self._handed_at
            self._handed_at = None

    def __call__(self, i: int, idx_rec, val_rec, faulty: bool) -> CSRBlock:
        self._charge_multiply()
        t0 = time.perf_counter()
        _, res = next(self._handle)
        self._handed_at = time.perf_counter()
        self._wait_s += self._handed_at - t0
        if faulty:
            return self._plan.decompress_block(
                i, index_record=idx_rec, value_record=val_rec, run=self._run
            )
        if isinstance(res, BlockFailure):
            raise res.error
        return res

    def close(self) -> None:
        self._charge_multiply()
        self._handle.close()
        reg = obs.registry()
        reg.counter("spmv.pipeline.runs").inc()
        reg.counter("spmv.pipeline.multiply_idle_seconds").inc(self._wait_s)
        reg.counter("spmv.pipeline.decode_idle_seconds").inc(self._multiply_s)


def run_pipelined(
    plan: MatrixCompression, engine: RecodeEngine, matrix_id: str, run: DecodeRun
) -> PipelinedDecoder:
    """Start an engine-backed run's decoder: one engine handle over every
    block of ``plan``; ``run`` decodes DRAM-faulted blocks."""
    return PipelinedDecoder(plan, engine, matrix_id, run)


def dma_ledger(plan: MatrixCompression, memory: MemorySystem) -> DMALedger:
    """The DMA of streaming ``plan``'s blocks (index record, then value
    record, block by block) out of ``memory``, costed once per plan and
    memory. DRAM faults flip bits, never sizes, so it holds on every run."""
    ledgers = plan.__dict__.setdefault("_dma_ledgers", {})
    ledger = ledgers.get(memory)
    if ledger is None:
        sizes = np.column_stack(
            (stored_sizes(plan.index_records), stored_sizes(plan.value_records))
        ).reshape(-1)
        ledger = ledgers[memory] = DMALedger(memory, sizes)
    return ledger


class RecodeHook:
    """The ``recode`` hook the blocked kernels call in front of block *i*.

    The kernel calls it once per block, in block order. It polls
    ``cancel``, streams both records out of ``memory`` (one block at a
    time, so an mmap-backed plan stays at bounded residency), decodes
    through ``decode``, and on a codec error raises the
    :class:`BlockDecodeError` naming the block (``strict``) or substitutes
    ``raw_block(i)`` — the pristine raw block, streamed uncompressed —
    and counts it (``degrade``).

    The model is charged per run, not per block: :meth:`charge` books the
    streamed records' DMA from the plan's :func:`dma_ledger` and the
    decoded blocks' ``udp -> cpu`` bytes, before a degraded block's own
    transfer and when the run ends, so ``dma_seconds``, the log and the
    counters come out as per-block charging leaves them.
    """

    def __init__(
        self,
        plan: MatrixCompression,
        *,
        memory: MemorySystem,
        log: TrafficLog,
        decode: Decoder,
        raw_block: Callable[[int], CSRBlock],
        policy: str,
        cancel: Callable[[], bool] | None,
        prefix: str,
    ):
        self.plan = plan
        self.memory = memory
        self.log = log
        self.ledger = dma_ledger(plan, memory)
        self.decode = decode
        self.raw_block = raw_block
        self.policy = policy
        self.cancel = cancel
        self.span = f"{prefix}.block"
        self.blocks = 0
        self.degraded = 0
        self.dma_seconds = 0.0
        # Blocks streamed / charged to the ledger, and the decoded blocks'
        # udp -> cpu bytes not yet logged.
        self._streamed = self._charged = 0
        self._decoded = self._cpu_bytes = 0

    def __call__(self, _stored: CSRBlock) -> CSRBlock:
        i = self.blocks
        if self.cancel is not None and self.cancel():
            raise RunCancelled(blocks_done=i)
        self.blocks = i + 1
        plan, memory = self.plan, self.memory
        stored_idx, stored_val = plan.index_records[i], plan.value_records[i]
        idx_rec = memory.stream_record(stored_idx, i, "index")
        val_rec = memory.stream_record(stored_val, i, "value")
        self._streamed = i + 1
        faulty = idx_rec is not stored_idx or val_rec is not stored_val
        with obs.trace(self.span, block=i):
            try:
                block = self.decode(i, idx_rec, val_rec, faulty)
            except CodecError as exc:
                if self.policy == "strict":
                    raise block_error(i, exc)
                # degrade: the result stays bit-exact; the block just
                # streams uncompressed.
                self.degraded += 1
                self.charge()
                block = self.raw_block(i)
                dma = DMAEngine(memory, log=self.log)
                self.dma_seconds += dma.transfer(12 * block.nnz, "dram", "cpu").seconds
                obs.registry().counter("spmv.degraded_blocks").inc()
                return block
        self._decoded += 1
        self._cpu_bytes += 12 * block.nnz
        return block

    def charge(self) -> None:
        """Charge what was streamed and decoded since the last charge."""
        self.dma_seconds = self.ledger.charge(
            self.log, 2 * self._charged, 2 * self._streamed, self.dma_seconds
        )
        self._charged = self._streamed
        if self._decoded:
            self.log.record("udp", "cpu", self._cpu_bytes)
            self._decoded = self._cpu_bytes = 0
