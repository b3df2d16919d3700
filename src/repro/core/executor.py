"""Block executors for recoded SpMV/SpMM: the ``recode`` hooks of one loop.

The paper's executor (Fig. 7) is one tiled loop over blocks with a
``recode()`` call in front of each multiply. The blocked kernels
(:func:`~repro.sparse.spmv.spmv_blocked`,
:func:`~repro.sparse.spmm.spmm_blocked`) are that loop, and every
executor is only the hook it calls for block *i*, in block order:

* :class:`RecodeHook` polls ``cancel``, streams block *i*'s compressed
  records out of DRAM and charges their DMA, asks a *decoder* for the
  block, and applies the strict/degrade failure policy;
* :func:`serial_decoder` decodes block *i* on the spot — the cycle-level
  UDP programs, ``engine.decode_block``, or ``plan.decompress_block``;
* :func:`run_pipelined` reads block *i* off one
  :meth:`~repro.codecs.engine.RecodeEngine.decode_blocks_async` handle
  for the whole run, which decodes it inline when asked.

Because the kernel consumes blocks in order whatever the decoder, the
multiply, the ``TrafficLog``, the ``dma_seconds`` float-addition
sequence and the raised errors are the serial ones bit for bit.
"""

from __future__ import annotations

import time
from collections.abc import Callable

import numpy as np

from repro import obs
from repro.codecs.engine import BlockFailure, RecodeEngine
from repro.codecs.errors import BlockDecodeError, CodecError, block_error
from repro.codecs.pipeline import MatrixCompression
from repro.memsys.dma import DMAEngine
from repro.memsys.dram import MemorySystem
from repro.memsys.traffic import TrafficLog
from repro.sparse.blocked import CSRBlock
from repro.udp.lane import Lane
from repro.udp.runtime import DecoderToolchain

#: ``decoder(i, idx_rec, val_rec) -> CSRBlock``; raises CodecError.
Decoder = Callable[[int, object, object], CSRBlock]


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


def _arrived_faulty(plan: MatrixCompression, i: int, idx_rec, val_rec) -> bool:
    """Whether a DRAM-side fault corrupted block ``i``'s streamed copy, in
    which case the block must decode exactly what arrived — never the
    engine's cached or pristine view."""
    return idx_rec is not plan.index_records[i] or val_rec is not plan.value_records[i]


def serial_decoder(
    plan: MatrixCompression,
    engine: RecodeEngine | None,
    matrix_id: str,
    use_udp_simulator: bool,
) -> Decoder:
    """Decode each block when the kernel reaches it (``mode="serial"``)."""
    toolchain = DecoderToolchain(plan) if use_udp_simulator else None
    lane = Lane() if use_udp_simulator else None

    def decode(i: int, idx_rec, val_rec) -> CSRBlock:
        if toolchain is not None:
            idx_chain = toolchain.run_chain(i, "index", lane=lane)
            val_chain = toolchain.run_chain(i, "value", lane=lane)
            if not (idx_chain.verified and val_chain.verified):
                raise BlockDecodeError(
                    f"UDP decode failed verification at block {i}", block_id=i
                )
            ref = plan.blocked.blocks[i]
            return CSRBlock(
                row_start=ref.row_start,
                row_end=ref.row_end,
                row_ptr=ref.row_ptr,
                col_idx=np.frombuffer(idx_chain.output, dtype="<i4"),
                val=np.frombuffer(val_chain.output, dtype="<f8"),
                nnz_start=ref.nnz_start,
                leading_partial=ref.leading_partial,
            )
        if engine is not None and not _arrived_faulty(plan, i, idx_rec, val_rec):
            return engine.decode_block(plan, i, matrix_id=matrix_id)
        return plan.decompress_block(i, index_record=idx_rec, value_record=val_rec)

    return decode


class PipelinedDecoder:
    """The pipelined decoder: one engine handle for the whole run, read in
    block order.

    The handle yields block *i* when the kernel asks for it. A DRAM-
    faulted block still takes its engine result off the handle but
    decodes what arrived instead. :meth:`close` (called however the run
    ends) closes the handle and flushes the ``spmv.pipeline.*``
    telemetry: ``multiply_idle_seconds`` is the time the kernel waited on
    decode, and ``decode_idle_seconds`` and ``multiply_seconds`` the time
    it spent multiplying, with the inline decoder idle.
    """

    def __init__(self, plan: MatrixCompression, engine: RecodeEngine, matrix_id: str):
        self._plan = plan
        self._handle = engine.decode_blocks_async(plan, matrix_id=matrix_id)
        self._wait_s = self._multiply_s = 0.0
        # When the last block went to the multiply.
        self._handed_at: float | None = None

    def _charge_multiply(self) -> None:
        if self._handed_at is not None:
            self._multiply_s += time.perf_counter() - self._handed_at
            self._handed_at = None

    def __call__(self, i: int, idx_rec, val_rec) -> CSRBlock:
        self._charge_multiply()
        t0 = time.perf_counter()
        _, res = next(self._handle)
        self._handed_at = time.perf_counter()
        self._wait_s += self._handed_at - t0
        if _arrived_faulty(self._plan, i, idx_rec, val_rec):
            return self._plan.decompress_block(
                i, index_record=idx_rec, value_record=val_rec
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
        reg.counter("spmv.pipeline.multiply_seconds").inc(self._multiply_s)


def run_pipelined(
    plan: MatrixCompression, engine: RecodeEngine, matrix_id: str
) -> PipelinedDecoder:
    """Start a pipelined run's decoder (``mode="pipelined"``): one engine
    handle over every block of ``plan``."""
    return PipelinedDecoder(plan, engine, matrix_id)


class RecodeHook:
    """The ``recode`` hook the blocked kernels call in front of block *i*.

    The kernel calls it once per block, in block order. It polls
    ``cancel``, streams both records out of ``memory`` and charges their
    DMA (one block at a time, so an mmap-backed plan stays at bounded
    residency), decodes through ``decode``, and on a codec error raises
    the :class:`BlockDecodeError` naming the block (``strict``) or
    substitutes ``raw_block(i)`` — the pristine raw block, streamed
    uncompressed — and counts it (``degrade``).
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
        self.dma = DMAEngine(memory, log=log)
        self.decode = decode
        self.raw_block = raw_block
        self.policy = policy
        self.cancel = cancel
        self.prefix = prefix
        self.blocks = 0
        self.degraded = 0
        self.dma_seconds = 0.0

    def __call__(self, _stored: CSRBlock) -> CSRBlock:
        i = self.blocks
        if self.cancel is not None and self.cancel():
            raise RunCancelled(blocks_done=i)
        self.blocks = i + 1
        plan, dma = self.plan, self.dma
        idx_rec = self.memory.stream_record(plan.index_records[i], i, "index")
        val_rec = self.memory.stream_record(plan.value_records[i], i, "value")
        with obs.trace(f"{self.prefix}.block", block=i):
            self.dma_seconds += dma.transfer(idx_rec.stored_bytes, "dram", "udp").seconds
            self.dma_seconds += dma.transfer(val_rec.stored_bytes, "dram", "udp").seconds
            try:
                block = self.decode(i, idx_rec, val_rec)
            except CodecError as exc:
                if self.policy == "strict":
                    raise block_error(i, exc)
                # degrade: the result stays bit-exact; the block just
                # streams uncompressed.
                self.degraded += 1
                block = self.raw_block(i)
                self.dma_seconds += dma.transfer(12 * block.nnz, "dram", "cpu").seconds
                obs.registry().counter("spmv.degraded_blocks").inc()
                return block
            self.log.record("udp", "cpu", 12 * block.nnz)
        return block
