"""Block executors for recoded SpMV/SpMM: one tiled loop, two routes.

The paper's executor (Fig. 7) is one tiled loop over blocks with a
``recode()`` call in front of each multiply. :func:`run_blocks` is that
loop, the per-block route, which UDP simulator runs take:
:class:`RecodeHook` polls ``cancel``, streams block *i*'s compressed
records out of DRAM, asks a *decoder* for the block and applies the
strict/degrade failure policy (the DMA model is charged per run, from a
per-plan :func:`dma_ledger`), and :func:`multiply_block` multiplies it.
On either route the hook's decoder is :func:`run_pipelined` on every
engine-backed run (one :meth:`~repro.codecs.engine.RecodeEngine.decode_blocks_async`
handle per run) and :func:`serial_decoder` on the others (the cycle-level
UDP programs, or ``plan.decompress_block`` through the run's
:class:`~repro.codecs.pipeline.DecodeRun`).

Every other run takes :func:`run_spans`, the fused route: one
``dsh_spmv_span`` call decodes and multiplies a span of blocks, in
:func:`multiply_block`'s summation order, and runs of an engine's cached
blocks are multiplied straight from its cache; the hook gets only the
blocks the op stops at or may not take, and an engine run's handle
counts (and caches) the others without yielding them. Blocks are
consumed in order on either route, so the multiply, the ``TrafficLog``,
the ``dma_seconds`` float-addition sequence and the raised errors are
the same bit for bit: :func:`run_blocks` is the fused route's oracle.
"""

from __future__ import annotations

import time
from collections.abc import Callable

import numpy as np

from repro import kernels, obs
from repro.codecs.engine import BlockFailure, RecodeEngine, plan_fingerprint
from repro.codecs.errors import BlockDecodeError, CodecError, block_error
from repro.codecs.pipeline import (
    DecodeRun, DecodeTally, MatrixCompression, RecordSpan, decode_span_reference, stored_sizes,
)
from repro.memsys.dma import DMAEngine, DMALedger
from repro.memsys.dram import MemorySystem
from repro.memsys.traffic import TrafficLog
from repro.sparse.blocked import CSRBlock
from repro.udp.lane import Lane
from repro.udp.runtime import DecoderToolchain

#: ``decoder(i, idx_rec, val_rec, faulty) -> CSRBlock``, the records
#: ``None`` when the run reads block ``i`` in place and ``faulty`` when a
#: DRAM fault changed the streamed records; raises CodecError.
Decoder = Callable[[int, object, object, bool], CSRBlock]

#: An engine run's ``spmv.pipeline.*`` counters, bound once per registry.
_PIPELINE_COUNTERS = obs.BoundMetrics(lambda reg, name: reg.counter(f"spmv.pipeline.{name}"))


class RunCancelled(RuntimeError):
    """A run's ``cancel`` callback fired at a block boundary.

    Cooperative cancellation for deadline-bound callers (the serve layer):
    the executor polls the callback once per block, in block order (a
    span's first block before the span op, the others after it), and
    abandons the run at the block it fires on, so a request past its
    deadline stops borrowing DMA model time, cache capacity and decode
    time after its current span (≤63 blocks). The partial result is
    discarded.
    """

    def __init__(self, message: str = "run cancelled", blocks_done: int = 0):
        super().__init__(message)
        self.blocks_done = blocks_done


def multiply_block(block: CSRBlock, x: np.ndarray, out: np.ndarray) -> None:
    """Multiply one block into ``out``, in every route's summation order."""
    if block.nnz:
        rows, seg_starts = block.row_segments()
        products = x.take(block.col_idx, axis=0)
        products *= block.val if x.ndim == 1 else block.val[:, None]
        out[rows] += np.add.reduceat(products, seg_starts, axis=0)


@kernels.REGISTRY.register("dsh_spmv_span", "numpy")
@kernels.REGISTRY.register("dsh_spmv_span", "python")
def multiply_span_reference(
    plan: MatrixCompression, span: RecordSpan, x: np.ndarray, out: np.ndarray,
    tally: DecodeTally,
) -> tuple[int, float, list]:
    """Reference ``dsh_spmv_span``: :func:`decode_span_reference`, then
    :func:`multiply_block` of each block up to the first whose payload or
    columns disagree with its rows or ``x``. Returns the blocks done, the
    multiply's seconds and their ``(col_idx, val)`` (telemetry: ``tally``)."""
    decoded = DecodeTally()
    try:
        pairs = decode_span_reference(plan, span, decoded)
    except Exception:  # the block's own route raises it
        pairs = []
    t0 = time.perf_counter()
    done = 0
    for shell, (col, val) in zip(plan.blocked.blocks[span.start :], pairs):
        if len(col) != shell.nnz or len(val) != len(col) or col.size and not (
            0 <= col.min() and col.max() < len(x)
        ):
            break
        multiply_block(shell.with_payload(col, val), x, out)
        done += 1
    tally.rows += decoded.rows[: 2 * done]
    return done, time.perf_counter() - t0, pairs[:done]


def serial_decoder(
    plan: MatrixCompression, use_udp_simulator: bool, run: DecodeRun
) -> Decoder:
    """Decode each block when the hook asks for it, with the UDP programs
    (which ignore ``run``) or through ``run``: the decoder of runs without
    an engine."""
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

    The handle yields block *i* when the hook asks for it. A DRAM-
    faulted block still takes its engine result off the handle but
    decodes what arrived instead. On the fused route (:func:`run_spans`)
    the handle counts the spans the op took and the runs of cached blocks
    :meth:`multiply_hits` multiplied. :meth:`close` (called however the
    run ends) closes the handle and flushes the ``spmv.pipeline.*``
    telemetry: ``multiply_idle_seconds`` is the time the run waited on
    decode (the op's decode and cache probes included), and
    ``decode_idle_seconds`` the time it spent multiplying.
    """

    def __init__(self, plan: MatrixCompression, engine: RecodeEngine, matrix_id: str):
        self._plan = plan
        self._handle = engine.decode_blocks_async(plan, matrix_id=matrix_id)
        self.run = self._handle.run
        self._cache = engine.cache
        self._key = matrix_id, plan_fingerprint(plan) if engine.cache is not None else ""
        self._wait_s = self._multiply_s = 0.0
        # When the last block went to the multiply.
        self._handed_at: float | None = None

    def _charge_multiply(self, now: float) -> None:
        if self._handed_at is not None:
            self._multiply_s += now - self._handed_at
            self._handed_at = None

    def _book(self, t0: float, t1: float, multiply_s: float) -> float:
        """Book ``t0``..``t1``, ``multiply_s`` multiplying: the rest waited (returned)."""
        self._charge_multiply(t0)
        self._wait_s += t1 - t0 - multiply_s
        self._multiply_s += multiply_s
        return t1 - t0 - multiply_s

    def took(self, start: int, stop: int, nbytes: int, t0: float, t1: float,
             multiply_s: float, pairs=()) -> None:
        """:meth:`AsyncDecode.took` of blocks decoded and multiplied from
        ``t0`` to ``t1``, ``multiply_s`` of it multiplying."""
        self._handle.took(start, stop, nbytes, self._book(t0, t1, multiply_s), pairs)

    def span_stop(self, i: int, stop: int) -> tuple[int, bool]:
        """Where (by ``stop``) the run of cached blocks from block ``i`` ends,
        and True; or, ``i`` not cached, :meth:`AsyncDecode.span_stop`, False."""
        matrix_id, fp = self._key
        end = i
        while end < stop and (matrix_id, end, fp) in (self._cache or ()):
            end += 1
        return (end, True) if end > i else (self._handle.span_stop(i, stop), False)

    def multiply_hits(self, i: int, stop: int, x: np.ndarray, out: np.ndarray,
                      hook: "RecodeHook") -> int:
        """Poll, check, get and multiply into ``out`` each cached block of
        ``[i, stop)`` in order, as the per-block route does, up to the first
        whose poll fires (raising) or records fail their check or that was
        evicted meanwhile (:attr:`AsyncDecode.probed`): returned, else ``stop``."""
        get, (matrix_id, fp) = self._cache.get, self._key
        nbytes, probe_s, b, fired = 0, 0.0, i, False
        t0 = time.perf_counter()
        with obs.trace(hook.span, start=i, stop=stop):
            while b < stop and not (fired := hook.poll(b + 1) == b) and (
                    self.run.check(b, release=False)):
                t = time.perf_counter()
                block = get((matrix_id, b, fp))
                probe_s += time.perf_counter() - t
                if block is None:
                    self._handle.probed = b
                    break
                multiply_block(block, x, out)
                nbytes += 12 * block.nnz
                b += 1
        t1 = time.perf_counter()
        hook.took(i, b, nbytes)
        self._handle.took_hits(b - i, nbytes, self._book(t0, t1, t1 - t0 - probe_s))
        if b > i:
            self.run.release_behind(b - 1)
        if fired:
            raise RunCancelled(blocks_done=b)
        return b

    def __call__(self, i: int, idx_rec, val_rec, faulty: bool) -> CSRBlock:
        t0 = time.perf_counter()
        self._charge_multiply(t0)
        _, res = next(self._handle)
        self._handed_at = time.perf_counter()
        self._wait_s += self._handed_at - t0
        if faulty:
            return self._plan.decompress_block(
                i, index_record=idx_rec, value_record=val_rec, run=self.run
            )
        if isinstance(res, BlockFailure):
            raise res.error
        return res

    def close(self) -> None:
        self._charge_multiply(time.perf_counter())
        self._handle.close()
        _PIPELINE_COUNTERS["runs"].inc()
        _PIPELINE_COUNTERS["multiply_idle_seconds"].inc(self._wait_s)
        _PIPELINE_COUNTERS["decode_idle_seconds"].inc(self._multiply_s)


def run_blocks(
    plan: MatrixCompression, x: np.ndarray, out: np.ndarray, hook: "RecodeHook",
    run: DecodeRun, decoder: PipelinedDecoder | None = None,
) -> float:
    """The per-block route: ``hook`` in front of each block's multiply into
    ``out``. Takes :func:`run_spans`' arguments; times nothing (0.0)."""
    for _ in range(plan.nblocks):
        multiply_block(hook(None), x, out)
    return 0.0


def run_spans(
    plan: MatrixCompression, x: np.ndarray, out: np.ndarray, hook: "RecodeHook",
    run: DecodeRun, decoder: PipelinedDecoder | None = None,
) -> float:
    """The fused route: one ``dsh_spmv_span`` call decodes and multiplies
    each span of blocks into ``out``, its records checked before and its
    telemetry published after; an engine ``decoder`` counts and caches the
    span's blocks and multiplies each run of cached ones. Returns the op's
    multiply seconds. A span ends before a block the fault plan armed for
    ``run`` touches, whose stored records fail their check, or (with
    ``decoder``) that is cached or quarantined. Such a block, and one the
    op stops at, takes ``hook``'s per-block route. The op's blocks count as
    ``dsh_decode_span`` dispatches, one per block. ``cancel`` is polled as
    each block is counted: a span's first before the op, the rest after;
    blocks from one whose poll fires on are neither counted nor cached.
    """
    fused = kernels.bind("dsh_spmv_span", label="dsh_decode_span")
    i = checked = 0
    multiply_s = 0.0
    try:
        while i < plan.nblocks:
            stop, hits = run.stop(i, i), False
            if decoder is not None:
                stop, hits = decoder.span_stop(i, stop)
            if hits:  # each block's records are checked as it is reached
                if (i := decoder.multiply_hits(i, stop, x, out, hook)) == stop:
                    continue
                stop = i  # its records failed their check, or it was evicted
            checked = max(checked, i)
            while checked < stop and run.check(checked, release=False):
                checked += 1
            stop = min(stop, checked)
            if stop > i:
                if hook.poll(i + 1) == i:
                    raise RunCancelled(blocks_done=i)
                span, rows = run.span(i, stop), len(run.tally.rows)
                t0 = time.perf_counter()
                with obs.trace(hook.span, start=i, stop=stop):
                    done, seconds, pairs = fused(plan, span, x, out, run.tally)
                t1 = time.perf_counter()
                multiply_s += seconds
                polled = hook.poll(i + done) - i
                if polled < done:  # cancelled: the rest goes uncounted
                    run.tally.rows[rows:] = [np.concatenate(run.tally.rows[rows:])[: 2 * polled]]
                fused.count(polled - 1)
                irows, vrows = span.rows
                nbytes = int(irows[:polled, 4].sum() + vrows[:polled, 4].sum())
                hook.took(i, i + polled, nbytes)
                if decoder is not None:
                    decoder.took(i, i + polled, nbytes, t0, t1, seconds, pairs)
                run.flush()
                if polled < done:
                    raise RunCancelled(blocks_done=i + polled)
                if done:
                    i += done
                    run.release_behind(i - 1)
                if i == stop:
                    continue
            multiply_block(hook(None, i < checked or run.check(i)), x, out)
            i += 1
    finally:
        fused.flush()
    return multiply_s


def run_pipelined(
    plan: MatrixCompression, engine: RecodeEngine, matrix_id: str
) -> PipelinedDecoder:
    """Start an engine-backed run's decoder: one engine handle over every
    block of ``plan``, whose ``run`` also decodes DRAM-faulted blocks."""
    return PipelinedDecoder(plan, engine, matrix_id)


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
    """The ``recode`` hook in front of block *i*'s multiply.

    A route calls it for each block it does not take itself, in block
    order. It polls ``cancel``, streams both records out of ``memory``
    (one block at a time, so an mmap-backed plan stays at bounded
    residency), decodes through ``decode``, and on a codec error raises
    the :class:`BlockDecodeError` naming the block (``strict``) or
    substitutes ``raw_block(i)`` — the pristine raw block, streamed
    uncompressed — and counts it (``degrade``).

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
        run: DecodeRun,
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
        self.run = run
        self.raw_block = raw_block
        self.policy = policy
        self.cancel = cancel
        self.span = f"{prefix}.block"
        self.blocks = 0
        self._polled = 0  # blocks whose cancel poll passed
        self.degraded = 0
        self.dma_seconds = 0.0
        # Blocks streamed / charged to the ledger, and the decoded blocks'
        # udp -> cpu bytes not yet logged.
        self._streamed = self._charged = 0
        self._decoded = self._cpu_bytes = 0

    def __call__(self, _stored: CSRBlock | None, clean: bool | None = None) -> CSRBlock:
        """The next block. A fused run passes ``clean`` itself (whether the
        block's stored records passed :meth:`DecodeRun.check`); else the
        hook checks them."""
        i = self.blocks
        if self.poll(i + 1) == i:
            raise RunCancelled(blocks_done=i)
        if clean is None:
            clean = self.run.check(i)
        self.blocks = i + 1
        memory = self.memory
        if clean:
            # Clean and untouched: the decoder reads the stored records
            # in place, as the stream leaves them.
            idx_rec = val_rec = None
            faulty = False
        else:
            plan = self.plan
            stored_idx, stored_val = plan.index_records[i], plan.value_records[i]
            idx_rec = memory.stream_record(stored_idx, i, "index")
            val_rec = memory.stream_record(stored_val, i, "value")
            faulty = idx_rec is not stored_idx or val_rec is not stored_val
        self._streamed = i + 1
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

    def poll(self, stop: int) -> int:
        """Poll ``cancel`` once for each block not yet polled before
        ``stop``, in order: the block whose poll fired, else ``stop``."""
        while self.cancel is not None and self._polled < stop:
            if self.cancel():
                return self._polled
            self._polled += 1
        return stop

    def took(self, start: int, stop: int, nbytes: int) -> None:
        """Count blocks ``[start, stop)`` as streamed and decoded elsewhere,
        ``nbytes`` of them going ``udp -> cpu``; the next block is ``stop``."""
        self.blocks = self._streamed = stop
        self._decoded += stop - start
        self._cpu_bytes += nbytes

    def charge(self) -> None:
        """Charge what was streamed and decoded since the last charge."""
        self.dma_seconds = self.ledger.charge(
            self.log, 2 * self._charged, 2 * self._streamed, self.dma_seconds
        )
        self._charged = self._streamed
        if self._decoded:
            self.log.record("udp", "cpu", self._cpu_bytes)
            self._decoded = self._cpu_bytes = 0
