"""Pipelined recoded-SpMV/SpMM executor: overlap block decode with multiply.

The paper's execution model (Figs. 6-7, Section V) is a decode/compute
pipeline — the UDP recodes block *i+1* while the CPU multiplies block *i*,
so decompression hides behind the multiply and SpMV runs at the
compressed-stream rate. This module is the software analogue: block
decodes are submitted asynchronously to the
:class:`~repro.codecs.engine.RecodeEngine` pool with a bounded prefetch
depth, decoded blocks are multiplied on the main thread *as they
complete* (any order), and results accumulate out of order under a merge
rule that keeps the result bit-identical to the serial executor:

* a row owned by exactly one block receives exactly one ``+=`` — order
  across blocks cannot change its bits;
* a row *split* across blocks (``leading_partial`` continuations) defers
  its per-block partial sums and folds them in block order at the end,
  reproducing the serial left-to-right addition sequence exactly.

DMA traffic is charged per block in block order (same
:class:`~repro.memsys.traffic.TrafficLog` totals, same ``dma_seconds``
float-addition sequence), failures flow through the same strict/degrade
policy, and the decoded-block cache and fault hooks behave identically —
the pipeline changes *when* work happens, never *what* happens.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from collections.abc import Callable, Sequence

import numpy as np

from repro import faults, obs
from repro import kernels
from repro.codecs.engine import BlockFailure, DEFAULT_PREFETCH_CHUNKS, RecodeEngine
from repro.codecs.errors import BlockDecodeError, CodecError, block_error
from repro.codecs.pipeline import MatrixCompression
from repro.memsys.dma import DMAEngine
from repro.memsys.dram import MemorySystem
from repro.memsys.traffic import TrafficLog
from repro.sparse.blocked import CSRBlock
from repro.sparse.csr import VALUE_DTYPE

#: Default prefetch depth (chunk tasks in flight) for ``mode="pipelined"``.
DEFAULT_DEPTH = DEFAULT_PREFETCH_CHUNKS


class RunCancelled(RuntimeError):
    """A run's ``cancel`` callback fired at a block boundary.

    Cooperative cancellation for deadline-bound callers (the serve layer):
    the executor polls the callback between blocks and abandons the run
    as soon as it returns True, so a request past its deadline stops
    borrowing decode workers, DMA model time, and cache capacity. The
    partial result is discarded — nothing observable is half-updated.
    """

    def __init__(self, message: str = "run cancelled", blocks_done: int = 0):
        super().__init__(message)
        self.blocks_done = blocks_done


class RunCounters:
    """Per-run mutable counters for one recoded SpMV/SpMM execution.

    Replaces the closure-captured ``counter`` dict the serial hook used to
    share: increments take a lock so the pipelined executor's completion
    handling (and any future threaded consumer) cannot lose updates, and
    the serial block cursor lives here too instead of a bare dict slot.
    """

    __slots__ = ("_lock", "_cursor", "_degraded")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cursor = 0
        self._degraded = 0

    def next_block(self) -> int:
        """Claim the next serial block index (the recode-hook cursor)."""
        with self._lock:
            i = self._cursor
            self._cursor += 1
            return i

    def add_degraded(self, n: int = 1) -> None:
        with self._lock:
            self._degraded += n

    @property
    def degraded(self) -> int:
        return self._degraded

    @property
    def blocks_started(self) -> int:
        return self._cursor


class BlockAccumulator:
    """Order-independent accumulation of per-block partial results.

    ``out`` may be 1-D (SpMV) or 2-D (SpMM, rows x nrhs); ``add`` may be
    called in any block order. Rows shared between adjacent blocks (split
    rows flagged ``leading_partial``) are deferred and folded in block
    order by :meth:`finalize`, which is what makes the out-of-order sum
    bit-identical to the serial in-order one.
    """

    def __init__(self, blocks: Sequence[CSRBlock], out: np.ndarray):
        self.out = out
        n = len(blocks)
        self._shared_prev = [b.leading_partial for b in blocks]
        self._shared_next = [
            i + 1 < n and blocks[i + 1].leading_partial for i in range(n)
        ]
        self._row_start = [b.row_start for b in blocks]
        self._row_end = [b.row_end for b in blocks]
        self._pending: dict[int, list[tuple[int, np.ndarray]]] = {}
        self._lock = threading.Lock()

    def add(self, block_id: int, rows: np.ndarray, seg: np.ndarray) -> None:
        """Fold one block's segment sums in.

        ``rows`` are the block's non-empty global row indices, ``seg`` the
        matching per-row sums (1-D scalars or 2-D rows).
        """
        if rows.size == 0:
            return
        first_shared = (
            self._shared_prev[block_id] and int(rows[0]) == self._row_start[block_id]
        )
        last_shared = (
            self._shared_next[block_id]
            and int(rows[-1]) == self._row_end[block_id] - 1
        )
        lo = 1 if first_shared else 0
        hi = rows.size - 1 if last_shared else rows.size
        with self._lock:
            if first_shared:
                self._pending.setdefault(int(rows[0]), []).append(
                    (block_id, seg[0])
                )
            if last_shared and not (first_shared and rows.size == 1):
                self._pending.setdefault(int(rows[-1]), []).append(
                    (block_id, seg[-1])
                )
            if lo < hi:
                self.out[rows[lo:hi]] += seg[lo:hi]

    def finalize(self) -> np.ndarray:
        """Fold deferred split-row contributions, in block order per row."""
        with self._lock:
            for row in sorted(self._pending):
                for _, contrib in sorted(
                    self._pending[row], key=lambda entry: entry[0]
                ):
                    self.out[row] += contrib
            self._pending.clear()
        return self.out


def block_row_sums(
    block: CSRBlock, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """One block's multiply arithmetic: ``(rows, seg)`` or None when empty.

    Identical to :func:`repro.sparse.spmv.spmv_blocked` /
    :func:`repro.sparse.spmm.spmm_blocked` — same products, same
    ``np.add.reduceat`` segment starts — so each row's partial sum is
    bit-identical to the serial kernels'. Factored out of
    :func:`multiply_block` so shard workers can compute per-block sums and
    ship them back for accumulator folding in the parent process.
    """
    if block.nnz == 0:
        return None
    rows, seg_starts = block.row_segments()
    if rows.size == 0:
        return None
    if x.ndim == 1:
        products = block.val * x[block.col_idx]
        seg = np.add.reduceat(products, seg_starts)
    else:
        products = block.val[:, None] * x[block.col_idx]
        seg = np.add.reduceat(products, seg_starts, axis=0)
    return rows, seg


def multiply_block(
    block: CSRBlock, x: np.ndarray, acc: BlockAccumulator, block_id: int
) -> None:
    """One block's multiply stage: gather, scale, segment-sum, accumulate."""
    sums = block_row_sums(block, x)
    if sums is None:
        return
    acc.add(block_id, sums[0], sums[1])


class PlanBlockSource:
    """Block source over a fully-materialized in-memory plan.

    The *source* abstraction is what lets one executor serve both resident
    plans and mmap-backed containers: the only thing the executor needs
    beyond the (possibly lazy) record sequences is a pristine raw block for
    ``degrade``-policy substitution.
    """

    mapped_bytes = 0

    def __init__(self, plan: MatrixCompression):
        self._plan = plan

    def raw_block(self, i: int) -> CSRBlock:
        """The retained raw CSR partition block."""
        return self._plan.blocked.blocks[i]

    @property
    def pages_touched(self) -> int:
        return 0


class MmapBlockSource:
    """Block source over a :class:`~repro.codecs.container.ContainerReader`.

    The plan's blocked structure holds shell blocks (row metadata only), so
    ``degrade`` substitution cannot read a retained partition; instead the
    pristine mapped records are decoded on demand — bit-identical to the
    block the eager loader would have retained, at O(block) residency.
    """

    def __init__(self, reader, plan: MatrixCompression):
        self._reader = reader
        self._plan = plan

    def raw_block(self, i: int) -> CSRBlock:
        return self._plan.decompress_block(i)

    @property
    def mapped_bytes(self) -> int:
        return self._reader.nbytes

    @property
    def pages_touched(self) -> int:
        return self._reader.pages_touched


def _claim_out(shape: tuple, out: "np.ndarray | None") -> np.ndarray:
    """Resolve an executor's accumulator: a fresh zeroed array, or a
    caller-supplied (session-reused) buffer zero-filled in place — the
    accumulation sequence, and therefore the result bits, are identical
    either way."""
    if out is None:
        return np.zeros(shape, dtype=VALUE_DTYPE)
    if out.shape != shape or out.dtype != VALUE_DTYPE:
        raise ValueError(
            f"out must be float64 with shape {shape}, got {out.dtype} {out.shape}"
        )
    if not out.flags.writeable:
        raise ValueError("out must be writeable")
    out[:] = 0.0
    return out


def run_pipelined(
    plan: MatrixCompression,
    x: np.ndarray,
    *,
    memory: MemorySystem,
    dma: DMAEngine,
    log: TrafficLog,
    engine: RecodeEngine,
    matrix_id: str,
    policy: str,
    depth: int,
    counters: RunCounters,
    source: "PlanBlockSource | MmapBlockSource | None" = None,
    cancel: "Callable[[], bool] | None" = None,
    out: "np.ndarray | None" = None,
) -> tuple[np.ndarray, float]:
    """Execute one pipelined recoded SpMV (1-D ``x``) or SpMM (2-D ``x``).

    ``source`` supplies pristine raw blocks for ``degrade`` substitution —
    defaults to the in-memory :class:`PlanBlockSource`; pass an
    :class:`MmapBlockSource` when ``plan`` is a streaming container view.
    ``cancel`` is polled once per consumed block; when it returns True the
    handle is closed (in-flight pool chunks finish and are dropped) and
    :class:`RunCancelled` is raised. ``out`` is an optional preallocated
    accumulator (see :func:`_claim_out`).

    Returns ``(result, dma_seconds)``; degraded-block accounting lands on
    ``counters``. Raises the same :class:`BlockDecodeError` the serial
    executor would (lowest failing block id) under ``policy="strict"``.
    """
    if source is None:
        source = PlanBlockSource(plan)
    reg = obs.registry()
    blocked = plan.blocked
    nblocks = plan.nblocks
    nrows = blocked.shape[0]
    shape = (nrows,) if x.ndim == 1 else (nrows, x.shape[1])
    out = _claim_out(shape, out)
    acc = BlockAccumulator(blocked.blocks, out)

    # Stage 1 — stream every block's compressed records out of DRAM, in
    # block order (the paper's DMA prefetch). Per-block wire seconds are
    # kept aside and folded in block order at the end so dma_seconds
    # reproduces the serial executor's float-addition sequence exactly.
    dma_idx = [0.0] * nblocks
    dma_val = [0.0] * nblocks
    dma_deg: dict[int, float] = {}
    direct: dict[int, tuple] = {}
    engine_ids: list[int] = []
    with obs.trace("spmv.pipeline.stream", nblocks=nblocks):
        for i in range(nblocks):
            idx_rec = memory.stream_record(plan.index_records[i], i, "index")
            val_rec = memory.stream_record(plan.value_records[i], i, "value")
            dma_idx[i] = dma.transfer(idx_rec.stored_bytes, "dram", "udp").seconds
            dma_val[i] = dma.transfer(val_rec.stored_bytes, "dram", "udp").seconds
            if (
                idx_rec is not plan.index_records[i]
                or val_rec is not plan.value_records[i]
            ):
                # A DRAM-side fault corrupted the streamed copy: this
                # block must decode exactly what arrived, never the
                # engine's cached/pristine view.
                direct[i] = (idx_rec, val_rec)
            else:
                engine_ids.append(i)

    failures: dict[int, BlockDecodeError] = {}

    def degrade_block(i: int) -> None:
        """Substitute block ``i`` from the source's pristine raw view."""
        raw = source.raw_block(i)
        dma_deg[i] = dma.transfer(12 * raw.nnz, "dram", "cpu").seconds
        counters.add_degraded()
        reg.counter("spmv.degraded_blocks").inc()
        multiply_block(raw, x, acc, i)

    def consume(i: int, block: CSRBlock) -> None:
        with obs.trace("spmv.pipeline.multiply", block=i):
            multiply_block(block, x, acc, i)
        log.record("udp", "cpu", 12 * block.nnz)

    # Stage 2 — blocks whose streamed copies were corrupted bypass the
    # engine (rare: DRAM-site chaos runs only).
    for i in sorted(direct):
        if cancel is not None and cancel():
            raise RunCancelled(blocks_done=i)
        idx_rec, val_rec = direct[i]
        try:
            block = plan.decompress_block(
                i, index_record=idx_rec, value_record=val_rec
            )
        except CodecError as exc:
            if policy == "strict":
                failures[i] = block_error(i, exc)
            else:
                degrade_block(i)
        else:
            consume(i, block)

    # Stage 3 — overlapped decode/multiply: consume engine completions as
    # they land, multiplying on this thread while the pool decodes ahead.
    handle = engine.decode_blocks_async(
        plan, engine_ids, matrix_id=matrix_id, max_inflight=depth
    )
    queue_hist = reg.histogram("spmv.pipeline.queue_depth")
    inflight_gauge = reg.gauge("spmv.pipeline.inflight")
    wait_s = 0.0
    idle_decode_s = 0.0
    multiply_s = 0.0
    it = iter(handle)
    consumed = 0
    while True:
        if cancel is not None and cancel():
            inflight_gauge.set(0)
            handle.close()
            raise RunCancelled(blocks_done=consumed)
        queue_hist.observe(handle.ready)
        inflight_gauge.set(handle.inflight)
        t0 = time.perf_counter()
        try:
            i, res = next(it)
        except StopIteration:
            wait_s += time.perf_counter() - t0
            break
        wait_s += time.perf_counter() - t0
        # With nothing left in flight the decoders sit idle while we
        # multiply — the signal that a deeper prefetch would help.
        starved = handle.inflight == 0
        t1 = time.perf_counter()
        if isinstance(res, BlockFailure):
            if policy == "strict":
                failures[i] = res.error
            else:
                degrade_block(i)
        else:
            consume(i, res)
        dt = time.perf_counter() - t1
        multiply_s += dt
        consumed += 1
        if starved:
            idle_decode_s += dt
    inflight_gauge.set(0)
    reg.counter("spmv.pipeline.runs").inc()
    reg.counter("spmv.pipeline.multiply_idle_seconds").inc(wait_s)
    reg.counter("spmv.pipeline.decode_idle_seconds").inc(idle_decode_s)
    reg.counter("spmv.pipeline.multiply_seconds").inc(multiply_s)

    if failures:
        # Serial raises at its first failing block; the pipeline has seen
        # them all, so the lowest block id reproduces that error exactly.
        raise failures[min(failures)]

    with obs.trace("spmv.pipeline.merge"):
        acc.finalize()

    dma_seconds = 0.0
    for i in range(nblocks):
        dma_seconds += dma_idx[i]
        dma_seconds += dma_val[i]
        if i in dma_deg:
            dma_seconds += dma_deg[i]
    return out, dma_seconds


# ---------------------------------------------------------------------------
# Row-range sharding: contiguous block shards on worker processes
# ---------------------------------------------------------------------------


def shard_ranges(nblocks: int, shards: int) -> tuple[range, ...]:
    """Split ``nblocks`` into ``shards`` contiguous, near-equal block ranges.

    Empty ranges are dropped (more shards than blocks degrades to one block
    per shard), so every returned range is non-empty and the ranges cover
    ``range(nblocks)`` exactly, in order.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if nblocks == 0:
        return ()
    shards = min(shards, nblocks)
    base, extra = divmod(nblocks, shards)
    ranges = []
    lo = 0
    for s in range(shards):
        hi = lo + base + (1 if s < extra else 0)
        ranges.append(range(lo, hi))
        lo = hi
    return tuple(ranges)


def _shard_worker(
    path: str,
    verify: str,
    block_ids: Sequence[int],
    x: np.ndarray,
    policy: str,
    memory: MemorySystem,
    fault_plan,
    kernel_backend: str,
    residency_budget: int | None,
) -> dict:
    """Run one contiguous block shard inside a worker process.

    Opens its own :class:`~repro.codecs.container.ContainerReader` over the
    container (each worker maps the file independently — pages fault in on
    demand) and executes the serial engine-less decode/multiply loop over
    its blocks. Nothing is accumulated here: per-block ``(rows, seg)``
    segment sums, per-block DMA seconds, traffic-edge byte totals, and
    failures ship back to the parent, which folds them through one
    :class:`BlockAccumulator` so the result is bit-identical to serial no
    matter how the blocks were sharded.
    """
    from repro.codecs.container import ContainerReader

    t0 = time.perf_counter()
    ctx = fault_plan.activate() if fault_plan is not None else None
    if ctx is not None:
        ctx.__enter__()
    try:
        with kernels.use_backend(kernel_backend):
            with ContainerReader(
                path, verify=verify, residency_budget=residency_budget
            ) as reader:
                plan = reader.plan()
                log = TrafficLog()
                dma = DMAEngine(memory, log=log)
                segments: list[tuple[int, np.ndarray, np.ndarray]] = []
                dma_idx: dict[int, float] = {}
                dma_val: dict[int, float] = {}
                dma_deg: dict[int, float] = {}
                failures: dict[int, tuple[str, int | None]] = {}
                degraded = 0
                for i in block_ids:
                    idx_rec = memory.stream_record(plan.index_records[i], i, "index")
                    val_rec = memory.stream_record(plan.value_records[i], i, "value")
                    dma_idx[i] = dma.transfer(idx_rec.stored_bytes, "dram", "udp").seconds
                    dma_val[i] = dma.transfer(val_rec.stored_bytes, "dram", "udp").seconds
                    try:
                        block = plan.decompress_block(
                            i, index_record=idx_rec, value_record=val_rec
                        )
                    except CodecError as exc:
                        if policy == "strict":
                            err = block_error(i, exc)
                            failures[i] = (str(err), err.block_id)
                            continue
                        # degrade: decode the pristine mapped records —
                        # bit-identical to the raw block an eager loader
                        # would have retained.
                        raw = plan.decompress_block(i)
                        dma_deg[i] = dma.transfer(12 * raw.nnz, "dram", "cpu").seconds
                        degraded += 1
                        sums = block_row_sums(raw, x)
                        if sums is not None:
                            segments.append((i, sums[0], sums[1]))
                        continue
                    sums = block_row_sums(block, x)
                    if sums is not None:
                        segments.append((i, sums[0], sums[1]))
                    log.record("udp", "cpu", 12 * block.nnz)
                return {
                    "segments": segments,
                    "dma_idx": dma_idx,
                    "dma_val": dma_val,
                    "dma_deg": dma_deg,
                    "edges": log.edges(),
                    "failures": failures,
                    "degraded": degraded,
                    "pages_touched": reader.pages_touched,
                    "mapped_bytes": reader.nbytes,
                    "wall_seconds": time.perf_counter() - t0,
                }
    finally:
        if ctx is not None:
            ctx.__exit__(None, None, None)


def run_sharded(
    reader,
    x: np.ndarray,
    *,
    shards: int,
    memory: MemorySystem,
    log: TrafficLog,
    policy: str,
    counters: RunCounters,
    bounds: Sequence[range] | None = None,
    out: "np.ndarray | None" = None,
) -> tuple[np.ndarray, float, dict]:
    """Scatter-gather recoded SpMV/SpMM over contiguous block shards.

    Each shard runs on its own worker process against its own mapping of
    the container (``reader`` must be path-backed). Workers return raw
    per-block segment sums; the parent folds them all through one
    :class:`BlockAccumulator`, whose leading-partial deferral makes the
    result bit-identical to serial for *any* contiguous partition — split
    rows at shard boundaries included. Traffic-edge byte totals are exact
    integer sums and per-block DMA seconds are folded in global block
    order, so ``TrafficLog`` and ``dma_seconds`` also match serial exactly.

    Returns ``(result, dma_seconds, oocore_info)`` where ``oocore_info``
    carries the ``spmv.oocore.*`` measurements (bytes mapped, pages
    touched, per-shard wall seconds and skew).
    """
    if reader.path is None:
        raise ValueError(
            "sharded execution needs a path-backed ContainerReader "
            "(workers re-map the container file)"
        )
    nblocks = reader.nblocks
    if bounds is None:
        bounds = shard_ranges(nblocks, shards)
    else:
        covered = [i for r in bounds for i in r]
        if covered != list(range(nblocks)):
            raise ValueError("shard bounds must cover all blocks contiguously")
        bounds = tuple(r for r in bounds if len(r))
    shell_blocks = reader.shell_blocks()
    nrows = reader.shape[0]
    shape = (nrows,) if x.ndim == 1 else (nrows, x.shape[1])
    out = _claim_out(shape, out)
    acc = BlockAccumulator(shell_blocks, out)
    fault_plan = faults.active()
    backend = kernels.backend()

    results: list[dict] = []
    if not bounds:
        return out, 0.0, {
            "shards": 0, "mapped_bytes": 0, "pages_touched": 0,
            "shard_seconds": [], "shard_skew": 1.0,
        }
    with obs.trace("spmv.oocore.scatter", shards=len(bounds), nblocks=nblocks):
        with concurrent.futures.ProcessPoolExecutor(max_workers=len(bounds)) as pool:
            futs = [
                pool.submit(
                    _shard_worker,
                    reader.path,
                    reader.verify,
                    list(r),
                    x,
                    policy,
                    memory,
                    fault_plan,
                    backend,
                    reader.residency_budget,
                )
                for r in bounds
            ]
            for fut in futs:
                results.append(fut.result())

    failures: dict[int, tuple[str, int | None]] = {}
    for res in results:
        failures.update(res["failures"])
    if failures:
        # Serial raises at its first failing block; the lowest block id
        # across all shards reproduces that error exactly.
        first = min(failures)
        msg, block_id = failures[first]
        raise BlockDecodeError(msg, block_id=block_id)

    with obs.trace("spmv.oocore.gather", shards=len(results)):
        degraded_total = 0
        dma_idx: dict[int, float] = {}
        dma_val: dict[int, float] = {}
        dma_deg: dict[int, float] = {}
        edge_totals: dict[tuple[str, str], int] = {}
        for res in results:
            for i, rows, seg in res["segments"]:
                acc.add(i, rows, seg)
            dma_idx.update(res["dma_idx"])
            dma_val.update(res["dma_val"])
            dma_deg.update(res["dma_deg"])
            for edge, nbytes in res["edges"].items():
                edge_totals[edge] = edge_totals.get(edge, 0) + nbytes
            degraded_total += res["degraded"]
        for (src, dst), nbytes in sorted(edge_totals.items()):
            log.record(src, dst, nbytes)
        if degraded_total:
            counters.add_degraded(degraded_total)
            obs.registry().counter("spmv.degraded_blocks").inc(degraded_total)
        acc.finalize()

    dma_seconds = 0.0
    for i in range(nblocks):
        dma_seconds += dma_idx.get(i, 0.0)
        dma_seconds += dma_val.get(i, 0.0)
        if i in dma_deg:
            dma_seconds += dma_deg[i]

    shard_seconds = [res["wall_seconds"] for res in results]
    mean_s = sum(shard_seconds) / len(shard_seconds)
    info = {
        "shards": len(results),
        "mapped_bytes": sum(res["mapped_bytes"] for res in results),
        "pages_touched": sum(res["pages_touched"] for res in results),
        "shard_seconds": shard_seconds,
        "shard_skew": (max(shard_seconds) / mean_s) if mean_s > 0 else 1.0,
    }
    return out, dma_seconds, info
