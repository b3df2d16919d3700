"""Parallel block recode engine with a decoded-block cache.

The paper's throughput story (Section V, Fig. 12) is 64 UDP lanes each
decompressing an 8 KB block concurrently, with the steady-state SpMV loop
re-streaming the *same* compressed blocks every iteration. This module is
the software analogue of that structure:

* :class:`RecodeEngine` fans per-block encode/decode work across a
  ``concurrent.futures`` pool, with blocks chunked so pickling is
  amortized. ``workers=0`` is the serial fallback and runs the exact same
  chunk function in-process. The default is a process pool; with the
  ``native`` kernels it pays for encode but not for cold decode. On a
  2-vCPU host (python 3.11.7, numpy 2.4.6, ``native`` kernels), best of
  5, ``workers=2``: decode of a 96k-nnz unstructured plan runs at
  29 MB/s serial, 27 MB/s on processes and 19 MB/s on threads (220k-nnz
  banded: 35, 37, 26 MB/s); encoding the banded matrix takes 0.89 s
  serial, 0.71 s on processes and 1.22 s on threads.
* :class:`DecodedBlockCache` is a bounded LRU over decoded
  :class:`~repro.sparse.blocked.CSRBlock` payloads keyed by
  ``(matrix_id, block_id, plan_hash)``, so iterative workloads (PageRank,
  heat solvers) skip re-decompression exactly like the paper's steady-state
  UDP loop skips nothing *but* the DRAM stream.

Both paths are byte-identical to the serial
:func:`repro.codecs.pipeline.compress_matrix` /
:meth:`~repro.codecs.pipeline.MatrixCompression.decompress_block` code:
workers run the same pure functions on the same inputs in the same order.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
import weakref
from collections import OrderedDict, deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field

import numpy as np

from repro import faults, kernels, obs
from repro.codecs.errors import BlockDecodeError, CodecError
from repro.codecs.huffman import HuffmanTable
from repro.codecs.pipeline import (
    BlockRecord,
    MatrixCompression,
    _finish_record,
    _record_plan_metrics,
    block_streams,
    decode_record,
    sampled_tables,
    snappy_encode_streams,
)
from repro.sparse.blocked import CSRBlock, UDP_BLOCK_BYTES, partition_csr
from repro.sparse.csr import CSRMatrix
from repro.util.rng import derive_seed, seeded_rng

#: Blocks per pool task; one task then carries ~256 KB of 8 KB-block work,
#: which keeps pickling overhead well under the codec cost.
DEFAULT_CHUNK_BLOCKS = 32

#: Default decoded-block cache budget (raw CSR payload bytes).
DEFAULT_CACHE_BYTES = 256 << 20

#: Default bound on chunk tasks in flight for :meth:`RecodeEngine.decode_blocks_async`.
DEFAULT_PREFETCH_CHUNKS = 4


# ---------------------------------------------------------------------------
# Plan fingerprinting (the ``plan_hash`` component of cache keys)
# ---------------------------------------------------------------------------

_fingerprints: dict[int, str] = {}


def plan_fingerprint(plan: MatrixCompression) -> str:
    """Stable content hash of a compression plan.

    Covers the scheme flags, block budget, and every record's header and
    payload, so two plans share a fingerprint iff their compressed form is
    byte-identical. Memoized per plan object (plans are frozen).
    """
    key = id(plan)
    cached = _fingerprints.get(key)
    if cached is not None:
        return cached
    h = hashlib.blake2b(digest_size=16)
    h.update(
        b"%d:%d:%d:%d:" % (plan.use_delta, plan.use_huffman, plan.block_bytes, plan.nblocks)
    )
    for rec in plan.index_records:
        h.update(b"%d:%d:%d:" % (rec.orig_len, rec.snappy_len, rec.bit_len))
        if rec.tag is not None:
            h.update(b"t%d:" % rec.tag)
        h.update(rec.payload)
    for rec in plan.value_records:
        h.update(b"%d:%d:%d:" % (rec.orig_len, rec.snappy_len, rec.bit_len))
        if rec.tag is not None:
            h.update(b"t%d:" % rec.tag)
        h.update(rec.payload)
    digest = h.hexdigest()
    _fingerprints[key] = digest
    weakref.finalize(plan, _fingerprints.pop, key, None)
    return digest


# ---------------------------------------------------------------------------
# Decoded-block LRU cache
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    """Counters for one :class:`DecodedBlockCache`.

    Plain ints on purpose: cache probes run once per block, so they stay
    lock-free-cheap here and are published to the metrics registry by a
    snapshot-time collector (``codecs.cache.*`` gauges) instead of paying
    a registry op per probe.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    current_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


_cache_ids = itertools.count()


def _register_cache_collector(reg: obs.MetricsRegistry, cache: "DecodedBlockCache") -> None:
    """Publish a cache's counters into ``reg`` at every snapshot.

    Holds only a weakref: when the cache is collected the callback
    deregisters itself (by returning False) and the last published values
    remain in the registry as the cache's final state.
    """
    ref = weakref.ref(cache)
    label = cache.cache_id

    def collect(registry: obs.MetricsRegistry):
        c = ref()
        if c is None:
            return False
        st = c.stats
        registry.gauge("codecs.cache.hits", cache=label).set(st.hits)
        registry.gauge("codecs.cache.misses", cache=label).set(st.misses)
        registry.gauge("codecs.cache.evictions", cache=label).set(st.evictions)
        registry.gauge("codecs.cache.bytes", cache=label).set(st.current_bytes)
        registry.gauge("codecs.cache.entries", cache=label).set(len(c))
        return None

    reg.register_collector(collect)


class DecodedBlockCache:
    """Bounded LRU over decoded blocks, keyed ``(matrix_id, block_id,
    plan_hash)``.

    The budget counts raw CSR payload bytes (12 B/nnz), i.e. what the
    blocks would occupy decompressed in UDP scratchpads. Thread-safe: the
    engine's decode pool may probe it concurrently.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES, max_blocks: int | None = None):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if max_blocks is not None and max_blocks <= 0:
            raise ValueError(f"max_blocks must be positive, got {max_blocks}")
        self.max_bytes = max_bytes
        self.max_blocks = max_blocks
        self.stats = CacheStats()
        self.cache_id = f"c{next(_cache_ids)}"
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[CSRBlock, int]] = OrderedDict()
        _register_cache_collector(obs.registry(), self)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> CSRBlock | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry[0]

    def put(self, key: tuple, block: CSRBlock) -> None:
        nbytes = 12 * block.nnz
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.stats.current_bytes -= old[1]
            self._entries[key] = (block, nbytes)
            self.stats.current_bytes += nbytes
            while self._entries and (
                self.stats.current_bytes > self.max_bytes
                or (self.max_blocks is not None and len(self._entries) > self.max_blocks)
            ):
                _, (_, evicted_bytes) = self._entries.popitem(last=False)
                self.stats.current_bytes -= evicted_bytes
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats.current_bytes = 0


# ---------------------------------------------------------------------------
# Pool worker functions (module-level so they pickle)
# ---------------------------------------------------------------------------


def _snappy_chunk(streams: list[bytes]) -> list[bytes]:
    return snappy_encode_streams(streams)


def _finish_chunk(
    args: tuple[list[int], list[bytes], HuffmanTable | None, bool]
) -> list[BlockRecord]:
    raw_lens, snapped, table, use_huffman = args
    return [
        _finish_record(raw_len, snap, table, use_huffman)
        for raw_len, snap in zip(raw_lens, snapped)
    ]


def _decode_pair_chunk(
    args: tuple[list[int], list[BlockRecord], list[BlockRecord], HuffmanTable | None,
                HuffmanTable | None, bool, bool, "faults.FaultPlan | None", bool]
) -> list[tuple[bytes, bytes]]:
    """Decode a chunk of blocks' index+value record pairs in one task.

    The engine's one unit of decode work, run inline, on a pool thread or
    in a pool process. A chunk completes as a unit: a block is only useful
    once both its streams are back. ``fault_plan`` is set only when worker
    faults are armed; they then fire per block per stream before its
    decode, with kills real only when ``allow_kill`` (process pools).
    Byte-identical to :meth:`MatrixCompression.decompress_block`: same
    ``decode_record`` on the same inputs.
    """
    (block_ids, idx_records, val_records, index_table, value_table,
     use_huffman, use_delta, fault_plan, allow_kill) = args
    out = []
    with obs.trace("codecs.engine.decode", blocks=len(block_ids)):
        for bid, irec, vrec in zip(block_ids, idx_records, val_records):
            if fault_plan is not None:
                fault_plan.fire_worker_faults(bid, allow_kill)
            idx = decode_record(irec, index_table, use_huffman=use_huffman,
                                apply_delta=use_delta)
            if fault_plan is not None:
                fault_plan.fire_worker_faults(bid, allow_kill)
            val = decode_record(vrec, value_table, use_huffman=use_huffman,
                                apply_delta=False)
            out.append((idx, val))
    return out


def _assemble_block(plan: MatrixCompression, i: int, idx_bytes: bytes,
                    val_bytes: bytes) -> CSRBlock:
    ref = plan.blocked.blocks[i]
    return CSRBlock(
        row_start=ref.row_start,
        row_end=ref.row_end,
        row_ptr=ref.row_ptr,
        col_idx=np.frombuffer(idx_bytes, dtype="<i4"),
        val=np.frombuffer(val_bytes, dtype="<f8"),
        nnz_start=ref.nnz_start,
        leading_partial=ref.leading_partial,
    )


@dataclass(frozen=True)
class BlockFailure:
    """One block the engine could not decode, after retries.

    ``error`` is always a :class:`~repro.codecs.errors.BlockDecodeError`
    carrying the block id; its ``__cause__`` is the underlying codec
    failure from the final attempt.
    """

    block_id: int
    attempts: int
    error: BlockDecodeError


class _Ran:
    """An inline task's outcome, read like a finished :class:`Future`
    (which would allocate a lock per task)."""

    __slots__ = ("_value", "_error")

    def __init__(self, fn, task):
        self._value = self._error = None
        try:
            self._value = fn(task)
        except Exception as exc:
            self._error = exc

    def done(self) -> bool:
        return True

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


def _pool_warmup(_i: int) -> None:
    return None


def _shutdown_pool(pool) -> None:
    pool.shutdown(wait=False, cancel_futures=True)


def _run_isolated(args: tuple) -> tuple:
    """Pool-worker shim: run one chunk under a fresh per-worker registry
    (and tracer, when the parent is tracing), pinned to the parent's
    kernel backend — a CLI/set_backend selection is process-local state a
    spawned worker would not otherwise see — and ship the captured
    telemetry back with the result for merge-on-join."""
    fn, task, tracing, kernel_backend = args
    reg = obs.MetricsRegistry()
    worker_tracer = obs.Tracer(enabled=tracing)
    with obs.scoped_registry(reg), obs.scoped_tracer(worker_tracer):
        with kernels.use_backend(kernel_backend):
            result = fn(task)
    return result, reg.snapshot(), worker_tracer.events()


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


_engine_ids = itertools.count()

#: Registry counter suffixes backing one :class:`EngineStats` view.
_ENGINE_COUNTERS = (
    "blocks_encoded",
    "blocks_decoded",
    "cache_hits",
    "cache_misses",
    "bytes_decoded",
    "encode_seconds",
    "decode_seconds",
    "pool_startup_seconds",
)


class EngineStats:
    """Cumulative per-engine tallies mirrored into ``codecs.engine.*``.

    The former bespoke dataclass fields survive as read-only properties,
    so existing callers (``stats.blocks_decoded``, ``as_dict()``) keep
    working. The authoritative numbers are plain in-object totals that
    only :meth:`reset` can zero — an engine outliving a
    ``obs.scoped_registry()`` block (the serve and ablation per-request
    pattern) keeps its lifetime tallies, which is what session-scoped
    steady-state hit rates are computed from. Each :meth:`add` also
    increments the counter of whatever registry is active *at add time*,
    so scoped snapshots see exactly the work done inside their scope.

    ``decode_seconds`` covers the map phase plus cache probing only; pool
    spin-up (process fork/exec) is accounted separately in
    ``pool_startup_seconds`` so cold-start MB/s is not understated.
    """

    def __init__(self, workers: int = 0, engine_label: str = "",
                 registry: obs.MetricsRegistry | None = None):
        reg = registry if registry is not None else obs.registry()
        self.workers = workers
        self.engine_label = engine_label
        self._labels = {"engine": engine_label} if engine_label else {}
        self._lock = threading.Lock()
        self._totals = dict.fromkeys(_ENGINE_COUNTERS, 0.0)
        # Pre-create the counters so every name is present (value 0) in
        # the construction-time registry even before any work lands —
        # conformance suites compare metric-name sets across configs.
        for name in _ENGINE_COUNTERS:
            reg.counter(f"codecs.engine.{name}", **self._labels)
        reg.gauge("codecs.engine.workers", **self._labels).set(workers)

    def add(self, name: str, amount: float) -> None:
        if not amount:
            return  # skip the lock on no-op adds (all-hit decode passes)
        with self._lock:
            self._totals[name] += amount
        obs.registry().counter(f"codecs.engine.{name}", **self._labels).inc(amount)

    @property
    def blocks_encoded(self) -> int:
        return int(self._totals["blocks_encoded"])

    @property
    def blocks_decoded(self) -> int:
        return int(self._totals["blocks_decoded"])

    @property
    def cache_hits(self) -> int:
        return int(self._totals["cache_hits"])

    @property
    def cache_misses(self) -> int:
        return int(self._totals["cache_misses"])

    @property
    def bytes_decoded(self) -> int:
        return int(self._totals["bytes_decoded"])

    @property
    def encode_seconds(self) -> float:
        return self._totals["encode_seconds"]

    @property
    def decode_seconds(self) -> float:
        return self._totals["decode_seconds"]

    @property
    def pool_startup_seconds(self) -> float:
        return self._totals["pool_startup_seconds"]

    @property
    def decode_mb_per_s(self) -> float:
        """Raw (decoded) MB/s over the engine's decode calls, cache
        included — the software counterpart of Fig. 12's GB/s axis.
        Excludes one-time pool spin-up (see ``pool_startup_seconds``)."""
        if self.decode_seconds <= 0:
            return 0.0
        return self.bytes_decoded / self.decode_seconds / 1e6

    def reset(self) -> None:
        with self._lock:
            self._totals = dict.fromkeys(_ENGINE_COUNTERS, 0.0)
        reg = obs.registry()
        for name in _ENGINE_COUNTERS:
            reg.counter(f"codecs.engine.{name}", **self._labels).reset()

    def as_dict(self) -> dict[str, float]:
        return {
            "workers": self.workers,
            "blocks_encoded": self.blocks_encoded,
            "blocks_decoded": self.blocks_decoded,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "bytes_decoded": self.bytes_decoded,
            "encode_seconds": self.encode_seconds,
            "decode_seconds": self.decode_seconds,
            "pool_startup_seconds": self.pool_startup_seconds,
            "decode_mb_per_s": self.decode_mb_per_s,
        }


@dataclass
class RecodeEngine:
    """Block-parallel encode/decode with an optional decoded-block cache.

    Attributes:
        workers: pool width. ``0`` = serial fallback (no pool, no pickling;
            byte-identical results).
        executor: ``"process"`` (default; see the module docstring for
            measured pool speedups) or ``"thread"`` (avoids fork cost and
            pickling on tiny plans).
        chunk_blocks: blocks per pool task.
        cache: a :class:`DecodedBlockCache`, or ``None`` to decode cold
            every time.
        max_retries: extra serial decode attempts per failing block before
            it is quarantined (the first attempt is not a retry).
        retry_base_s: base delay of the exponential backoff between
            retries; attempt ``k`` sleeps ``retry_base_s * 2**(k-1)``
            scaled by a deterministic jitter in ``[0.5, 1.5)``. ``0``
            disables sleeping (tests).
    """

    workers: int = 0
    executor: str = "process"
    chunk_blocks: int = DEFAULT_CHUNK_BLOCKS
    cache: DecodedBlockCache | None = None
    max_retries: int = 2
    retry_base_s: float = 0.02
    stats: EngineStats = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.executor not in ("process", "thread"):
            raise ValueError(f"executor must be 'process' or 'thread', got {self.executor!r}")
        if self.chunk_blocks < 1:
            raise ValueError(f"chunk_blocks must be >= 1, got {self.chunk_blocks}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_base_s < 0:
            raise ValueError(f"retry_base_s must be >= 0, got {self.retry_base_s}")
        self.stats = EngineStats(
            workers=self.workers, engine_label=f"e{next(_engine_ids)}"
        )
        self._pool = None
        #: Blocks that exhausted their retries: ``(matrix_id, plan
        #: fingerprint, block_id)``. Memoized so steady-state loops skip
        #: known-bad blocks instead of re-failing them every iteration.
        self.quarantined: set[tuple[str, str, int]] = set()

    # -- pool plumbing -------------------------------------------------------

    def _ensure_pool(self):
        """Create (once) and reuse the executor; spin-up cost is timed into
        ``pool_startup_seconds``, not the encode/decode timers."""
        if self._pool is None:
            start = time.perf_counter()
            pool_cls = ProcessPoolExecutor if self.executor == "process" else ThreadPoolExecutor
            pool = pool_cls(max_workers=self.workers)
            if self.executor == "process":
                # Force worker spawn now so the map timers below measure
                # codec work, not fork/exec.
                list(pool.map(_pool_warmup, range(self.workers)))
            self._pool = pool
            weakref.finalize(self, _shutdown_pool, pool)
            self.stats.add("pool_startup_seconds", time.perf_counter() - start)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (engines are also cleaned up on GC)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _handle_pool_crash(self, fault_plan, missing: list[int]) -> None:
        """A worker died mid-chunk (BrokenExecutor). Tear the broken pool
        down so the next parallel call rebuilds it instead of hanging on a
        dead executor; the current call re-dispatches serially."""
        obs.registry().counter("faults.pool_rebuilds").inc()
        if fault_plan is not None and set(fault_plan.worker_kill_blocks) & set(missing):
            obs.registry().counter("faults.injected.worker_kills").inc()
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def __enter__(self) -> "RecodeEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _submit(self, fn, task) -> "Future | _Ran":
        """Run ``fn(task)`` where this engine runs work: inline when
        ``workers=0``, else on the pool. Read the result with
        :meth:`_collect`."""
        if not self.workers:
            return _Ran(fn, task)
        pool = self._ensure_pool()
        if self.executor == "thread":
            # Threads share the process-wide registry; metrics are
            # thread-safe, so record directly.
            return pool.submit(fn, task)
        return pool.submit(
            _run_isolated, (fn, task, obs.tracing_enabled(), kernels.backend())
        )

    def _collect(self, fut: "Future | _Ran"):
        """Result of a :meth:`_submit` future (raising its error). Process
        tasks run under per-worker metric registries and tracers whose
        contents merge into the parent's here, so parallel runs report the
        same counter totals and spans as serial ones."""
        result = fut.result()
        if not self.workers or self.executor == "thread":
            return result
        result, snapshot, events = result
        obs.registry().merge_snapshot(snapshot)
        if events:
            obs.tracer().add_events(events)
        return result

    def _run_chunked(self, fn, tasks: list) -> list:
        """Apply ``fn`` to every task, in order, flattening list results."""
        futures = [self._submit(fn, task) for task in tasks]
        return [item for fut in futures for item in self._collect(fut)]

    @staticmethod
    def _chunks(items: list, size: int) -> list[list]:
        return [items[i : i + size] for i in range(0, len(items), size)]

    # -- encode --------------------------------------------------------------

    def encode_blocked(
        self,
        matrix: CSRMatrix,
        block_bytes: int = UDP_BLOCK_BYTES,
        use_delta: bool = True,
        use_huffman: bool = True,
        sample_frac: float = 0.4,
        seed: int = 0,
    ) -> MatrixCompression:
        """Compress ``matrix`` into a block plan, block-parallel.

        Byte-identical to :func:`repro.codecs.pipeline.compress_matrix`
        with the same arguments: the workers run the same deterministic
        stage functions, and chunk results are reassembled in block order.
        """
        if not 0.0 < sample_frac <= 1.0:
            raise ValueError(f"sample_frac must be in (0, 1], got {sample_frac}")
        try:
            return self._encode_blocked(
                matrix, block_bytes, use_delta, use_huffman, sample_frac, seed
            )
        except BaseException:
            # Never leak the worker pool when an exception escapes outside
            # the context-manager path (finalizers only run at GC time).
            self.close()
            raise

    def _encode_blocked(
        self,
        matrix: CSRMatrix,
        block_bytes: int,
        use_delta: bool,
        use_huffman: bool,
        sample_frac: float,
        seed: int,
    ) -> MatrixCompression:
        if self.workers:
            # Spin the pool up (timed separately) before the encode timer.
            self._ensure_pool()
        start = time.perf_counter()
        with obs.trace("codecs.engine.encode", workers=self.workers, nnz=matrix.nnz):
            blocked = partition_csr(matrix, block_bytes=block_bytes)
            idx_streams, val_streams = block_streams(blocked, use_delta)

            # Stage 1 — Snappy over both streams, one flat task list.
            snapped = self._run_chunked(
                _snappy_chunk, self._chunks(idx_streams + val_streams, self.chunk_blocks)
            )
            nb = blocked.nblocks
            idx_snapped, val_snapped = snapped[:nb], snapped[nb:]

            # Stage 2 — tables need a global sample, so they build in-process.
            index_table, value_table = sampled_tables(
                idx_snapped, val_snapped, nb, sample_frac, seed, use_huffman
            )

            # Stage 3 — Huffman bit-packing (the dominant encode cost).
            idx_tasks = [
                ([len(s) for s in idx_streams[i : i + self.chunk_blocks]],
                 idx_snapped[i : i + self.chunk_blocks], index_table, use_huffman)
                for i in range(0, nb, self.chunk_blocks)
            ]
            val_tasks = [
                ([len(s) for s in val_streams[i : i + self.chunk_blocks]],
                 val_snapped[i : i + self.chunk_blocks], value_table, use_huffman)
                for i in range(0, nb, self.chunk_blocks)
            ]
            finished = self._run_chunked(_finish_chunk, idx_tasks + val_tasks)
            index_records, value_records = finished[:nb], finished[nb:]

            plan = MatrixCompression(
                blocked=blocked,
                index_records=tuple(index_records),
                value_records=tuple(value_records),
                index_table=index_table,
                value_table=value_table,
                use_delta=use_delta,
                use_huffman=use_huffman,
                block_bytes=block_bytes,
            )
        self.stats.add("blocks_encoded", nb)
        self.stats.add("encode_seconds", time.perf_counter() - start)
        _record_plan_metrics(plan)
        return plan

    # -- decode --------------------------------------------------------------

    def decode_blocked(
        self,
        plan: MatrixCompression,
        block_ids: list[int] | None = None,
        matrix_id: str = "",
    ) -> list[CSRBlock]:
        """Decode the given blocks (all, by default), cache-aware.

        Returns blocks in the requested order, identical to
        ``[plan.decompress_block(i) for i in block_ids]``. Strict: when
        blocks fail (after retries), the lowest failing block's
        :class:`~repro.codecs.errors.BlockDecodeError` is raised.
        """
        ids = list(range(plan.nblocks)) if block_ids is None else list(block_ids)
        blocks, failures = self.decode_resilient(plan, ids, matrix_id=matrix_id)
        if failures:
            raise failures[0].error
        return [blocks[i] for i in ids]

    def decode_resilient(
        self,
        plan: MatrixCompression,
        block_ids: list[int] | None = None,
        matrix_id: str = "",
    ) -> tuple[dict[int, CSRBlock], tuple[BlockFailure, ...]]:
        """Decode blocks with per-block error isolation.

        Returns ``(blocks, failures)``: every block that decoded (keyed by
        id) plus a :class:`BlockFailure` per block that could not, in
        block-id order. This drains :meth:`decode_blocks_async` with every
        chunk in flight at once, so retries, quarantine, pool-crash
        recovery and stats are exactly the pipelined path's (see
        :class:`AsyncDecode`).
        """
        handle = self.decode_blocks_async(
            plan, block_ids, matrix_id=matrix_id, max_inflight=plan.nblocks + 1
        )
        blocks: dict[int, CSRBlock] = {}
        failures: list[BlockFailure] = []
        try:
            for i, res in handle:
                if isinstance(res, BlockFailure):
                    failures.append(res)
                else:
                    blocks[i] = res
        except BaseException:
            # Never leak the worker pool when an exception escapes outside
            # the context-manager path (finalizers only run at GC time).
            self.close()
            raise
        failures.sort(key=lambda f: f.block_id)
        return blocks, tuple(failures)

    def decode_block(
        self, plan: MatrixCompression, i: int, matrix_id: str = ""
    ) -> CSRBlock:
        """Decode one block (cache-aware); the per-block SpMV hook."""
        blocks, failures = self.decode_resilient(plan, [i], matrix_id=matrix_id)
        if failures:
            raise failures[0].error
        return blocks[i]

    def decode_blocks_async(
        self,
        plan: MatrixCompression,
        block_ids: list[int] | None = None,
        matrix_id: str = "",
        max_inflight: int = DEFAULT_PREFETCH_CHUNKS,
    ) -> "AsyncDecode":
        """Submit block decodes without blocking on the whole batch.

        Returns an :class:`AsyncDecode` handle: iterate it to consume
        ``(block_id, CSRBlock | BlockFailure)`` pairs in *completion*
        order while up to ``max_inflight`` chunk tasks stay in flight in
        the worker pool. This is the paper's decode/compute overlap: the
        pool recodes block *i+1* (and beyond) while the consumer
        multiplies block *i*.

        It is the engine's only decode loop: :meth:`decode_resilient`,
        :meth:`decode_blocked` and :meth:`decode_block` drain it.
        """
        ids = list(range(plan.nblocks)) if block_ids is None else list(block_ids)
        for i in ids:
            if not 0 <= i < plan.nblocks:
                raise ValueError(f"block id {i} out of range (nblocks={plan.nblocks})")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        return AsyncDecode(self, plan, ids, matrix_id, max_inflight)

    def reset_stats(self) -> None:
        self.stats.reset()


# ---------------------------------------------------------------------------
# Asynchronous decode handle
# ---------------------------------------------------------------------------


class AsyncDecode:
    """Handle over an in-flight chunked block decode: the engine's one
    decode loop.

    Iterating yields ``(block_id, CSRBlock | BlockFailure)`` in
    completion order: cache hits and quarantined blocks immediately, then
    chunks as they finish, with at most ``max_inflight`` chunk tasks
    submitted at once (the pipeline's bounded prefetch depth). Consumers
    needing block order must reorder, as the pipelined SpMV executor does
    with a small stash.
    Inline engines (``workers=0``) run one chunk per step, so decode
    interleaves with the consumer.

    A chunk that raises a codec error is re-decoded block by block
    through :meth:`_decode_isolated` (retry, backoff, quarantine). A
    worker death (BrokenProcessPool) tears the pool down once and sends
    every unfinished chunk the same way. Stats
    (``cache_hits``/``cache_misses``/``blocks_decoded``/``bytes_decoded``
    /``decode_seconds``) are flushed to the engine when the iterator is
    exhausted, closed, or garbage-collected; ``decode_seconds`` counts
    only time spent inside the handle, not in the consumer or pool
    spin-up.
    """

    def __init__(
        self,
        engine: RecodeEngine,
        plan: MatrixCompression,
        ids: list[int],
        matrix_id: str,
        max_inflight: int,
    ):
        self._engine = engine
        self._plan = plan
        self._ids = ids
        self._matrix_id = matrix_id
        self._max_inflight = max_inflight
        self._pending: dict[Future, list[int]] = {}
        self._busy = 0.0
        self._hits = 0
        self._misses = 0
        self._decoded_blocks = 0
        self._yielded_bytes = 0
        # Set by _produce once the blocks to decode are known.
        self._fingerprint = ""
        self._fault_plan = None
        self._idx_recs = self._val_recs = None
        if engine.workers:
            # Spin the pool up now so fork/exec cost lands in
            # pool_startup_seconds, never in decode_seconds.
            engine._ensure_pool()
        self._gen = self._run()

    def __iter__(self) -> "AsyncDecode":
        return self

    def __next__(self):
        # Only in-handle time counts toward decode_seconds; the consumer
        # multiplies between calls.
        t0 = time.perf_counter()
        try:
            return next(self._gen)
        finally:
            self._busy += time.perf_counter() - t0

    def close(self) -> None:
        """Stop consuming; in-flight pool tasks finish and are dropped."""
        self._gen.close()

    @property
    def inflight(self) -> int:
        """Chunk tasks submitted to the pool and not yet consumed."""
        return len(self._pending)

    @property
    def ready(self) -> int:
        """Chunk tasks finished in the pool but not yet consumed."""
        return sum(1 for f in self._pending if f.done())

    # -- internals -----------------------------------------------------------

    def _run(self):
        """:meth:`_produce`, flushing stats however iteration ends."""
        try:
            yield from self._produce()
        finally:
            self._flush_stats()

    def _flush_stats(self) -> None:
        stats = self._engine.stats
        if self._hits:
            stats.add("cache_hits", self._hits)
        if self._misses:
            stats.add("cache_misses", self._misses)
        stats.add("blocks_decoded", self._decoded_blocks)
        stats.add("bytes_decoded", self._yielded_bytes)
        stats.add("decode_seconds", self._busy)

    def _count(self, item):
        i, res = item
        if isinstance(res, CSRBlock):
            self._yielded_bytes += 12 * res.nnz
        return item

    def _produce(self):
        eng = self._engine
        plan = self._plan
        matrix_id = self._matrix_id
        self._fingerprint = plan_fingerprint(plan) if eng.cache is not None else ""

        missing: list[int] = []
        for i in self._ids:
            if eng.cache is not None:
                hit = eng.cache.get((matrix_id, i, self._fingerprint))
                if hit is not None:
                    self._hits += 1
                    yield self._count((i, hit))
                    continue
                self._misses += 1
            missing.append(i)
        missing = sorted(set(missing))

        if eng.quarantined and missing:
            # Steady-state loops skip known-bad blocks instead of
            # re-failing them (and re-crashing workers) every iteration.
            fq = plan_fingerprint(plan)
            alive: list[int] = []
            for i in missing:
                if (matrix_id, fq, i) in eng.quarantined:
                    obs.registry().counter("faults.quarantine_hits").inc()
                    yield i, BlockFailure(
                        i, 0,
                        BlockDecodeError(f"block {i} is quarantined", block_id=i),
                    )
                else:
                    alive.append(i)
            missing = alive
        if not missing:
            return
        self._decoded_blocks = len(missing)

        self._fault_plan = fault_plan = faults.active()
        if fault_plan is not None:
            # Corrupt the engine's *view* of the records once, up front;
            # retries then deterministically re-fail, which is the point.
            self._idx_recs = {
                i: fault_plan.mutate_record(plan.index_records[i], i, "index")
                for i in missing
            }
            self._val_recs = {
                i: fault_plan.mutate_record(plan.value_records[i], i, "value")
                for i in missing
            }
        else:
            self._idx_recs, self._val_recs = plan.index_records, plan.value_records

        # Kills are only real in a process pool; everywhere else they
        # downgrade to an in-band InjectedFault so the main process survives.
        allow_kill = eng.workers > 0 and eng.executor == "process"
        # An inline chunk runs at submit time: one at a time keeps decode
        # interleaved with the consumer.
        limit = self._max_inflight if eng.workers else 1
        chunks = deque(
            missing[j : j + eng.chunk_blocks]
            for j in range(0, len(missing), eng.chunk_blocks)
        )
        pending = self._pending
        crashed = False
        while pending or chunks:
            while chunks and len(pending) < limit:
                chunk_ids = chunks.popleft()
                task = self._task(chunk_ids, allow_kill)
                pending[eng._submit(_decode_pair_chunk, task)] = chunk_ids
            ready = [f for f in pending if f.done()]
            if not ready:
                wait(pending, return_when=FIRST_COMPLETED)
                ready = [f for f in pending if f.done()]
            for fut in ready:
                chunk_ids = pending.pop(fut)
                try:
                    pairs = eng._collect(fut)
                except (CodecError, BrokenExecutor, CancelledError) as exc:
                    if not isinstance(exc, CodecError) and not crashed:
                        # The pool is gone: this chunk and every chunk not
                        # yet submitted decode in-process.
                        crashed = True
                        eng._handle_pool_crash(fault_plan, missing)
                        chunk_ids = chunk_ids + [i for ids in chunks for i in ids]
                        chunks.clear()
                    items = self._decode_isolated(chunk_ids)
                else:
                    items = [
                        (i, self._finish(i, ib, vb))
                        for i, (ib, vb) in zip(chunk_ids, pairs)
                    ]
                for item in items:
                    yield self._count(item)

    def _task(self, chunk_ids: list[int], allow_kill: bool) -> tuple:
        """The :func:`_decode_pair_chunk` arguments for ``chunk_ids``."""
        plan = self._plan
        fault_plan = self._fault_plan
        return (
            chunk_ids,
            [self._idx_recs[i] for i in chunk_ids],
            [self._val_recs[i] for i in chunk_ids],
            plan.index_table, plan.value_table,
            plan.use_huffman, plan.use_delta,
            fault_plan if fault_plan is not None and fault_plan.wants_worker_faults else None,
            allow_kill,
        )

    def _decode_isolated(self, chunk_ids: list[int]) -> list[tuple]:
        """Serial per-block re-dispatch after a chunk (or pool) failure.

        The chunk (or the pool) is suspect, so each of its blocks decodes
        in-process on its own: a block gets ``1 + max_retries`` attempts
        with exponential backoff + deterministic jitter, then is
        quarantined. Healthy blocks from a failed chunk decode fine here.
        """
        eng = self._engine
        reg = obs.registry()
        jitter_seed = self._fault_plan.seed if self._fault_plan is not None else 0
        items: list[tuple] = []
        for i in chunk_ids:
            for attempt in range(1, eng.max_retries + 2):
                try:
                    [(idx_bytes, val_bytes)] = _decode_pair_chunk(
                        self._task([i], allow_kill=False)
                    )
                except CodecError as exc:
                    last_exc = exc
                    if attempt <= eng.max_retries:
                        reg.counter("faults.retries").inc()
                        if eng.retry_base_s > 0:
                            jitter = seeded_rng(derive_seed(
                                jitter_seed, "retry-jitter", self._matrix_id, str(i),
                                str(attempt),
                            )).random()
                            time.sleep(
                                eng.retry_base_s * (2 ** (attempt - 1))
                                * (0.5 + jitter)
                            )
                else:
                    items.append((i, self._finish(i, idx_bytes, val_bytes)))
                    break
            else:
                eng.quarantined.add((self._matrix_id, plan_fingerprint(self._plan), i))
                reg.counter("faults.blocks_quarantined").inc()
                error = BlockDecodeError(
                    f"block {i} failed to decode after {attempt} attempts: "
                    f"{last_exc}",
                    block_id=i,
                )
                error.__cause__ = last_exc
                items.append((i, BlockFailure(i, attempt, error)))
        return items

    def _finish(self, i: int, idx_bytes: bytes, val_bytes: bytes) -> CSRBlock:
        block = _assemble_block(self._plan, i, idx_bytes, val_bytes)
        if self._engine.cache is not None:
            self._engine.cache.put((self._matrix_id, i, self._fingerprint), block)
        return block
