"""Block decode engine with a decoded-block cache.

The paper's throughput story (Section V, Fig. 12) is 64 UDP lanes each
decompressing an 8 KB block next to memory, behind one ``recode()`` call
per block, with the steady-state SpMV loop re-streaming the *same*
compressed blocks every iteration. This module is the software analogue
of that structure:

* :class:`RecodeEngine` decodes blocks inline on the calling thread, one
  block when the consumer asks for it (:class:`AsyncDecode`), with
  per-block retry, backoff and quarantine. It does not encode: plans are
  compressed once, ahead of time, by
  :func:`repro.codecs.pipeline.compress_matrix`, as the paper's are.
* :class:`DecodedBlockCache` is a bounded LRU over decoded
  :class:`~repro.sparse.blocked.CSRBlock` payloads keyed by
  ``(matrix_id, block_id, plan_hash)``, so iterative workloads (PageRank,
  heat solvers) skip re-decompression exactly like the paper's steady-state
  UDP loop skips nothing *but* the DRAM stream.

Decoded blocks are byte-identical to
:meth:`~repro.codecs.pipeline.MatrixCompression.decompress_block`'s:
the engine runs the same functions on the same inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field

from repro import faults, obs
from repro.codecs.errors import BlockDecodeError, CodecError
from repro.codecs.pipeline import DecodeRun, MatrixCompression
# Unused here since decode goes through ``decompress_block``; perfbench's
# ledger still patches this name in this module.
from repro.codecs.pipeline import decode_record  # noqa: F401
from repro.sparse.blocked import CSRBlock
from repro.util.rng import derive_seed, seeded_rng

#: Default decoded-block cache budget (raw CSR payload bytes).
DEFAULT_CACHE_BYTES = 256 << 20


# ---------------------------------------------------------------------------
# Plan fingerprinting (the ``plan_hash`` component of cache keys)
# ---------------------------------------------------------------------------

_fingerprints: dict[int, str] = {}


def plan_fingerprint(plan: MatrixCompression) -> str:
    """Stable content hash of a compression plan.

    Covers the scheme flags, block budget, shape, both Huffman tables'
    code lengths, every block's row range and ``row_ptr``, and every
    record's header and payload, so two plans share a fingerprint iff
    their compressed form is byte-identical. Memoized per plan object
    (plans are frozen).
    """
    key = id(plan)
    cached = _fingerprints.get(key)
    if cached is not None:
        return cached
    h = hashlib.blake2b(digest_size=16)
    h.update(b"%d:%d:%d:%d:%d:%d:" % (
        plan.use_delta, plan.use_huffman, plan.block_bytes, plan.nblocks, *plan.blocked.shape))
    for table in (plan.index_table, plan.value_table):
        h.update(b"-:" if table is None else table.lengths.tobytes())
    for rows in plan.blocked.row_layout:
        h.update(rows.tobytes())
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
    serve layer's compute threads probe one cache concurrently.

    Resident bytes are also kept per matrix. With ``max_matrix_frac`` set
    (the serve layer's shared cache sets it), one matrix may hold at most
    that share of ``max_bytes``: a ``put`` past it evicts that matrix's
    own LRU entries first, and a block bigger than the whole share is
    refused (``rejected``). Every entry that leaves, by eviction,
    :meth:`evict_matrix` or :meth:`clear`, bumps the change count that
    :meth:`hit_all` checks.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_CACHE_BYTES,
        max_blocks: int | None = None,
        max_matrix_frac: float | None = None,
    ):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if max_blocks is not None and max_blocks <= 0:
            raise ValueError(f"max_blocks must be positive, got {max_blocks}")
        if max_matrix_frac is not None and not 0.0 < max_matrix_frac <= 1.0:
            raise ValueError(f"max_matrix_frac must be in (0, 1], got {max_matrix_frac}")
        self.max_bytes = max_bytes
        self.max_blocks = max_blocks
        #: Cap on one matrix's share of ``max_bytes``; None = no cap.
        self.max_matrix_frac = max_matrix_frac
        self.stats = CacheStats()
        self.cache_id = f"c{next(_cache_ids)}"
        self.rejected = 0
        self.matrix_evictions = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[CSRBlock, int]] = OrderedDict()
        self._matrix_bytes: dict[str, int] = {}
        self._changes = 0  # bumped whenever an entry leaves (see _drop)
        _register_cache_collector(obs.registry(), self)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def matrix_share_bytes(self) -> int | None:
        """The per-matrix byte cap (None when uncapped)."""
        if self.max_matrix_frac is None:
            return None
        return int(self.max_bytes * self.max_matrix_frac)

    def matrix_bytes(self, matrix_id: str) -> int:
        """Resident decoded bytes attributed to one matrix."""
        with self._lock:
            return self._matrix_bytes.get(matrix_id, 0)

    def _account(self, matrix_id: str, nbytes: int) -> None:
        """Add ``nbytes`` (negative to remove) to both byte ledgers."""
        self.stats.current_bytes += nbytes
        left = self._matrix_bytes.get(matrix_id, 0) + nbytes
        if left > 0:
            self._matrix_bytes[matrix_id] = left
        else:
            self._matrix_bytes.pop(matrix_id, None)

    def _drop(self, key: tuple) -> None:
        """Evict one entry (lock held)."""
        _, nbytes = self._entries.pop(key)
        self._account(key[0], -nbytes)
        self.stats.evictions += 1
        self._changes += 1

    def __contains__(self, key: tuple) -> bool:
        """Whether ``key`` is resident, counting nothing."""
        return key in self._entries

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
        matrix_id = key[0]
        nbytes = 12 * block.nnz
        share = self.matrix_share_bytes
        with self._lock:
            if share is not None and nbytes > share:
                self.rejected += 1
                return
            old = self._entries.pop(key, None)
            if old is not None:
                self._account(matrix_id, -old[1])
            self._entries[key] = (block, nbytes)
            self._account(matrix_id, nbytes)
            # This matrix pays for its own overshoot before any global
            # pressure lands on others.
            while True:
                if share is not None and self._matrix_bytes.get(matrix_id, 0) > share:
                    victim = next(k for k in self._entries if k[0] == matrix_id)
                    self.matrix_evictions += 1
                elif self._entries and (
                    self.stats.current_bytes > self.max_bytes
                    or (self.max_blocks is not None and len(self._entries) > self.max_blocks)
                ):
                    victim = next(iter(self._entries))
                else:
                    break
                self._drop(victim)

    def evict_matrix(self, matrix_id: str) -> int:
        """Drop every resident block of one matrix; returns bytes freed."""
        with self._lock:
            freed = self._matrix_bytes.get(matrix_id, 0)
            for key in [k for k in self._entries if k[0] == matrix_id]:
                self._drop(key)
                self.matrix_evictions += 1
            return freed

    def peek_all(self, keys: list[tuple]) -> tuple[list[CSRBlock] | None, int]:
        """The blocks under ``keys`` (None if any is missing) and the change
        count, without counting hits or touching LRU order."""
        with self._lock:
            entries = [self._entries.get(key) for key in keys]
            return (None if None in entries else [e[0] for e in entries]), self._changes

    def hit_all(self, keys: list[tuple], changes: int) -> bool:
        """Count a hit on every key, moved to the LRU tail, in one locked
        update — if no entry left since change count ``changes``."""
        with self._lock:
            if self._changes != changes:
                return False
            for key in keys:
                self._entries.move_to_end(key)
            self.stats.hits += len(keys)
            return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._matrix_bytes.clear()
            self.stats.current_bytes = 0
            self._changes += 1


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


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


_engine_ids = itertools.count()

#: Registry counter suffixes backing one :class:`EngineStats` view.
_ENGINE_COUNTERS = (
    "blocks_decoded",
    "cache_hits",
    "cache_misses",
    "bytes_decoded",
    "decode_seconds",
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

    ``decode_seconds`` covers decode plus cache probing only.
    """

    def __init__(self, engine_label: str = "",
                 registry: obs.MetricsRegistry | None = None):
        reg = registry if registry is not None else obs.registry()
        self.engine_label = engine_label
        self._labels = {"engine": engine_label} if engine_label else {}
        self._lock = threading.Lock()
        self._totals = dict.fromkeys(_ENGINE_COUNTERS, 0.0)
        # Pre-create the counters so every name is present (value 0) in
        # the construction-time registry even before any work lands —
        # conformance suites compare metric-name sets across configs.
        for name in _ENGINE_COUNTERS:
            reg.counter(f"codecs.engine.{name}", **self._labels)

    def add(self, name: str, amount: float) -> None:
        if not amount:
            return  # skip the lock on no-op adds (all-hit decode passes)
        with self._lock:
            self._totals[name] += amount
        obs.registry().counter(f"codecs.engine.{name}", **self._labels).inc(amount)

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
    def decode_seconds(self) -> float:
        return self._totals["decode_seconds"]

    @property
    def decode_mb_per_s(self) -> float:
        """Raw (decoded) MB/s over the engine's decode calls, cache
        included — the software counterpart of Fig. 12's GB/s axis."""
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
            "blocks_decoded": self.blocks_decoded,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "bytes_decoded": self.bytes_decoded,
            "decode_seconds": self.decode_seconds,
            "decode_mb_per_s": self.decode_mb_per_s,
        }


@dataclass
class RecodeEngine:
    """Block decode with an optional decoded-block cache.

    Attributes:
        workers: kept for perfbench, which passes ``workers=nproc()``. It
            is validated (``>= 0``) but selects no code: the engine runs
            no processes, and decode always runs inline on the calling
            thread.
        cache: a :class:`DecodedBlockCache`, or ``None`` to decode cold
            every time.
        max_retries: extra decode attempts per failing block before it is
            quarantined (the first attempt is not a retry).
        retry_base_s: base delay of the exponential backoff between
            retries; attempt ``k`` sleeps ``retry_base_s * 2**(k-1)``
            scaled by a deterministic jitter in ``[0.5, 1.5)``. ``0``
            disables sleeping (tests).
    """

    workers: int = 0
    cache: DecodedBlockCache | None = None
    max_retries: int = 2
    retry_base_s: float = 0.02
    stats: EngineStats = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_base_s < 0:
            raise ValueError(f"retry_base_s must be >= 0, got {self.retry_base_s}")
        self.stats = EngineStats(engine_label=f"e{next(_engine_ids)}")
        #: Blocks that exhausted their retries: ``(matrix_id, plan
        #: fingerprint, block_id)``. Memoized so steady-state loops skip
        #: known-bad blocks instead of re-failing them every iteration.
        self.quarantined: set[tuple[str, str, int]] = set()

    def close(self) -> None:
        """A no-op, like the context-manager methods: the engine holds no
        process or file. Kept for perfbench, which closes its engine."""

    def __enter__(self) -> "RecodeEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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
        block-id order. This drains :meth:`decode_blocks_async` over the
        distinct requested ids, so retries, quarantine and stats are
        exactly an engine-backed SpMV's (see :class:`AsyncDecode`).
        """
        ids = None if block_ids is None else sorted(set(block_ids))
        blocks: dict[int, CSRBlock] = {}
        failures: list[BlockFailure] = []
        for i, res in self.decode_blocks_async(plan, ids, matrix_id=matrix_id):
            if isinstance(res, BlockFailure):
                failures.append(res)
            else:
                blocks[i] = res
        return blocks, tuple(failures)

    def decode_block(
        self, plan: MatrixCompression, i: int, matrix_id: str = ""
    ) -> CSRBlock:
        """Decode one block (cache-aware). Recoded SpMV/SpMM runs do not
        call it (they read one :meth:`decode_blocks_async` handle per run);
        it is kept for callers that want a single block."""
        blocks, failures = self.decode_resilient(plan, [i], matrix_id=matrix_id)
        if failures:
            raise failures[0].error
        return blocks[i]

    def decode_blocks_async(
        self,
        plan: MatrixCompression,
        block_ids: list[int] | None = None,
        matrix_id: str = "",
    ) -> "AsyncDecode":
        """A lazy decode of the given blocks (all, by default).

        Returns an :class:`AsyncDecode` handle: iterate it to consume
        ``(block_id, CSRBlock | BlockFailure)`` pairs in request order,
        each block decoded on the calling thread when it is asked for —
        the ``recode()`` in front of each multiply in the paper's tiled
        loop (Fig. 7).

        It is the engine's only decode loop: :meth:`decode_resilient`,
        :meth:`decode_blocked` and :meth:`decode_block` drain it.
        """
        ids = list(range(plan.nblocks)) if block_ids is None else list(block_ids)
        for i in ids:
            if not 0 <= i < plan.nblocks:
                raise ValueError(f"block id {i} out of range (nblocks={plan.nblocks})")
        return AsyncDecode(self, plan, ids, matrix_id)

    def reset_stats(self) -> None:
        self.stats.reset()


# ---------------------------------------------------------------------------
# Decode handle
# ---------------------------------------------------------------------------


def _owned(block: CSRBlock) -> CSRBlock:
    """``block`` over read-only copies of its payload, pinning no span
    buffer it was decoded into."""
    col_idx, val = block.col_idx.copy(), block.val.copy()
    col_idx.flags.writeable = val.flags.writeable = False
    return block.with_payload(col_idx, val)


class AsyncDecode:
    """Handle over a lazy block decode: the engine's one decode loop.

    Iterating yields ``(block_id, CSRBlock | BlockFailure)`` in request
    order, doing each block's work inline when it is asked for: a cache
    hit is returned as is, a quarantined block fails at once, and any
    other block gets ``1 + max_retries`` decode attempts, with exponential
    backoff and deterministic jitter between them, before it is
    quarantined. Its :class:`~repro.codecs.pipeline.DecodeRun` decodes
    runs of consecutive cache misses ahead, a span per call; a block put
    in the cache gets its own copy of the payload. A consumer that decodes
    a span of the next blocks itself (a cache-less engine's fused run)
    reports them through :meth:`took` instead of iterating, and the next
    block yielded follows them. Stats
    (``cache_hits``/``cache_misses``/``blocks_decoded``
    /``bytes_decoded``/``decode_seconds``) are flushed to the engine when
    the iterator is exhausted, closed, or garbage-collected;
    ``decode_seconds`` counts only time spent inside the handle, not in
    the consumer, plus the decode time :meth:`took` reports.
    """

    def __init__(
        self,
        engine: RecodeEngine,
        plan: MatrixCompression,
        ids: list[int],
        matrix_id: str,
    ):
        self._engine = engine
        self._plan = plan
        self._ids = ids
        self._matrix_id = matrix_id
        self._busy = 0.0
        self._hits = 0
        self._misses = 0
        self._decoded_blocks = 0
        self._yielded_bytes = 0
        self._pos = 0  # of the block being produced (or taken) next, in ids
        #: One decode run per handle: the kernel bound once, telemetry
        #: published when the handle's stats are. A recoded SpMV checks
        #: and streams its blocks through it, so its spans also end before
        #: blocks a DRAM fault touches.
        self.run = DecodeRun(
            plan, ("dram", "record", "latency"),
            # The block asked for decodes even if another thread has just
            # cached it.
            lambda i, stop: max(i + 1, self.span_stop(i, stop)),
        )
        self._gen = self._iterate()

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
        """Stop consuming; blocks not yet asked for are never decoded."""
        self._gen.close()
        self._flush_stats()  # a handle only ever given took() never started

    def took(self, start: int, stop: int, nbytes: int, seconds: float) -> None:
        """Count blocks ``[start, stop)``, the next ones asked for, as
        decoded by the consumer in ``seconds``, ``nbytes`` of them out."""
        self._pos += stop - start
        self._decoded_blocks += stop - start
        self._yielded_bytes += nbytes
        self._busy += seconds

    # -- internals -----------------------------------------------------------

    def _iterate(self):
        """:meth:`_produce`, flushing stats however iteration ends."""
        try:
            yield from self._produce()
        finally:
            self._flush_stats()

    def _flush_stats(self) -> None:
        self.run.flush()
        stats = self._engine.stats
        if self._hits:
            stats.add("cache_hits", self._hits)
        if self._misses:
            stats.add("cache_misses", self._misses)
        stats.add("blocks_decoded", self._decoded_blocks)
        stats.add("bytes_decoded", self._yielded_bytes)
        stats.add("decode_seconds", self._busy)
        self._hits = self._misses = self._decoded_blocks = self._yielded_bytes = 0
        self._busy = 0.0

    def _produce(self):
        eng = self._engine
        plan = self._plan
        ids = self._ids
        matrix_id = self._matrix_id
        cache = eng.cache
        fingerprint = plan_fingerprint(plan) if cache is not None else ""
        fault_plan = faults.active()
        while self._pos < len(ids):
            i = ids[self._pos]
            res = cache.get((matrix_id, i, fingerprint)) if cache is not None else None
            if res is not None:
                self._hits += 1
            elif cache is not None:
                self._misses += 1
            if res is None and eng.quarantined and (
                    matrix_id, plan_fingerprint(plan), i) in eng.quarantined:
                # Steady-state loops skip known-bad blocks instead of
                # re-failing them every iteration.
                obs.registry().counter("faults.quarantine_hits").inc()
                res = BlockFailure(
                    i, 0, BlockDecodeError(f"block {i} is quarantined", block_id=i)
                )
            elif res is None:
                self._decoded_blocks += 1
                res = self._decode(i, fault_plan)
                if isinstance(res, CSRBlock) and cache is not None:
                    res = _owned(res)
                    cache.put((matrix_id, i, fingerprint), res)
            if isinstance(res, CSRBlock):
                self._yielded_bytes += 12 * res.nnz
            self._pos += 1
            yield i, res

    def span_stop(self, i: int, stop: int) -> int:
        """How far a span from block ``i``, the next asked for, may run (by
        ``stop``): to the first block from ``i`` on not asked for next,
        cached, or quarantined for this matrix and plan."""
        ids, at, cache = self._ids, self._pos - i, self._engine.cache
        key = plan_fingerprint(self._plan) if cache is not None else ""
        quarantined = self._engine.quarantined
        bad = (self._matrix_id, plan_fingerprint(self._plan)) if quarantined else None
        end = i
        while end < stop and at + end < len(ids) and ids[at + end] == end and (
            self._matrix_id, end, key) not in (cache or ()) and (
                bad is None or (*bad, end) not in quarantined):
            end += 1
        return end

    def _decode(self, i: int, fault_plan) -> CSRBlock | BlockFailure:
        """Decode block ``i`` with retries; quarantine it if they run out."""
        eng = self._engine
        plan = self._plan
        idx_rec = val_rec = None
        if not self.run.check(i):
            idx_rec, val_rec = plan.index_records[i], plan.value_records[i]
            if fault_plan is not None:
                # Corrupt the engine's *view* of the records once, up
                # front; retries then deterministically re-fail, which is
                # the point.
                idx_rec = fault_plan.mutate_record(idx_rec, i, "index")
                val_rec = fault_plan.mutate_record(val_rec, i, "value")
        jitter_seed = fault_plan.seed if fault_plan is not None else 0
        reg = obs.registry()
        for attempt in range(1, eng.max_retries + 2):
            try:
                with obs.trace("codecs.engine.decode", block=i):
                    if fault_plan is not None:
                        fault_plan.delay(i)
                    return plan.decompress_block(
                        i, index_record=idx_rec, value_record=val_rec, run=self.run
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
                            eng.retry_base_s * (2 ** (attempt - 1)) * (0.5 + jitter)
                        )
        eng.quarantined.add((self._matrix_id, plan_fingerprint(plan), i))
        reg.counter("faults.blocks_quarantined").inc()
        error = BlockDecodeError(
            f"block {i} failed to decode after {attempt} attempts: {last_exc}",
            block_id=i,
        )
        error.__cause__ = last_exc
        return BlockFailure(i, attempt, error)
