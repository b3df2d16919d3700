"""Persistent execution sessions: steady-state SpMV/SpMM over one plan.

Every :func:`~repro.core.spmv_pipeline.recoded_spmv` call is single-shot:
it re-pays engine and cache set-up, reader structural walks, row-index
materialization, per-record CRC checks, and a fresh output allocation —
even when iterating over the same immutable plan. The paper's throughput
claim (and SpArch / SparseZipper's framing of sparse accelerators) is
about *sustained* steady-state loops, where decode traffic amortizes over
repeated accesses. :class:`ExecutionSession` makes that path first-class:

* **One engine** — one :class:`~repro.codecs.engine.RecodeEngine` lives
  for the session, with its cache and quarantine memo.
* **Session-scoped decoded-block cache sized to the matrix** — every
  decoded block stays resident (12 B/nnz budget covers the whole plan),
  so iterations after the first skip decode entirely.
* **Memoized structure** — one plan object (and one long-lived
  :class:`~repro.codecs.container.ContainerReader` for ``.dsh``-backed
  sessions) means per-block row-index vectors
  (:meth:`~repro.sparse.blocked.CSRBlock.row_segments`) and the
  reader's record columns are materialized once and reused.
* **``out=`` buffer reuse** — the result accumulator is allocated once
  and zero-filled per call; the accumulation sequence is unchanged, so
  results are bit-identical to single-shot runs.
* **Verified-once CRC memo** — reader-backed sessions enable
  :meth:`~repro.codecs.container.ContainerReader.enable_crc_memo`, so a
  record's CRC is checked on first touch and skipped afterwards.

Once every block has decoded cleanly into its cache, the session
*assembles once*: the cached blocks become views into one concatenated
``col_idx``/``val`` pair, put back under their keys. A warm call is one
hook-less kernel call — for SpMV one CSR SpMV (paper §III, Fig. 7),
bit-identical to the per-block loop, 0.72 → 0.31 ms median on a 36-block
24k-nnz operator (2 vCPU); SpMM keeps the loop, as a consolidated 8-RHS
gather measured no faster. It credits ``nblocks`` cache hits at once; a
cache ``clear()`` or eviction sends the next call cold to re-assemble.

Fault semantics are preserved conservatively: while a
:class:`~repro.faults.FaultPlan` is armed the warm path is disabled
outright, so chaos runs exercise the full stream/decode/degrade
machinery on *every* iteration with honest per-iteration traffic
accounting. Scrub (:func:`~repro.codecs.container.scrub_container`)
always re-checks CRCs regardless of the session memo.
"""

from __future__ import annotations

import itertools
import time
from os import PathLike

import numpy as np

from repro import faults, obs
from repro.codecs.container import ContainerReader
from repro.codecs.engine import DecodedBlockCache, RecodeEngine, plan_fingerprint
from repro.codecs.pipeline import MatrixCompression
from repro.core.spmv_pipeline import PipelineStats, recoded_spmm, recoded_spmv
from repro.memsys.dram import DDR4_100GBS, MemorySystem
from repro.memsys.traffic import TrafficLog
from repro.sparse.blocked import BlockedCSR
from repro.sparse.csr import VALUE_DTYPE
from repro.sparse.spmm import spmm_blocked
from repro.sparse.spmv import spmv_blocked

_session_ids = itertools.count()
_METRICS = obs.BoundMetrics(lambda reg, key: getattr(reg, key[1])(key[0]))


def _metric(name: str, kind: str = "counter"):
    """``name`` on the active registry, bound once per registry."""
    return _METRICS[name, kind]


class ExecutionSession:
    """A reusable handle over one compressed plan or ``.dsh`` container.

    Args:
        plan: an in-memory :class:`MatrixCompression`, an open
            :class:`ContainerReader` (borrowed), or a ``.dsh`` path (the
            session owns and closes the reader).
        matrix_id: stable cache namespace; defaults to a unique
            ``session-N`` so sessions sharing an engine never collide.
        memory: memory system for DMA timing/energy on cold runs.
        engine: borrow an existing engine (its cache too); by default the
            session builds its own with a cache sized to the matrix. Cold
            calls read each block off one decode handle of it.
        policy: forwarded to the executor on cold calls.
        reuse: ``False`` makes every call cold-per-call (the ablation
            axis): the cache is cleared before each call, no warm fast
            path, no CRC memo, fresh output buffers. Results are
            bit-identical either way.

    ``spmv``/``spmm`` return ``(y, stats)`` exactly like the single-shot
    functions. **The returned array is the session's reusable buffer**:
    it is overwritten by the next call on this session, so copy it (or
    pass your own ``out=``) if you need it to survive.
    """

    def __init__(
        self,
        plan: "MatrixCompression | ContainerReader | str | PathLike",
        *,
        matrix_id: str = "",
        memory: MemorySystem = DDR4_100GBS,
        engine: RecodeEngine | None = None,
        policy: str = "strict",
        reuse: bool = True,
    ):
        self.matrix_id = matrix_id or f"session-{next(_session_ids)}"
        self.memory = memory
        self.policy = policy
        self.reuse = reuse
        self._closed = False

        self.reader: ContainerReader | None = None
        self._owns_reader = False
        if isinstance(plan, MatrixCompression):
            self.plan = plan
        elif isinstance(plan, ContainerReader):
            self.reader = plan
        elif isinstance(plan, (str, PathLike)):
            self.reader = ContainerReader(plan, verify="lazy")
            self._owns_reader = True
        else:
            raise TypeError(
                "plan must be a MatrixCompression, a ContainerReader, or a "
                f".dsh path, got {type(plan).__name__}"
            )
        if self.reader is not None:
            # Enable the memo before plan() so the construction pass
            # (which materializes and CRC-checks every record once)
            # populates it; later re-streams then skip the re-check.
            if reuse:
                self.reader.enable_crc_memo()
            self.plan = self.reader.plan()

        if engine is not None:
            self.engine = engine
        else:
            # Budget covers every decoded block at 12 B/nnz, so nothing
            # evicts and the whole plan goes resident after one pass.
            cache = DecodedBlockCache(max_bytes=max(12 * self.plan.nnz, 4096))
            self.engine = RecodeEngine(cache=cache)

        self._fingerprint = plan_fingerprint(self.plan)
        self._keys = [(self.matrix_id, i, self._fingerprint) for i in range(self.plan.nblocks)]
        # Assembled warm matrix (None while cold), cache change count at assembly.
        self._warm_blocked: BlockedCSR | None = None
        self._warm_changes = 0
        self._out: dict[tuple, np.ndarray] = {}

        # Cumulative session counters (plain ints; mirrored into the
        # active registry's ``session.*`` counters at event time).
        self.calls = 0
        self.warm_calls = 0
        self.cold_calls = 0
        self.blocks_reused = 0
        self.out_reuses = 0
        self._crc_skips_seen = 0

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the session-owned reader, if any."""
        if self._closed:
            return
        self._closed = True
        if self._owns_reader and self.reader is not None:
            self.reader.close()

    def __enter__(self) -> "ExecutionSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def reset(self) -> None:
        """Drop all warm state: decoded-block cache, residency, buffers.

        The next call pays full cold cost — ``repro ablate``'s
        cold-per-call axis and cold-phase benchmarking both use this.
        """
        self._warm_blocked = None
        self._out.clear()
        if self.engine.cache is not None:
            self.engine.cache.clear()

    # -- warm-path plumbing ------------------------------------------------

    @property
    def warm(self) -> bool:
        """Whether the next call can take the assembled warm path."""
        return self._warm_blocked is not None and faults.active() is None

    def _claim_buffer(self, shape: tuple, out: np.ndarray | None) -> np.ndarray:
        if out is not None:
            return out
        if not self.reuse:
            return np.zeros(shape, dtype=VALUE_DTYPE)
        buf = self._out.get(shape)
        if buf is None:
            buf = np.zeros(shape, dtype=VALUE_DTYPE)
            self._out[shape] = buf
        else:
            self.out_reuses += 1
            _metric("session.out_buffer_reuses").inc()
        return buf

    def _assemble(self) -> None:
        """Swap the cached blocks for views into one concatenated pair;
        stays cold when the cache could not hold every block."""
        blocks, self._warm_changes = self.engine.cache.peek_all(self._keys)
        self._warm_blocked = None
        if blocks is not None:
            warm = BlockedCSR(self.plan.blocked.shape, tuple(blocks), self.plan.block_bytes)
            self._warm_blocked = warm.consolidated()
            for key, block in zip(self._keys, self._warm_blocked.blocks):
                self.engine.cache.put(key, block)

    def _warm_call(self, x: np.ndarray, kernel, out: np.ndarray, nrhs: int):
        """One hook-less multiply over the assembled matrix: no DRAM
        stream, no DMA charge, no record CRC, no decode."""
        y = kernel(self._warm_blocked, x, out=out)
        nnz, nblocks = self.plan.nnz, self.plan.nblocks
        log = TrafficLog()
        log.record("udp", "cpu", 12 * nnz)
        # Warm iterations are still iterations: keep the workload-side
        # spmv.*/spmm.* accounting (iterations, flops, decoded bytes to
        # the CPU) flowing even though the DRAM stream is skipped.
        prefix = "spmm" if kernel is spmm_blocked else "spmv"
        for name, n in (("iterations", 1), ("blocks", nblocks), ("nnz", nnz),
                        ("flops", 2 * nrhs * nnz), ("bytes.udp_to_cpu", 12 * nnz),
                        ("bytes.baseline", 12 * nnz)):
            _metric(f"{prefix}.{name}").inc(n)
        return y, PipelineStats(
            traffic=log,
            dram_bytes=0,
            baseline_dram_bytes=12 * nnz,
            dma_seconds=0.0,
            engine_stats=self.engine.stats.as_dict(),
            policy=self.policy,
            degraded_blocks=0,
            nrhs=nrhs,
        )

    def _cold_kwargs(self) -> dict:
        return dict(
            memory=self.memory,
            engine=self.engine,
            matrix_id=self.matrix_id,
            policy=self.policy,
        )

    def _record_call(self, warm: bool, nblocks: int, seconds: float) -> None:
        metric = _metric
        self.calls += 1
        metric("session.calls").inc()
        if warm:
            self.warm_calls += 1
            self.blocks_reused += nblocks
            metric("session.warm_calls").inc()
            metric("session.blocks_reused").inc(nblocks)
        else:
            self.cold_calls += 1
            metric("session.cold_calls").inc()
        if self.reader is not None:
            skips = self.reader.crc_skips
            delta = skips - self._crc_skips_seen
            if delta > 0:
                metric("session.crc_skips").inc(delta)
            self._crc_skips_seen = skips
        if self.engine.cache is not None:
            st = self.engine.cache.stats
            metric("session.hit_rate", "gauge").set(st.hit_rate)
            metric("session.resident_bytes", "gauge").set(st.current_bytes)
        metric("session.call_seconds", "histogram").observe(seconds)

    def _run(self, x, kernel, cold_fn, nrhs, out):
        if self._closed:
            raise RuntimeError("session is closed")
        start = time.perf_counter()
        if not self.reuse:
            self.reset()
        shape = (
            (self.plan.blocked.shape[0],)
            if nrhs == 1 and x.ndim == 1
            else (self.plan.blocked.shape[0], nrhs)
        )
        buf = self._claim_buffer(shape, out)
        # A cache that cleared or evicted since assembly goes cold.
        if self.warm and self.engine.cache.hit_all(self._keys, self._warm_changes):
            y, stats = self._warm_call(x, kernel, buf, nrhs)
            self._record_call(True, self.plan.nblocks, time.perf_counter() - start)
            return y, stats
        y, stats = cold_fn(buf)
        # The run goes warm once every block decoded cleanly into the
        # session cache: engine-backed, nothing degraded, no armed fault
        # plan. Degraded/faulted runs stay cold so each iteration re-pays
        # (and re-accounts) its stream honestly.
        if (
            self.reuse
            and self.engine.cache is not None
            and stats.degraded_blocks == 0
            and faults.active() is None
        ):
            self._assemble()
        else:
            self._warm_blocked = None
        self._record_call(False, self.plan.nblocks, time.perf_counter() - start)
        return y, stats

    # -- public ops --------------------------------------------------------

    def spmv(
        self, x: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, PipelineStats]:
        """``y = A @ x`` with steady-state reuse. Returns ``(y, stats)``;
        ``y`` is the session buffer unless ``out`` is passed."""
        source = self.reader if self.reader is not None else self.plan

        def cold(buf):
            return recoded_spmv(source, x, out=buf, **self._cold_kwargs())

        return self._run(x, spmv_blocked, cold, 1, out)

    def spmm(
        self, x: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, PipelineStats]:
        """Fused ``Y = A @ X`` for ``k`` right-hand sides over the session."""
        x = np.ascontiguousarray(x, dtype=VALUE_DTYPE)
        if x.ndim != 2 or x.shape[0] != self.plan.blocked.shape[1]:
            raise ValueError(
                f"X must have shape ({self.plan.blocked.shape[1]}, k), got {x.shape}"
            )
        source = self.reader if self.reader is not None else self.plan

        def cold(buf):
            return recoded_spmm(source, x, out=buf, **self._cold_kwargs())

        return self._run(x, spmm_blocked, cold, int(x.shape[1]), out)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Cumulative session counters (steady-state observability)."""
        cache = self.engine.cache.stats if self.engine.cache is not None else None
        return {
            "matrix_id": self.matrix_id,
            "calls": self.calls,
            "warm_calls": self.warm_calls,
            "cold_calls": self.cold_calls,
            "blocks_reused": self.blocks_reused,
            "out_buffer_reuses": self.out_reuses,
            "crc_skips": self.reader.crc_skips if self.reader is not None else 0,
            "cache_hits": cache.hits if cache else 0,
            "cache_misses": cache.misses if cache else 0,
            "cache_hit_rate": cache.hit_rate if cache else 0.0,
            "resident_bytes": cache.current_bytes if cache else 0,
            "engine": self.engine.stats.as_dict(),
        }
