"""Functional end-to-end recoded SpMV/SpMM (paper Figs. 6-7).

``y = A @ x`` where A lives in DRAM as a DSH-compressed block plan:

1. the DMA engine streams each block's compressed records into UDP local
   memory (traffic edge ``dram -> udp``);
2. the UDP recodes them back to raw CSR block streams (``recode(DSH_unpack,
   ...)`` in the paper's listing) — functionally here, with an option to
   run the actual cycle-level UDP programs;
3. the CPU multiplies the block (traffic edge ``udp -> cpu``).

Every run is the same tiled loop (the blocked kernel with a ``recode``
hook in front of each multiply, Fig. 7); the hook gets block *i* from
one of two decoders (see :mod:`repro.core.executor`):

* with an ``engine``, off one
  :class:`~repro.codecs.engine.RecodeEngine` decode handle for the whole
  run, which decodes it inline (or finds it in the engine's cache) when
  asked;
* without one, straight from the plan's records (or through the
  cycle-level UDP programs).

Except under the UDP simulator, a run decodes and multiplies a span of
blocks per native call instead (:func:`~repro.core.executor.run_spans`),
caching them, and multiplies runs of cached blocks straight from the
cache; only a block the call stops at or may not take goes through the
hook, and an engine run's handle still accounts every block.

Result vector, TrafficLog byte totals, ``dma_seconds``, degraded-block
accounting, and raised errors are bit-identical either way.

:func:`recoded_spmm` fuses multiple right-hand sides: each block is
streamed and decoded **once** and multiplied against all ``k`` columns,
so A-traffic is paid once instead of ``k`` times.

Besides the numerically verified result, the run produces a
:class:`PipelineStats` whose traffic log proves the headline byte claim:
DRAM traffic for A shrinks by the compression ratio.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from os import PathLike

import numpy as np

from repro import obs
from repro.codecs.container import ContainerReader
from repro.codecs.engine import RecodeEngine
from repro.codecs.pipeline import DecodeRun, MatrixCompression
from repro.core.executor import RecodeHook, run_pipelined, run_spans, serial_decoder
from repro.memsys.dram import DDR4_100GBS, MemorySystem
from repro.memsys.traffic import TrafficLog
# ``spmm_blocked`` is unused here; perfbench's ledger patches the name.
from repro.sparse.spmm import operands as spmm_operands, spmm_blocked  # noqa: F401
from repro.sparse.spmv import operands as spmv_operands, spmv_blocked

#: ``mode=`` values :func:`recoded_spmv` / :func:`recoded_spmm` accept.
#: Both run the same executor; the argument is kept for perfbench.
MODES = ("serial", "pipelined")


def _prefix_counters(_reg, prefix: str) -> obs.BoundMetrics:
    """``{prefix}.*`` counters by name, each created on first use."""
    return obs.BoundMetrics(lambda reg, name: reg.counter(f"{prefix}.{name}"))


#: A run's ``{prefix}.*`` counters, bound once per prefix and registry.
_RUN_COUNTERS = obs.BoundMetrics(_prefix_counters)


@dataclass(frozen=True)
class PipelineStats:
    """Byte accounting for one recoded SpMV/SpMM."""

    traffic: TrafficLog
    dram_bytes: int
    baseline_dram_bytes: int
    dma_seconds: float
    #: Snapshot of the recode engine's cumulative counters (blocks decoded,
    #: cache hits, MB/s, ...) when one drove the decode; else None.
    engine_stats: dict | None = None
    #: Failure policy the run executed under (``strict`` | ``degrade``).
    policy: str = "strict"
    #: Blocks whose decode failed and were substituted from the retained
    #: raw CSR partition (``degrade`` policy only). The result is still
    #: bit-exact — the substitution streams raw bytes, costing compression
    #: benefit, not correctness.
    degraded_blocks: int = 0
    #: The ``mode=`` the run was given (``serial`` | ``pipelined``),
    #: echoed; it selects no code.
    mode: str = "serial"
    #: Right-hand-side count: 1 for SpMV, ``k`` for fused SpMM.
    nrhs: int = 1
    #: Out-of-core measurements when the run streamed an mmap-backed
    #: container (bytes mapped, pages touched); None for in-memory plans.
    oocore: dict | None = None

    @property
    def traffic_ratio(self) -> float:
        """Compressed DRAM traffic / baseline (≈ bytes_per_nnz / 12).

        Degraded blocks stream their raw CSR bytes and are counted, so a
        degraded run honestly reports its reduced compression benefit.
        """
        if self.baseline_dram_bytes == 0:
            return 1.0
        return self.dram_bytes / self.baseline_dram_bytes


def _validate(policy: str, mode: str, engine, use_udp_simulator: bool) -> None:
    if policy not in ("strict", "degrade"):
        raise ValueError(f"policy must be 'strict' or 'degrade', got {policy!r}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "pipelined":
        if engine is None:
            raise ValueError("mode='pipelined' requires a RecodeEngine")
        if use_udp_simulator:
            raise ValueError(
                "mode='pipelined' cannot run the cycle-level UDP simulator; "
                "use mode='serial' with use_udp_simulator=True"
            )


def _resolve(
    plan: "MatrixCompression | ContainerReader | str | PathLike",
) -> tuple[MatrixCompression, ContainerReader | None, bool]:
    """Normalize the ``plan`` argument to ``(plan, reader, owned_reader)``.

    A path opens a lazy-verify :class:`ContainerReader` that the run owns
    (and closes); a reader is borrowed; an in-memory plan passes through.
    """
    if isinstance(plan, MatrixCompression):
        return plan, None, False
    if isinstance(plan, ContainerReader):
        return plan.plan(), plan, False
    if isinstance(plan, (str, PathLike)):
        reader = ContainerReader(plan, verify="lazy")
        return reader.plan(), reader, True
    raise TypeError(
        "plan must be a MatrixCompression, a ContainerReader, or a .dsh "
        f"path, got {type(plan).__name__}"
    )


def _execute(
    plan: MatrixCompression,
    x: np.ndarray,
    *,
    memory: MemorySystem,
    use_udp_simulator: bool,
    engine: RecodeEngine | None,
    matrix_id: str,
    policy: str,
    mode: str,
    prefix: str,
    nrhs: int,
    reader: ContainerReader | None = None,
    cancel=None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, PipelineStats]:
    """Shared executor body for recoded SpMV (``prefix="spmv"``, 1-D ``x``)
    and fused SpMM (``prefix="spmm"``, 2-D ``x``) on the fused route (a UDP
    simulator run on the blocked SpMV kernel); ``engine`` picks the decoder.

    ``out`` is an optional preallocated accumulator (zero-filled by the
    kernel) that sessions reuse across iterations; results are
    bit-identical with or without it.
    """
    _validate(policy, mode, engine, use_udp_simulator)
    pages_before = reader.pages_touched if reader is not None else 0
    log = TrafficLog()
    start = time.perf_counter()
    engine_backed = engine is not None and not use_udp_simulator
    if engine_backed:
        decode = run_pipelined(plan, engine, matrix_id)
        run = decode.run
    else:
        # Spans end before blocks an armed fault plan touches where this
        # run streams (DRAM); the per-block route decodes one at a time.
        run = DecodeRun(plan, ("dram",), lambda i, _: i + 1)
        decode = serial_decoder(plan, use_udp_simulator, run)
    hook = RecodeHook(
        plan,
        memory=memory,
        log=log,
        decode=decode,
        run=None if use_udp_simulator else run,
        # degrade substitutes the retained CSR partition of an in-memory
        # plan, or decodes the pristine mapped records of a streamed one.
        raw_block=(
            plan.decompress_block if reader is not None
            else lambda i: plan.blocked.blocks[i]
        ),
        policy=policy,
        cancel=cancel,
        prefix=prefix,
    )
    try:
        with obs.trace(
            f"{prefix}.recoded", nblocks=plan.nblocks, matrix=matrix_id, mode=mode
        ):
            if not use_udp_simulator:
                x, y = (spmv_operands if prefix == "spmv" else spmm_operands)(
                    plan.blocked.shape, x, out)
                # The op writes rows in place, so it needs them contiguous.
                acc = y if y.flags.c_contiguous else np.zeros(y.shape)
                multiply_s = run_spans(plan, x, acc, hook, run, decode if engine_backed else None)
                if acc is not y:
                    y[...] = acc
            else:
                y = spmv_blocked(plan.blocked, x, recode=hook, out=out)
    finally:
        if engine_backed:
            decode.close()
        hook.charge()
        run.flush()

    oocore_info = None
    if reader is not None:
        oocore_info = {
            "mapped_bytes": reader.nbytes,
            "pages_touched": reader.pages_touched - pages_before,
        }
    dma_seconds = hook.dma_seconds
    stats = PipelineStats(
        traffic=log,
        dram_bytes=log.bytes_on("dram", "udp") + log.bytes_on("dram", "cpu"),
        baseline_dram_bytes=12 * plan.nnz,
        dma_seconds=dma_seconds,
        engine_stats=engine.stats.as_dict() if engine is not None else None,
        policy=policy,
        degraded_blocks=hook.degraded,
        mode=mode,
        nrhs=nrhs,
        oocore=oocore_info,
    )
    counters = _RUN_COUNTERS[prefix]
    if oocore_info is not None:
        counters["oocore.runs"].inc()
        counters["oocore.bytes_mapped"].inc(oocore_info["mapped_bytes"])
        counters["oocore.pages_touched"].inc(oocore_info["pages_touched"])
    counters["iterations"].inc()
    counters["blocks"].inc(plan.nblocks)
    counters["nnz"].inc(plan.nnz)
    counters["flops"].inc(2 * nrhs * plan.nnz)
    counters["bytes.dram_to_udp"].inc(log.bytes_on("dram", "udp"))
    counters["bytes.udp_to_cpu"].inc(log.bytes_on("udp", "cpu"))
    counters["bytes.baseline"].inc(stats.baseline_dram_bytes)
    counters["dma_seconds"].inc(dma_seconds)
    if not (use_udp_simulator or engine_backed):  # an engine run books it as decode idle
        counters["multiply_seconds"].inc(multiply_s)
    if hook.degraded:
        counters["degraded_iterations"].inc()
    reg = obs.registry()
    reg.gauge(f"{prefix}.traffic_ratio").set(stats.traffic_ratio)
    reg.histogram(f"{prefix}.seconds").observe(time.perf_counter() - start)
    return y, stats


def recoded_spmv(
    plan: "MatrixCompression | ContainerReader | str | PathLike",
    x: np.ndarray,
    memory: MemorySystem = DDR4_100GBS,
    use_udp_simulator: bool = False,
    engine: RecodeEngine | None = None,
    matrix_id: str = "",
    policy: str = "strict",
    mode: str = "serial",
    cancel=None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, PipelineStats]:
    """Execute ``y = A @ x`` over the compressed plan.

    Args:
        plan: compressed matrix — an in-memory
            :class:`~repro.codecs.pipeline.MatrixCompression`, an open
            :class:`~repro.codecs.container.ContainerReader`, or a ``.dsh``
            path (opened lazily-verified and mmap-streamed; the run owns
            and closes the mapping).
        x: dense input vector.
        memory: memory system for DMA timing/energy.
        use_udp_simulator: decode blocks with the cycle-level UDP programs
            (slow, bit-exact) instead of the functional decoders.
            ``mode="serial"`` only.
        engine: route block decodes through a
            :class:`~repro.codecs.engine.RecodeEngine`. With a cache
            attached, iterative solvers (PageRank, heat stepping) hit
            already-decoded blocks — the software analogue of the paper's
            steady-state UDP loop — and the returned stats carry the
            engine's counters. Ignored when ``use_udp_simulator`` is set.
        matrix_id: cache namespace for this matrix (pass a stable name when
            re-running SpMV over the same plan).
        policy: what a block decode failure does. ``"strict"`` (default)
            raises the underlying
            :class:`~repro.codecs.errors.BlockDecodeError` naming the
            block. ``"degrade"`` substitutes the failed block from the
            plan's retained raw CSR partition — the result stays
            bit-exact; the substituted block just streams uncompressed
            (counted in ``stats.degraded_blocks`` and the traffic ratio).
        mode: ``"serial"`` or ``"pipelined"``; kept for perfbench, which
            passes ``mode="pipelined"``. It is validated
            (``"pipelined"`` requires ``engine`` and refuses
            ``use_udp_simulator``) and echoed in ``stats.mode``, but
            selects no code: every engine-backed run reads its blocks off
            one engine decode handle.
        cancel: optional zero-arg callable polled once per block (a
            span's blocks after its first once it is decoded: up to one
            span late); True abandons the run with
            :class:`~repro.core.executor.RunCancelled` (the serve layer's
            deadline, to stop further decode/DMA time).
        out: optional preallocated ``(nrows,)`` float64 accumulator,
            zero-filled and returned as ``y`` — lets iterative callers
            (:class:`~repro.core.session.ExecutionSession`) reuse one
            buffer across calls with bit-identical results.

    Returns:
        ``(y, stats)``.
    """
    plan, reader, owned = _resolve(plan)
    try:
        return _execute(
            plan,
            x,
            memory=memory,
            use_udp_simulator=use_udp_simulator,
            engine=engine,
            matrix_id=matrix_id,
            policy=policy,
            mode=mode,
            prefix="spmv",
            nrhs=1,
            reader=reader,
            cancel=cancel,
            out=out,
        )
    finally:
        if owned:
            reader.close()


def recoded_spmm(
    plan: "MatrixCompression | ContainerReader | str | PathLike",
    x: np.ndarray,
    memory: MemorySystem = DDR4_100GBS,
    engine: RecodeEngine | None = None,
    matrix_id: str = "",
    policy: str = "strict",
    mode: str = "serial",
    cancel=None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, PipelineStats]:
    """Execute fused ``Y = A @ X`` for ``k`` right-hand sides.

    Each block is streamed from DRAM and decoded exactly **once**, then
    multiplied against all ``k`` columns of ``X`` — so the A-side DRAM
    traffic (and decode work) of a ``k``-column multiply equals one SpMV's,
    instead of ``k`` separate SpMVs'. Column ``j`` of the result is
    bit-identical to ``recoded_spmv(plan, X[:, j])``.

    Accepts the same ``engine`` / ``matrix_id`` / ``policy`` / ``mode`` /
    ``cancel`` knobs (and the same polymorphic ``plan``) as
    :func:`recoded_spmv`; metrics are recorded under the ``spmm.*`` prefix
    with ``flops = 2 * k * nnz``.

    Returns:
        ``(Y, stats)`` with ``Y.shape == (nrows, k)`` and
        ``stats.nrhs == k``.
    """
    plan, reader, owned = _resolve(plan)
    try:
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != plan.blocked.shape[1]:
            raise ValueError(
                f"X must have shape ({plan.blocked.shape[1]}, k), got {x.shape}"
            )
        return _execute(
            plan,
            x,
            memory=memory,
            use_udp_simulator=False,
            engine=engine,
            matrix_id=matrix_id,
            policy=policy,
            mode=mode,
            prefix="spmm",
            nrhs=int(x.shape[1]),
            reader=reader,
            cancel=cancel,
            out=out,
        )
    finally:
        if owned:
            reader.close()
