"""The per-block route, the oracle of the fused one.

:func:`repro.core.executor.run_blocks` is the paper's tiled loop: the
recode hook in front of every block's multiply, each block taken off an
engine's decode handle or decoded by the run itself. UDP simulator runs
take it; :func:`per_block_route` makes every other run take it instead
of the fused :func:`~repro.core.executor.run_spans`. :func:`multiply_blocks`
is the reference multiply of blocks already stored or decoded.

:func:`assert_parity` holds a fused run, with no engine (``"none"``), a
cache-less one or a cached one (:data:`STATES`), to the per-block route
from the same engine state on every backend: result bytes,
``dma_seconds``, the traffic log, degraded blocks, pages touched, a
borrowed reader's CRC skips, the error raised (type, message, block,
cause) or the block a cancel stopped at, the run's cache hits, misses and
evictions, the cache's LRU order, the engine's decoded blocks and bytes
and its quarantine, and the ``codecs.decode.*``, ``codec.mix.*``,
``kernels.dispatch``, ``faults.*`` and ``memsys.*`` telemetry; every
cached payload must be byte-identical to ``plan.decompress_block(i)``.
"""

import hashlib
from unittest import mock

import numpy as np

from repro import kernels, obs
from repro.codecs.container import ContainerReader
from repro.codecs.engine import DecodedBlockCache, RecodeEngine, plan_fingerprint
from repro.core import recoded_spmm, recoded_spmv, spmv_pipeline
from repro.core.executor import multiply_block, run_blocks

BACKENDS = kernels.available_backends()
MATRIX = "m"


def per_block_route():
    """Patch ``_execute``'s fused route to the per-block one (a context)."""
    return mock.patch.object(spmv_pipeline, "run_spans", run_blocks)


def multiply_blocks(blocked, x, out=None, decode=None) -> np.ndarray:
    """:func:`multiply_block` of each of ``blocked``'s blocks (or of
    ``decode(i)`` in its place) into ``out``, zeros when None, in order."""
    if out is None:
        out = np.zeros((blocked.shape[0], *x.shape[1:]))
    for i, block in enumerate(blocked.blocks):
        multiply_block(block if decode is None else decode(i), x, out)
    return out


def sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


#: Cache states a run starts from: ``(cache kwargs, resident blocks)``.
STATES = {
    "empty": (lambda plan: {}, lambda plan: ()),
    "resident": (lambda plan: {}, lambda plan: range(plan.nblocks)),
    "every-other": (lambda plan: {}, lambda plan: range(0, plan.nblocks, 2)),
    # One matrix may hold 40% of what it decodes to: the run evicts the
    # blocks resident at its start, and then its own.
    "own-evictions": (
        lambda plan: {"max_bytes": 12 * plan.nnz, "max_matrix_frac": 0.4},
        lambda plan: range(plan.nblocks),
    ),
}

#: Runs with no decoded-block cache: no engine, or a cache-less one.
UNCACHED = ("none", "cache-less")


def engine_for(plan, state: str, quarantined=()) -> RecodeEngine | None:
    """A fresh engine in ``state`` (``"none"``, ``"cache-less"`` or one of
    :data:`STATES`), with ``quarantined`` blocks of ``plan`` quarantined."""
    if state == "none":
        return None
    cache = None
    if state != "cache-less":
        kwargs, resident = STATES[state]
        cache = DecodedBlockCache(**kwargs(plan))
        for i in resident(plan):
            cache.put((MATRIX, i, plan_fingerprint(plan)), plan.decompress_block(i))
    engine = RecodeEngine(cache=cache, retry_base_s=0.0)
    engine.quarantined = {(MATRIX, plan_fingerprint(plan), i) for i in quarantined}
    return engine


def resident(plan, cache) -> list:
    """The cache's keys in LRU order, each payload checked against a
    decode of its block."""
    keys = list(cache._entries)
    for key in keys:
        block, want = cache._entries[key][0], plan.decompress_block(key[1])
        assert block.col_idx.tobytes() == want.col_idx.tobytes(), key
        assert block.val.tobytes() == want.val.tobytes(), key
        assert not (block.col_idx.flags.writeable or block.val.flags.writeable), key
    return keys


def _tallies(engine) -> tuple:
    """The cache's hits, misses and evictions and the engine's decoded
    blocks and bytes, as far as ``engine`` has them."""
    if engine is None:
        return ()
    st = engine.cache.stats if engine.cache is not None else None
    cached = () if st is None else (st.hits, st.misses, st.evictions)
    return (*cached, engine.stats.blocks_decoded, engine.stats.bytes_decoded)


def observe(plan, source, x, backend, engine, per_block=False, cancel_at=None, **kwargs):
    """Everything a run on ``engine`` (or none) reports, or the error it
    raises; with ``cancel_at``, its ``cancel`` fires on that block's poll.
    A callable ``source`` opens a reader, whose CRC skips count too."""
    fn = recoded_spmv if x.ndim == 1 else recoded_spmm
    if cancel_at is not None:
        polls = []
        kwargs["cancel"] = lambda: polls.append(1) or len(polls) > cancel_at
    before = _tallies(engine)
    route = run_blocks if per_block else spmv_pipeline.run_spans
    src = source() if callable(source) else source
    with mock.patch.object(spmv_pipeline, "run_spans", side_effect=route) as op, \
            obs.scoped_registry() as reg, kernels.use_backend(backend):
        try:
            y, st = fn(src, x, engine=engine, matrix_id=MATRIX, **kwargs)
            seen = (sha(y), st.dma_seconds.hex(), sorted(st.traffic.edges().items()),
                    st.degraded_blocks, st.oocore)
        except Exception as exc:  # compared, type included, against the oracle's
            seen = (type(exc), str(exc), getattr(exc, "block_id", None),
                    getattr(exc, "blocks_done", None), type(exc.__cause__),
                    str(exc.__cause__))
    if isinstance(src, ContainerReader):
        seen += (src.crc_skips,)
        src.close()
    assert op.call_count == 1, seen
    counts = {
        key: rec.get("value", rec.get("count")) for key, rec in reg.snapshot().items()
        if rec["name"].startswith(("codecs.decode.", "codec.mix.", "kernels.dispatch",
                                   "faults.", "memsys."))
        and rec["name"] != "codecs.decode.stage_seconds"
    }
    cache = engine.cache if engine is not None else None
    return (seen, counts, tuple(b - a for a, b in zip(before, _tallies(engine))),
            resident(plan, cache) if cache is not None else [],
            sorted(q[2] for q in engine.quarantined) if engine is not None else [])


def assert_parity(plan, source, x, state, quarantined=(), **kwargs):
    """A fused run equals the per-block route's from the same engine state,
    on every backend; returns the fused run's observation."""
    for backend in BACKENDS:
        fused = observe(plan, source, x, backend, engine_for(plan, state, quarantined),
                        **kwargs)
        oracle = observe(plan, source, x, backend, engine_for(plan, state, quarantined),
                         per_block=True, **kwargs)
        assert fused == oracle, backend
    return fused
