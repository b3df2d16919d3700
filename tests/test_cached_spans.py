"""Every recoded run but a UDP simulator one takes the fused route.

A run decodes and multiplies each span of blocks (with a decoded-block
cache, of cache misses) in one ``dsh_spmv_span`` call, putting every
decoded block in the cache, and multiplies each run of cached blocks
straight from the cache; ``cancel`` is polled once per block either way.
The oracle is the per-block route: the recode hook in front of every
block, taking each off the engine's decode handle or decoding it itself
(``run_spans`` patched to that loop). A fused run, with no engine, a
cache-less one or a cached one, must equal it on every backend — result
bytes, ``dma_seconds``, the traffic log, degraded blocks, pages touched,
a borrowed reader's CRC skips, the error raised (type, message, block)
or the block a cancel stopped at, the run's cache hits, misses and
evictions, the cache's LRU order, the engine's decoded blocks and
quarantine, and the ``codecs.decode.*``, ``kernels.dispatch``,
``faults.*`` and ``memsys.*`` telemetry — and every cached payload must
be byte-identical to ``plan.decompress_block(i)``.
"""

import hashlib
import pathlib
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from repro import kernels, obs
from repro.codecs.container import ContainerReader, save_plan
from repro.codecs.engine import AsyncDecode, DecodedBlockCache, RecodeEngine, plan_fingerprint
from repro.codecs.errors import BlockDecodeError, ContainerError
from repro.codecs.pipeline import SPAN, compress_matrix
from repro.collection import generators
from repro.core import RunCancelled, recoded_spmm, recoded_spmv, spmv_pipeline
from repro.core.executor import RecodeHook, multiply_block
from repro.faults import FaultPlan
from tests.test_span_decode import _flip_record_byte, _undecodable
from tests.test_span_multiply import _with_column

BACKENDS = kernels.available_backends()
WHERE = (0, SPAN // 2, SPAN - 1)  # first, middle and last block of a span
MATRIX = "m"


@pytest.fixture(scope="module")
def plans(tmp_path_factory):
    plan = compress_matrix(generators.banded(800, bandwidth=4, seed=3), block_bytes=1024)
    assert SPAN + 8 < plan.nblocks < 2 * SPAN
    path = tmp_path_factory.mktemp("cached") / "m.dsh"
    save_plan(plan, path)
    return plan, str(path)


@pytest.fixture(scope="module")
def path(plans):
    return pathlib.Path(plans[1])


def _rhs(plan, k=None):
    rng = np.random.default_rng(5)
    n = plan.blocked.shape[1]
    return rng.standard_normal(n) if k is None else rng.standard_normal((n, k))


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _per_block(plan, x, out, hook, run, decoder=None):
    """The per-block route: the hook in front of every block."""
    for _ in range(plan.nblocks):
        multiply_block(hook(None), x, out)
    return 0.0


def _key(plan, i):
    return (MATRIX, i, plan_fingerprint(plan))


def _put(plan, engine, blocks):
    for i in blocks:
        engine.cache.put(_key(plan, i), plan.decompress_block(i))


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


def _engine(plan, state: str, quarantined=()) -> RecodeEngine | None:
    if state == "none":
        return None
    if state == "cache-less":
        engine = RecodeEngine(retry_base_s=0.0)
        engine.quarantined = {(MATRIX, plan_fingerprint(plan), i) for i in quarantined}
        return engine
    kwargs, resident = STATES[state]
    engine = RecodeEngine(cache=DecodedBlockCache(**kwargs(plan)), retry_base_s=0.0)
    _put(plan, engine, resident(plan))
    engine.quarantined = {(MATRIX, plan_fingerprint(plan), i) for i in quarantined}
    return engine


def _resident(plan, cache) -> list:
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
    blocks, as far as ``engine`` has them."""
    if engine is None:
        return ()
    st = engine.cache.stats if engine.cache is not None else None
    cached = () if st is None else (st.hits, st.misses, st.evictions)
    return (*cached, engine.stats.blocks_decoded)


def _observe(plan, source, x, backend, engine, per_block=False, cancel_at=None, **kwargs):
    """Everything a run on ``engine`` (or none) reports, or the error it
    raises; with ``cancel_at``, its ``cancel`` fires on that block's poll.
    A callable ``source`` opens a reader, whose CRC skips count too."""
    fn = recoded_spmv if x.ndim == 1 else recoded_spmm
    if cancel_at is not None:
        polls = []
        kwargs["cancel"] = lambda: polls.append(1) or len(polls) > cancel_at
    before = _tallies(engine)
    route = _per_block if per_block else spmv_pipeline.run_spans
    src = source() if callable(source) else source
    with mock.patch.object(spmv_pipeline, "run_spans", side_effect=route) as op, \
            obs.scoped_registry() as reg, kernels.use_backend(backend):
        try:
            y, st = fn(src, x, engine=engine, matrix_id=MATRIX, **kwargs)
            seen = (_sha(y), st.dma_seconds.hex(), sorted(st.traffic.edges().items()),
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
        if rec["name"].startswith(("codecs.decode.", "kernels.dispatch", "faults.", "memsys."))
        and rec["name"] != "codecs.decode.stage_seconds"
    }
    cache = engine.cache if engine is not None else None
    return (seen, counts, tuple(b - a for a, b in zip(before, _tallies(engine))),
            _resident(plan, cache) if cache is not None else [],
            sorted(q[2] for q in engine.quarantined) if engine is not None else [])


def _assert_parity(plan, source, x, state, quarantined=(), **kwargs):
    """A fused run equals the per-block route's from the same cache state,
    on every backend; returns the fused run's observation."""
    for backend in BACKENDS:
        fused = _observe(plan, source, x, backend, _engine(plan, state, quarantined), **kwargs)
        oracle = _observe(plan, source, x, backend, _engine(plan, state, quarantined),
                          per_block=True, **kwargs)
        assert fused == oracle, backend
    return fused


@pytest.mark.parametrize("k", [None, 4], ids=["spmv", "spmm4"])
@pytest.mark.parametrize("state", sorted(STATES))
def test_cache_states(plans, state, k):
    plan, path = plans
    x = _rhs(plan, k)
    want = recoded_spmv(plan, x)[0] if k is None else recoded_spmm(plan, x)[0]
    for source in (plan, path):
        seen, _, (hits, misses, evictions, decoded), resident, _ = _assert_parity(
            plan, source, x, state)
        assert seen[0] == _sha(want)
        assert hits + misses == plan.nblocks and decoded == misses
        if state == "own-evictions":
            assert evictions > 0 and 0 < len(resident) < plan.nblocks
        elif state != "resident":
            assert misses and len(resident) == plan.nblocks


@pytest.mark.parametrize("state", sorted(STATES))
def test_a_clean_run_takes_no_block_through_the_hook(plans, monkeypatch, state):
    """Misses go through the op and hits through the cache loop, with or
    without ``cancel``: neither the hook nor the handle hands out a block."""
    plan, path = plans

    def per_block(*_):
        raise AssertionError("a block took the per-block route")

    monkeypatch.setattr(RecodeHook, "__call__", per_block)
    monkeypatch.setattr(AsyncDecode, "__next__", per_block)
    for source in (plan, path):
        for cancel in (None, lambda: False):
            recoded_spmm(source, _rhs(plan, 2), engine=_engine(plan, state), matrix_id=MATRIX,
                         cancel=cancel)


def test_threads_share_one_cache_and_matrix(plans):
    """The serve layer's compute threads, more of them than cores and
    switching often: each run's result is the lone run's, every cached
    payload a decode of its block, and (a cache that evicts nothing)
    every block probed once a run."""
    plan, path = plans
    x = _rhs(plan)
    want = _sha(recoded_spmv(plan, x)[0])
    nthreads, interval = 4, sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for state, runs in (("empty", 3), ("every-other", 3), ("own-evictions", 4)):
            engine = _engine(plan, state)
            barrier, seen = threading.Barrier(nthreads), []

            def work():
                barrier.wait(timeout=60)
                for _ in range(runs):
                    y = recoded_spmv(path, x, engine=engine, matrix_id=MATRIX)[0]
                    seen.append(_sha(y))

            threads = [threading.Thread(target=work) for _ in range(nthreads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads), state
            assert seen == [want] * nthreads * runs, state
            _resident(plan, engine.cache)
            st = engine.cache.stats
            assert st.hits + st.misses == nthreads * runs * plan.nblocks, state
            totals = engine.stats.as_dict()
            assert totals["cache_hits"] + totals["cache_misses"] == st.hits + st.misses, state
    finally:
        sys.setswitchinterval(interval)


def _thief(plan, engine, block: int, recache: bool):
    """Have ``engine``'s cache ``get`` of ``block`` find it just evicted, as
    if by another thread, which with ``recache`` caches it again after."""
    cache, real, fired = engine.cache, engine.cache.get, []

    def get(key):
        if key[1] != block or fired:
            return real(key)
        fired.append(key)
        with cache._lock:
            if key in cache._entries:
                cache._drop(key)
        got = real(key)
        if recache:
            cache.put(key, plan.decompress_block(block))
        return got

    cache.get = get
    return fired


@pytest.mark.parametrize("case", ["evicted", "recached", "quarantined"])
@pytest.mark.parametrize("where", WHERE)
def test_a_block_evicted_mid_run_is_probed_once(plans, where, case):
    """A run of hits whose block another thread evicts before its ``get``
    takes that block on the per-block route, as a miss, probed once."""
    plan, path = plans
    quarantined = (where,) if case == "quarantined" else ()
    for source in (plan, path):
        for backend in BACKENDS:
            seen = []
            for per_block in (False, True):
                engine = _engine(plan, "resident", quarantined)
                fired = _thief(plan, engine, where, case == "recached")
                seen.append(_observe(plan, source, _rhs(plan), backend, engine,
                                     per_block=per_block, policy="degrade"))
                assert fired, per_block
            assert seen[0] == seen[1], (backend, case)
            result, _, (hits, misses, _, decoded), *_ = seen[0]
            assert (hits, misses) == (plan.nblocks - 1, 1)
            assert (decoded, result[3]) == ((0, 1) if quarantined else (1, 0))


@pytest.mark.parametrize("policy", ["strict", "degrade"])
@pytest.mark.parametrize("fault", ["bitflip", "dram_bitflip", "latency"])
@pytest.mark.parametrize("where", WHERE)
def test_fault_plans(plans, monkeypatch, fault, where, policy):
    """A block a record, DRAM or latency fault touches, cached or not,
    takes the per-block route, with its retries, quarantine and latency."""
    plan, path = plans
    if fault == "latency":
        monkeypatch.setattr(FaultPlan, "_delays", lambda self, i: i == where)
        faults = FaultPlan(seed=2, latency_s=1e-4)
    else:
        faults = FaultPlan(seed=2, **{f"{fault}_blocks": (where, where + 1)})
    for source in (plan, path):
        with faults.activate():
            seen, counts, *_ = _assert_parity(plan, source, _rhs(plan), "every-other",
                                              policy=policy)
        if fault == "latency":  # a cached block is not decoded
            assert counts.get("faults.injected.latency_events", 0) == where % 2
        elif policy == "strict":  # a record fault misses a cached block
            assert seen[2] == (where + 1 - where % 2 if fault == "bitflip" else where)


@pytest.mark.parametrize("k", [None, 4], ids=["spmv", "spmm4"])
@pytest.mark.parametrize("policy", ["strict", "degrade"])
def test_quarantine_hits(plans, policy, k):
    """A quarantined block fails at once unless it is cached, when the hit
    wins, as on the per-block route."""
    plan, path = plans
    bad = (0, SPAN // 2, SPAN // 2 + 1, SPAN - 1)
    for source in (plan, path):
        seen, counts, *_ = _assert_parity(plan, source, _rhs(plan, k), "every-other",
                                          quarantined=bad, policy=policy)
        hits = counts["faults.quarantine_hits"]
        if policy == "strict":
            assert (hits, seen[2]) == (1, SPAN // 2 + 1)
        else:
            assert (hits, seen[3]) == (2, 2)


@pytest.mark.parametrize("state", ["empty", "resident", "every-other"])
@pytest.mark.parametrize("where", (*WHERE, SPAN))
def test_cancel_stops_at_its_block(plans, state, where):
    """``cancel`` fires on block ``where``'s poll: the run counts and caches
    the blocks before it, and nothing after."""
    plan, path = plans
    for source in (plan, path):
        seen, counts, (hits, misses, _, decoded), resident, _ = _assert_parity(
            plan, source, _rhs(plan), state, cancel_at=where)
        assert seen[0] is RunCancelled and seen[3] == where
        assert hits + misses == where and decoded == misses
        assert counts.get("codecs.decode.records", 0) == 2 * decoded


# ---------------------------------------------------------------------------
# Runs without a decoded-block cache, and bad records under every cache
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [None, 4], ids=["spmv", "spmm4"])
@pytest.mark.parametrize("state", UNCACHED)
def test_uncached_runs(plans, path, state, k):
    plan = plans[0]
    x = _rhs(plan, k)
    want = recoded_spmv(plan, x)[0] if k is None else recoded_spmm(plan, x)[0]
    for source in (plan, str(path), lambda: ContainerReader(path, verify="lazy")):
        seen, counts, *_ = _assert_parity(plan, source, x, state)
        assert seen[0] == _sha(want)
        assert sum(n for key, n in counts.items()
                   if key.startswith("kernels.dispatch")) == plan.nblocks


@pytest.mark.parametrize("policy", ["strict", "degrade"])
@pytest.mark.parametrize("fault", ["bitflip", "truncate", "latency"])
@pytest.mark.parametrize("where", WHERE)
def test_uncached_record_and_latency_faults(plans, path, monkeypatch, fault, where, policy):
    """A block a record-site or latency fault touches takes the per-block
    route, with a cache-less engine's retries, quarantine and latency."""
    plan = plans[0]
    if fault == "latency":
        monkeypatch.setattr(FaultPlan, "_delays", lambda self, i: i == where)
        faults = FaultPlan(seed=2, latency_s=1e-4)
    else:
        faults = FaultPlan(seed=2, **{f"{fault}_blocks": (where,)})
    for state in UNCACHED:
        for source in (plan, lambda: ContainerReader(path, verify="lazy")):
            with faults.activate():
                seen, counts, *_, quarantined = _assert_parity(
                    plan, source, _rhs(plan), state, policy=policy)
            if state == "none":
                continue
            if fault == "latency":
                assert counts["faults.injected.latency_events"] == 1 and not quarantined
            else:
                assert quarantined == [where] and counts["faults.retries"] == 2
                assert (seen[2] == where) if policy == "strict" else (seen[3] == 1)


@pytest.mark.parametrize("policy", ["strict", "degrade"])
@pytest.mark.parametrize("where", WHERE)
def test_record_crc_mismatch(plans, path, tmp_path, where, policy):
    """A mapped record failing its CRC raises at its block. A cached run
    raises the same sooner: fingerprinting the plan reads every record."""
    plan = plans[0]
    bad = _flip_record_byte(path, where, tmp_path)
    want = (ContainerError, "container corruption: record CRC mismatch")
    for state in UNCACHED:
        source = lambda: ContainerReader(bad, verify="lazy")  # noqa: E731
        seen = _assert_parity(plan, source, _rhs(plan), state, policy=policy)[0]
        assert seen[:3] == (*want, None)
    with ContainerReader(bad, verify="lazy") as reader, pytest.raises(want[0]) as info:
        recoded_spmv(reader, _rhs(plan), engine=_engine(plan, "empty"), matrix_id=MATRIX)
    assert str(info.value) == want[1]


@pytest.mark.parametrize("policy", ["strict", "degrade"])
@pytest.mark.parametrize("where", WHERE)
def test_undecodable_record(plans, tmp_path, where, policy):
    """Stored bytes that do not decode fail (strict) or degrade exactly
    their block; a mapped one re-decodes the same bytes to degrade."""
    bad = _undecodable(plans[0], where)
    path = tmp_path / "bad.dsh"
    save_plan(bad, path)
    for state in (*UNCACHED, "empty"):
        for source in (bad, str(path)):
            seen = _assert_parity(bad, source, _rhs(bad), state, policy=policy)[0]
            if policy == "strict":
                assert seen[0] is BlockDecodeError and seen[2] == where
            elif source is bad:
                assert seen[3] == 1


@pytest.mark.parametrize("where", WHERE)
def test_column_outside_x(plans, where):
    """A column past ``x`` raises numpy's IndexError, as the per-block
    route's multiply does; a negative one wraps there, and must here."""
    plan = plans[0]
    ncols = plan.blocked.shape[1]
    for column in (ncols + 3, -2):
        bad = _with_column(plan, where, column)
        for k in (None, 4):
            for state in (*UNCACHED, "empty"):
                seen = _assert_parity(bad, bad, _rhs(bad, k), state)[0]
                if column > 0:
                    assert seen[0] is IndexError and str(ncols + 3) in seen[1]
                else:
                    assert isinstance(seen[0], str)


def test_dram_faults_degrade_the_blocks_they_touch(plans, path):
    plan = plans[0]
    x = _rhs(plan)
    want = _sha(recoded_spmv(plan, x)[0])
    fault = FaultPlan(seed=5, dram_bitflip_rate=0.1)
    for state in (*UNCACHED, "every-other"):
        for source in (plan, str(path)):
            with fault.activate():
                seen = _assert_parity(plan, source, x, state, policy="degrade")[0]
            assert seen[0] == want and seen[3] > 0


@pytest.mark.parametrize("state", UNCACHED)
@pytest.mark.parametrize("where", (*WHERE, SPAN))
def test_uncached_cancel_stops_at_its_block(plans, state, where):
    plan, path = plans
    for source in (plan, path):
        seen, counts, tallies, *_ = _assert_parity(plan, source, _rhs(plan), state,
                                                   cancel_at=where)
        assert seen[0] is RunCancelled and seen[3] == where
        assert counts.get("codecs.decode.records", 0) == 2 * where
        assert tallies == (() if state == "none" else (where,))
