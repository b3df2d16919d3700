"""Every recoded run but a UDP simulator one takes the fused route.

A run decodes and multiplies each span of blocks (with a decoded-block
cache, of cache misses) in one ``dsh_spmv_span`` call, putting every
decoded block in the cache, and multiplies each run of cached blocks
straight from the cache; ``cancel`` is polled once per block either way.
The oracle is the per-block route (``run_spans`` patched to
``executor.run_blocks``, the recode hook in front of every block): a
fused run, with no engine, a cache-less one or a cached one, must equal
it on every backend in everything :func:`tests.per_block.assert_parity`
compares, and a planted bug in the fused route must make that
comparison fail.
"""

import pathlib
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from repro import kernels
from repro.codecs.container import ContainerReader, save_plan
from repro.codecs.engine import AsyncDecode
from repro.codecs.errors import BlockDecodeError, ContainerError
from repro.codecs.pipeline import SPAN, compress_matrix
from repro.collection import generators
from repro.core import RunCancelled, executor, recoded_spmm, recoded_spmv, spmv_pipeline
from repro.core.executor import RecodeHook
from repro.faults import FaultPlan
from tests.per_block import (
    BACKENDS, MATRIX, STATES, UNCACHED, assert_parity, engine_for, multiply_blocks, observe,
    resident, sha,
)
from tests.test_span_decode import _flip_record_byte, _undecodable
from tests.test_span_multiply import _with_column

WHERE = (0, SPAN // 2, SPAN - 1)  # first, middle and last block of a span


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


@pytest.mark.parametrize("k", [None, 4], ids=["spmv", "spmm4"])
@pytest.mark.parametrize("state", sorted(STATES))
def test_cache_states(plans, state, k):
    plan, path = plans
    x = _rhs(plan, k)
    want = multiply_blocks(plan.blocked, x)
    for source in (plan, path):
        seen, _, (hits, misses, evictions, decoded, _), cached, _ = assert_parity(
            plan, source, x, state)
        assert seen[0] == sha(want)
        assert hits + misses == plan.nblocks and decoded == misses
        if state == "own-evictions":
            assert evictions > 0 and 0 < len(cached) < plan.nblocks
        elif state != "resident":
            assert misses and len(cached) == plan.nblocks


def _planted_run_spans(plan, x, out, *rest):
    """``run_spans`` with a planted bug: its span op adds 1.0 to ``out[0]``
    after each call."""
    def plus_one(op):
        def planted(*args):
            result = op(*args)
            out[0] += 1.0
            return result
        return planted

    impls = kernels.REGISTRY._impls
    with mock.patch.dict(impls, {key: plus_one(op) for key, op in impls.items()
                                 if key[0] == "dsh_spmv_span"}):
        return executor.run_spans(plan, x, out, *rest)


@pytest.mark.parametrize("state", [*UNCACHED, "empty"])
def test_the_oracle_catches_a_planted_fused_route_bug(plans, monkeypatch, state):
    """A fused route that gets ``y`` wrong fails the parity assertion, with
    no engine, a cache-less one and a cached one: the oracle is not the
    fused route itself."""
    plan, path = plans
    monkeypatch.setattr(spmv_pipeline, "run_spans", _planted_run_spans)
    for source in (plan, path):
        with pytest.raises(AssertionError, match=BACKENDS[0]):
            assert_parity(plan, source, _rhs(plan), state)


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
            recoded_spmm(source, _rhs(plan, 2), engine=engine_for(plan, state), matrix_id=MATRIX,
                         cancel=cancel)


def test_threads_share_one_cache_and_matrix(plans):
    """The serve layer's compute threads, more of them than cores and
    switching often: each run's result is the lone run's, every cached
    payload a decode of its block, and (a cache that evicts nothing)
    every block probed once a run."""
    plan, path = plans
    x = _rhs(plan)
    want = sha(multiply_blocks(plan.blocked, x))
    nthreads, interval = 4, sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for state, runs in (("empty", 3), ("every-other", 3), ("own-evictions", 4)):
            engine = engine_for(plan, state)
            barrier, seen = threading.Barrier(nthreads), []

            def work():
                barrier.wait(timeout=60)
                for _ in range(runs):
                    y = recoded_spmv(path, x, engine=engine, matrix_id=MATRIX)[0]
                    seen.append(sha(y))

            threads = [threading.Thread(target=work) for _ in range(nthreads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads), state
            assert seen == [want] * nthreads * runs, state
            resident(plan, engine.cache)
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
                engine = engine_for(plan, "resident", quarantined)
                fired = _thief(plan, engine, where, case == "recached")
                seen.append(observe(plan, source, _rhs(plan), backend, engine,
                                     per_block=per_block, policy="degrade"))
                assert fired, per_block
            assert seen[0] == seen[1], (backend, case)
            result, _, (hits, misses, _, decoded, _), *_ = seen[0]
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
            seen, counts, *_ = assert_parity(plan, source, _rhs(plan), "every-other",
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
        seen, counts, *_ = assert_parity(plan, source, _rhs(plan, k), "every-other",
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
        seen, counts, (hits, misses, _, decoded, _), *_ = assert_parity(
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
    want = multiply_blocks(plan.blocked, x)
    for source in (plan, str(path), lambda: ContainerReader(path, verify="lazy")):
        seen, counts, *_ = assert_parity(plan, source, x, state)
        assert seen[0] == sha(want)
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
                seen, counts, *_, quarantined = assert_parity(
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
        seen = assert_parity(plan, source, _rhs(plan), state, policy=policy)[0]
        assert seen[:3] == (*want, None)
    with ContainerReader(bad, verify="lazy") as reader, pytest.raises(want[0]) as info:
        recoded_spmv(reader, _rhs(plan), engine=engine_for(plan, "empty"), matrix_id=MATRIX)
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
            seen = assert_parity(bad, source, _rhs(bad), state, policy=policy)[0]
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
                seen = assert_parity(bad, bad, _rhs(bad, k), state)[0]
                if column > 0:
                    assert seen[0] is IndexError and str(ncols + 3) in seen[1]
                else:
                    assert isinstance(seen[0], str)


def test_dram_faults_degrade_the_blocks_they_touch(plans, path):
    plan = plans[0]
    x = _rhs(plan)
    want = sha(multiply_blocks(plan.blocked, x))
    fault = FaultPlan(seed=5, dram_bitflip_rate=0.1)
    for state in (*UNCACHED, "every-other"):
        for source in (plan, str(path)):
            with fault.activate():
                seen = assert_parity(plan, source, x, state, policy="degrade")[0]
            assert seen[0] == want and seen[3] > 0


@pytest.mark.parametrize("state", UNCACHED)
@pytest.mark.parametrize("where", (*WHERE, SPAN))
def test_uncached_cancel_stops_at_its_block(plans, state, where):
    plan, path = plans
    for source in (plan, path):
        seen, counts, tallies, *_ = assert_parity(plan, source, _rhs(plan), state,
                                                   cancel_at=where)
        assert seen[0] is RunCancelled and seen[3] == where
        assert counts.get("codecs.decode.records", 0) == 2 * where
        assert tallies[:1] == (() if state == "none" else (where,))
