"""Chaos layer for repro.serve: fault injection against a live server.

A seeded :class:`~repro.faults.FaultPlan` is armed process-wide (the
server's compute threads share the interpreter, so they see the armed
plan while the ``with plan.activate():`` block is open) and the serving
contract is checked under corruption:

* ``policy=strict`` fails with a **typed** error carrying the block id —
  never a silent wrong answer, never a hang;
* ``policy=degrade`` answers bit-identically to a direct degrade-policy
  run under the same armed plan, with the degraded block count on the
  wire;
* tenant counters reconcile with what the client observed, and every
  response arrives within a bounded wall-clock even while faults fire.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.codecs.container import save_plan
from repro.codecs.pipeline import compress_matrix
from repro.collection import generators
from repro.core import recoded_spmv
from repro.faults import FaultPlan
from repro.serve import ServeClient, ServeConfig, ServerThread


@pytest.fixture(scope="module")
def plan():
    m = generators.unstructured(400, density=0.03, seed=3)
    return compress_matrix(m, block_bytes=2048)


@pytest.fixture(scope="module")
def root(plan, tmp_path_factory):
    d = tmp_path_factory.mktemp("chaos-root")
    save_plan(plan, d / "m.dsh")
    return str(d)


@pytest.fixture(scope="module")
def x(plan):
    return np.random.default_rng(7).standard_normal(plan.blocked.shape[1])


def run(coro):
    return asyncio.run(coro)


def _server_config(root, **kw):
    # cache_bytes=1 so every request re-decodes: a cached clean block
    # would mask the armed fault and the test would vacuously pass.
    kw.setdefault("cache_bytes", 1)
    return ServeConfig(root=root, port=0, **kw)


async def _spmv(port, x, tenant="t", **kw):
    async with ServeClient("127.0.0.1", port, tenant=tenant) as c:
        return await c.spmv("m", x, raise_on_error=False, **kw)


class TestStrictUnderFaults:
    def test_bitflip_fails_typed_with_block_id(self, root, x):
        with ServerThread(_server_config(root)) as st:
            with FaultPlan(seed=11, bitflip_blocks=(2,)).activate():
                resp = run(_spmv(st.server.port, x, tenant="s"))
        assert resp["status"] == 500
        assert resp["error"]["type"] in ("BlockDecodeError", "CodecError")
        assert resp["error"].get("block_id") == 2
        assert "y" not in resp

    def test_quarantine_memo_after_fault(self, plan, root, x):
        """After a strict decode failure the engine's quarantine memo makes
        later strict requests fail *fast* with the same typed error (the
        block is presumed corrupt on disk), while degrade requests still
        answer bit-exactly via the raw-stream substitute. The server stays
        up throughout."""
        with ServerThread(_server_config(root)) as st:
            with FaultPlan(seed=11, bitflip_blocks=(2,)).activate():
                bad = run(_spmv(st.server.port, x, tenant="s"))
            assert bad["status"] == 500
            strict_again = run(_spmv(st.server.port, x, tenant="s"))
            degraded = run(_spmv(st.server.port, x, tenant="s", policy="degrade"))
        assert strict_again["status"] == 500
        assert strict_again["error"].get("block_id") == 2
        y_direct, _ = recoded_spmv(plan, x)
        assert degraded["ok"] and degraded["degraded_blocks"] == 1
        assert np.array_equal(degraded["y"], y_direct)


class TestDegradeUnderFaults:
    def test_degrade_bit_identical_to_direct_under_same_plan(self, plan, root, x):
        from repro.codecs.engine import RecodeEngine

        fp = FaultPlan(seed=11, bitflip_blocks=(2,))
        with ServerThread(_server_config(root)) as st:
            with fp.activate():
                resp = run(_spmv(st.server.port, x, tenant="d", policy="degrade"))

        # bitflip_blocks fires at the engine decode site, so the direct
        # reference run needs its own (fresh, unquarantined) engine.
        eng = RecodeEngine(workers=0, retry_base_s=0.0)
        try:
            with fp.activate():
                y_direct, stats = recoded_spmv(
                    plan, x, engine=eng, policy="degrade", matrix_id="direct"
                )
        finally:
            eng.close()

        assert resp["ok"]
        assert resp["degraded_blocks"] >= 1
        assert resp["degraded_blocks"] == stats.degraded_blocks
        assert np.array_equal(resp["y"], y_direct)

    def test_mixed_policies_one_server(self, root, x):
        """Strict and degrade requests against the same faulted matrix."""
        with ServerThread(_server_config(root)) as st:
            with FaultPlan(seed=11, bitflip_blocks=(2,)).activate():

                async def go():
                    async with ServeClient(
                        "127.0.0.1", st.server.port, tenant="mx"
                    ) as c:
                        strict, degrade = await asyncio.gather(
                            c.spmv("m", x, raise_on_error=False),
                            c.spmv("m", x, policy="degrade", raise_on_error=False),
                        )
                        stats = await c.stats()
                        return strict, degrade, stats

                strict, degrade, stats = run(go())
        assert strict["status"] == 500
        assert degrade["ok"] and degrade["degraded_blocks"] >= 1
        row = next(t for t in stats["tenants"] if t["tenant"] == "mx")
        assert row["requests"] == 2
        assert row["completed"] == 1
        assert row["failed"] == 1
        assert row["degraded_requests"] == 1

    def test_fused_batch_not_poisoned_across_policies(self, root, x):
        """Fusion keys on (matrix, policy): a strict failure must not take
        down degrade riders, and vice versa. One compute thread, so the
        riders queue behind the first batch and fuse."""
        with ServerThread(_server_config(root, compute_threads=1)) as st:
            with FaultPlan(seed=11, bitflip_blocks=(2,)).activate():

                async def go():
                    async with ServeClient(
                        "127.0.0.1", st.server.port, tenant="fp"
                    ) as c:
                        return await asyncio.gather(
                            *(c.spmv("m", x, raise_on_error=False) for _ in range(3)),
                            *(
                                c.spmv(
                                    "m", x, policy="degrade", raise_on_error=False
                                )
                                for _ in range(3)
                            ),
                        )

                resps = run(go())
        stricts, degrades = resps[:3], resps[3:]
        for r in stricts:
            assert r["status"] == 500, r
        for r in degrades:
            assert r["ok"] and r["degraded_blocks"] >= 1, r


class TestBoundedLatencyUnderChaos:
    def test_no_hang_past_deadline(self, root, x):
        """Faulted traffic with deadlines: every response lands within a
        small multiple of the deadline — nothing is ever stranded."""
        deadline_ms = 2000.0
        with ServerThread(_server_config(root, compute_threads=1)) as st:
            with FaultPlan(seed=11, bitflip_blocks=(2,)).activate():

                async def go():
                    async with ServeClient(
                        "127.0.0.1", st.server.port, tenant="h"
                    ) as c:
                        t0 = time.monotonic()
                        resps = await asyncio.gather(
                            *(
                                c.spmv(
                                    "m",
                                    x,
                                    deadline_ms=deadline_ms,
                                    policy=("degrade" if i % 2 else "strict"),
                                    raise_on_error=False,
                                )
                                for i in range(10)
                            )
                        )
                        elapsed = time.monotonic() - t0
                        stats = await c.stats()
                        return resps, elapsed, stats

                resps, elapsed, stats = run(go())
        assert len(resps) == 10
        assert elapsed < (deadline_ms / 1000.0) * 5
        for r in resps:
            assert r["status"] in (200, 408, 500), r
        row = next(t for t in stats["tenants"] if t["tenant"] == "h")
        counted = (
            row["completed"] + row["failed"] + row["deadline_missed"] + row["shed"]
        )
        assert counted == row["requests"] == 10
        assert stats["inflight_bytes"] == 0
        assert stats["queue_depth"] == 0

    def test_decode_failure_counter_increments(self, root, x):
        from repro.obs import registry

        before = sum(
            rec["value"]
            for rec in registry().snapshot().values()
            if rec["name"] == "serve.decode_failures"
        )
        with ServerThread(_server_config(root)) as st:
            with FaultPlan(seed=11, bitflip_blocks=(2,)).activate():
                resp = run(_spmv(st.server.port, x, tenant="c"))
        assert resp["status"] == 500
        after = sum(
            rec["value"]
            for rec in registry().snapshot().values()
            if rec["name"] == "serve.decode_failures"
        )
        assert after >= before + 1
