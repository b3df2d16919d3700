"""Integration layer for repro.serve: a real server on an ephemeral port.

The differential contract: a served result, decoded through the
server's engine and shared cache, is **bit-identical** to a direct
``recoded_spmv`` / ``recoded_spmm`` call of the same plan, engine-less or
engine-backed — across strict/degrade policies, a cache that holds the
matrix and one that keeps evicting it, and fused batches (each fused
column vs its own direct run). On top of that: admission sheds honestly
(429 + reason + counters that reconcile), deadlines produce 408 instead
of hangs, and shutdown drains without orphaning work.
"""

import asyncio
import hashlib
import logging
import threading
import time

import numpy as np
import pytest

from repro.codecs.container import ContainerReader, save_plan
from repro.codecs.engine import RecodeEngine
from repro.codecs.pipeline import compress_matrix
from repro.collection import generators
from repro.core import recoded_spmm, recoded_spmv
from repro.serve import ServeClient, ServeConfig, ServeError, ServerThread


def sha(y: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(y).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def plan():
    m = generators.banded(600, bandwidth=5, seed=13)
    return compress_matrix(m, block_bytes=2048)


@pytest.fixture(scope="module")
def root(plan, tmp_path_factory):
    d = tmp_path_factory.mktemp("serve-root")
    save_plan(plan, d / "m.dsh")
    m2 = generators.unstructured(200, density=0.05, seed=14)
    save_plan(compress_matrix(m2, block_bytes=1024), d / "other.dsh")
    return str(d)


@pytest.fixture(scope="module")
def x(plan):
    return np.random.default_rng(21).standard_normal(plan.blocked.shape[1])


def run(coro):
    return asyncio.run(coro)


def _until(pred, timeout=30.0):
    end = time.monotonic() + timeout
    while not pred():
        assert time.monotonic() < end, "condition never held"
        time.sleep(0.002)


def _gate_compute(server, monkeypatch) -> tuple[threading.Event, list]:
    """Block the server's compute threads on an event; returns the event
    and the list of batches that entered compute (their request ids)."""
    gate, entered = threading.Event(), []
    compute = server.scheduler._compute_batch

    def gated(batch):
        entered.append([it.req.id for it in batch])
        assert gate.wait(30), "gate never opened"
        return compute(batch)

    monkeypatch.setattr(server.scheduler, "_compute_batch", gated)
    return gate, entered


async def _one(port, op="spmv", tenant="t", **kw):
    async with ServeClient("127.0.0.1", port, tenant=tenant) as c:
        fn = c.spmv if op == "spmv" else c.spmm
        return await fn(*kw.pop("args"), **kw)


#: The decoder of the direct run a served result is checked against: the
#: engine-less serial decoder, or an engine's one decode handle per run
#: (``repro.core.executor.run_pipelined``), which the server runs too.
DIRECT_DECODERS = [
    pytest.param(False, id="serial"),
    pytest.param(True, id="pipelined"),
]


class TestDifferentialParity:
    @pytest.fixture(scope="class")
    def server(self, root):
        config = ServeConfig(root=root, port=0)
        with ServerThread(config) as st:
            yield st.server

    @pytest.fixture(params=DIRECT_DECODERS)
    def engine(self, request):
        """The direct run's engine (None for the engine-less decoder)."""
        return RecodeEngine() if request.param else None

    def test_spmv_bit_identical_to_direct(self, server, plan, x, engine):
        resp = run(_one(server.port, args=("m", x)))
        y_mem, _ = recoded_spmv(plan, x, engine=engine)
        assert sha(resp["y"]) == sha(y_mem)

    def test_spmv_matches_direct_mmap_source(self, server, root, x, engine):
        resp = run(_one(server.port, args=("m", x)))
        with ContainerReader(f"{root}/m.dsh", verify="lazy") as reader:
            y_mmap, _ = recoded_spmv(reader, x, engine=engine)
        assert np.array_equal(resp["y"], y_mmap)

    def test_spmm_bit_identical(self, server, plan, x, engine):
        X = np.stack([x, 2 * x, -x], axis=1)
        resp = run(_one(server.port, op="spmm", args=("m", X)))
        Y, _ = recoded_spmm(plan, X, engine=engine)
        assert resp["y"].shape == Y.shape
        assert np.array_equal(resp["y"], Y)

    def test_degrade_policy_no_faults_identical(self, server, plan, x, engine):
        resp = run(_one(server.port, args=("m", x), policy="degrade"))
        y_mem, _ = recoded_spmv(plan, x, engine=engine, policy="degrade")
        assert resp["degraded_blocks"] == 0
        assert np.array_equal(resp["y"], y_mem)

    def test_fused_batch_columns_bit_identical(self, server, plan, x, engine):
        async def burst():
            async with ServeClient("127.0.0.1", server.port, tenant="f") as c:
                return await asyncio.gather(*(c.spmv("m", (i + 1) * x) for i in range(5)))

        responses = run(burst())
        assert max(r["fused"] for r in responses) > 1, "no fusion happened"
        for i, r in enumerate(responses):
            y_direct, _ = recoded_spmv(plan, (i + 1) * x, engine=engine)
            assert np.array_equal(r["y"], y_direct), f"fused col {i} diverged"

    def test_evicting_cache_bit_identical(self, root, plan, x):
        """A shared cache holding two of the matrix's decoded blocks evicts
        on every request; answers stay those of the engine-less run."""
        config = ServeConfig(root=root, port=0, cache_bytes=8192)
        X = np.stack([x, -x], axis=1)
        with ServerThread(config) as st:
            for _ in range(2):
                resp = run(_one(st.server.port, args=("m", x)))
                assert sha(resp["y"]) == sha(recoded_spmv(plan, x)[0])
                resp = run(_one(st.server.port, op="spmm", args=("m", X)))
                assert np.array_equal(resp["y"], recoded_spmm(plan, X)[0])
            assert st.server.cache.stats.evictions > 0

    def test_response_metadata(self, server, x):
        resp = run(_one(server.port, args=("m", x)))
        assert resp["ok"] and resp["status"] == 200
        assert resp["policy"] == "strict"
        assert resp["queue_ms"] >= 0 and resp["compute_ms"] > 0


class TestQueueTime:
    def test_fused_riders_report_their_own_queue_wait(self, root, x, monkeypatch):
        """Each rider of a fused batch reports its own enqueue-to-dispatch
        wait, bounded by what its client saw, not the oldest rider's."""
        with ServerThread(ServeConfig(root=root, port=0, compute_threads=1)) as st:
            gate, entered = _gate_compute(st.server, monkeypatch)

            async def go():
                async with ServeClient("127.0.0.1", st.server.port, tenant="qt") as c:

                    async def timed(i):
                        t0 = time.perf_counter()
                        r = await c.spmv("m", (i + 1) * x)
                        return r, (time.perf_counter() - t0) * 1e3

                    blocker = asyncio.ensure_future(c.spmv("other", x[:200]))
                    await asyncio.to_thread(_until, lambda: len(entered) == 1)
                    riders = []
                    for i in range(4):
                        riders.append(asyncio.ensure_future(timed(i)))
                        await asyncio.to_thread(
                            _until, lambda: st.server.scheduler.queue_depth == i + 2
                        )
                        await asyncio.sleep(0.005)
                    gate.set()
                    await blocker
                    return await asyncio.gather(*riders)

            results = run(go())
        assert [len(b) for b in entered] == [1, 4]
        waits = [r["queue_ms"] for r, _ in results]
        for r, latency_ms in results:
            assert r["fused"] == 4
            assert 0 <= r["queue_ms"] <= latency_ms
        # The oldest rider waited longest; the others waited less.
        assert waits[0] == max(waits)
        assert any(w != waits[0] for w in waits[1:])


class TestErrorsAndValidation:
    @pytest.fixture(scope="class")
    def server(self, root):
        with ServerThread(ServeConfig(root=root, port=0)) as st:
            yield st.server

    def test_unknown_matrix_404(self, server, x):
        resp = run(_one(server.port, args=("nope", x), raise_on_error=False))
        assert resp["status"] == 404
        assert resp["error"]["type"] == "UnknownMatrix"
        assert "m" in resp["error"]["message"]

    def test_shape_mismatch_400(self, server):
        resp = run(_one(server.port, args=("m", np.ones(7)), raise_on_error=False))
        assert resp["status"] == 400
        assert resp["error"]["type"] == "ShapeMismatch"

    def test_serve_error_raises(self, server, x):
        with pytest.raises(ServeError, match="UnknownMatrix"):
            run(_one(server.port, args=("nope", x)))

    def test_bad_json_line_answered_not_dropped(self, server):
        async def go():
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b'{"op": "spmv", "id": "bad1"\n')
            await writer.drain()
            import json

            line = await reader.readline()
            writer.close()
            return json.loads(line)

        resp = run(go())
        assert resp["status"] == 400
        assert resp["error"]["type"] == "ProtocolError"

    def test_deadline_expired_before_dispatch_408(self, server, x):
        # A microscopic deadline passes before the request reaches a
        # compute thread; the answer must be a prompt 408, never a hang.
        t0 = time.monotonic()
        resp = run(
            _one(server.port, args=("m", x), deadline_ms=0.01, raise_on_error=False)
        )
        assert resp["status"] == 408
        assert resp["error"]["type"] == "DeadlineExpired"
        assert time.monotonic() - t0 < 10.0

    def test_health_and_stats(self, server, x):
        async def go():
            async with ServeClient("127.0.0.1", server.port, tenant="hs") as c:
                h = await c.health()
                await c.spmv("m", x)
                s = await c.stats()
                return h, s

        h, s = run(go())
        assert h["state"] == "serving"
        assert sorted(h["matrices"]) == ["m", "other"]
        row = next(t for t in s["tenants"] if t["tenant"] == "hs")
        assert row["completed"] >= 1
        assert s["inflight_bytes"] == 0
        assert s["queue_depth"] == 0
        assert s["cache"]["max_bytes"] > 0
        assert s["matrices"]["m"]["nnz"] > 0


class TestAdmissionOverTheWire:
    def test_tenant_rate_shed(self, root, x):
        config = ServeConfig(root=root, port=0, tenant_rate=0.001, tenant_burst=1.0)
        with ServerThread(config) as st:
            async def go():
                async with ServeClient("127.0.0.1", st.server.port, tenant="rt") as c:
                    first = await c.spmv("m", x, raise_on_error=False)
                    second = await c.spmv("m", x, raise_on_error=False)
                    stats = await c.stats()
                    return first, second, stats

            first, second, stats = run(go())
        assert first["ok"]
        assert second["status"] == 429 and second["shed"] == "tenant_rate"
        row = next(t for t in stats["tenants"] if t["tenant"] == "rt")
        assert row["shed"] == 1 and row["requests"] == 2

    def test_queue_overflow_sheds_and_reconciles(self, root, x):
        config = ServeConfig(root=root, port=0, max_queue=2, compute_threads=1)
        with ServerThread(config) as st:
            async def go():
                async with ServeClient("127.0.0.1", st.server.port, tenant="q") as c:
                    resps = await asyncio.gather(
                        *(c.spmv("m", x, raise_on_error=False) for _ in range(24))
                    )
                    stats = await c.stats()
                    return resps, stats

            resps, stats = run(go())
        ok = sum(1 for r in resps if r.get("ok"))
        shed = sum(1 for r in resps if r.get("status") == 429)
        assert ok + shed == 24
        assert shed > 0, "24 concurrent requests against max_queue=2 never shed"
        for r in resps:
            if r.get("status") == 429:
                assert r["shed"] == "queue"
        row = next(t for t in stats["tenants"] if t["tenant"] == "q")
        assert row["shed"] == shed and row["completed"] == ok
        assert stats["inflight_bytes"] == 0

    def test_shed_response_carries_no_result(self, root, x):
        config = ServeConfig(root=root, port=0, tenant_rate=0.001, tenant_burst=1.0)
        with ServerThread(config) as st:
            async def go():
                async with ServeClient("127.0.0.1", st.server.port, tenant="n") as c:
                    await c.spmv("m", x, raise_on_error=False)
                    return await c.spmv("m", x, raise_on_error=False)

            second = run(go())
        assert not second["ok"] and "y" not in second


class TestHttpEndpoints:
    @pytest.fixture(scope="class")
    def server(self, root):
        with ServerThread(ServeConfig(root=root, port=0)) as st:
            yield st.server

    @staticmethod
    async def _http_get(port, path):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
        await writer.drain()
        data = await reader.read(-1)
        writer.close()
        head, _, body = data.partition(b"\r\n\r\n")
        return head.split(b"\r\n")[0].decode(), body.decode()

    def test_metrics_scrape(self, server, x):
        run(_one(server.port, args=("m", x)))
        status, body = run(self._http_get(server.port, "/metrics"))
        assert "200" in status
        assert "serve_requests" in body or "serve.requests" in body

    def test_health_probe(self, server):
        status, body = run(self._http_get(server.port, "/health"))
        assert "200" in status and body.strip() == "ok"

    def test_unknown_path_404(self, server):
        status, _ = run(self._http_get(server.port, "/nope"))
        assert "404" in status


class TestLifecycle:
    def test_clean_shutdown_under_load(self, root, x):
        st = ServerThread(ServeConfig(root=root, port=0))
        st.start()

        async def fire():
            async with ServeClient("127.0.0.1", st.server.port, tenant="l") as c:
                return await asyncio.gather(
                    *(c.spmv("m", x, raise_on_error=False) for _ in range(8))
                )

        resps = run(fire())
        assert all(r.get("ok") for r in resps)
        st.stop()  # raises if the server thread crashed

    @pytest.mark.parametrize(
        "drain_s", [60.0, 0.1], ids=["queued-dispatched", "drain-runs-out"]
    )
    def test_stop_resolves_every_queued_request(
        self, root, x, monkeypatch, caplog, drain_s
    ):
        """Stopping with both compute threads blocked (an SpMM each) and
        eight SpMVs queued behind them: every request is answered — the
        queued ones dispatched while draining, or ``503 draining`` once
        ``drain_s`` runs out — and the books drain to zero. Connections
        still open at stop end without an ERROR log record."""
        caplog.set_level(logging.ERROR)
        config = ServeConfig(root=root, port=0, compute_threads=2, drain_s=drain_s)
        st = ServerThread(config)
        st.start()
        server = st.server
        gate, entered = _gate_compute(server, monkeypatch)
        X = np.stack([x, -x], axis=1)

        async def burst():
            clients = [
                await ServeClient("127.0.0.1", server.port, tenant=t).connect()
                for t in ("blk", "d0", "d1")
            ]
            blockers = [
                asyncio.ensure_future(clients[0].spmm("m", X, raise_on_error=False))
                for _ in range(2)
            ]
            await asyncio.to_thread(_until, lambda: len(entered) == 2)
            queued = [
                asyncio.ensure_future(c.spmv("m", x, raise_on_error=False))
                for c in clients[1:]
                for _ in range(4)
            ]
            resps = await asyncio.gather(*blockers), await asyncio.gather(*queued)
            for c in clients:
                await c.close()
            return resps

        out = []
        client = threading.Thread(target=lambda: out.append(run(burst())))
        client.start()
        _until(lambda: server.scheduler.queue_depth == 10)
        stopper = threading.Thread(target=st.stop)
        stopper.start()
        _until(lambda: server.draining)
        if drain_s < 1.0:
            time.sleep(drain_s + 0.3)  # the blocked batches outlast the drain
        gate.set()
        stopper.join(60)
        client.join(60)
        assert not stopper.is_alive() and not client.is_alive()
        (blocked, queued), = out
        assert all(r.get("ok") for r in blocked)
        if drain_s > 1.0:
            assert all(r.get("ok") for r in queued), queued
            y_direct, _ = recoded_spmv(f"{root}/m.dsh", x)
            assert all(np.array_equal(r["y"], y_direct) for r in queued)
        else:
            for r in queued:
                assert r["status"] == 503 and r["shed"] == "draining", r
            assert sum(server.tenants.get(t).shed for t in ("d0", "d1")) == 8
        assert server.scheduler.queue_depth == 0
        assert server.admission.inflight_bytes == 0
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert not errors, [r.getMessage() for r in errors]

    def test_pipelined_default_boots_bit_identical_to_serial(self, root, x):
        """A default server, whose requests read one engine decode handle
        per run, answers bit-identically to the engine-less serial decoder
        over the same container."""
        with ServerThread(ServeConfig(root=root, port=0)) as st:
            served = run(_one(st.server.port, args=("m", x)))["y"]
        assert sha(served) == sha(recoded_spmv(f"{root}/m.dsh", x)[0])

    def test_double_boot_distinct_ports(self, root):
        with ServerThread(ServeConfig(root=root, port=0)) as a:
            with ServerThread(ServeConfig(root=root, port=0)) as b:
                assert a.server.port != b.server.port

    def test_missing_root_fails_fast(self, tmp_path):
        from repro.serve import MatrixLibrary

        with pytest.raises(FileNotFoundError, match="not a directory"):
            MatrixLibrary(str(tmp_path / "nope"))

    def test_empty_root_fails_fast(self, tmp_path):
        from repro.serve import MatrixLibrary

        with pytest.raises(FileNotFoundError, match="no .dsh"):
            MatrixLibrary(str(tmp_path))
