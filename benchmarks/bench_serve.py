"""Bench: the matrix server stays correct and bounded under overload.

Gates (ISSUE acceptance):

* **parity** — a served SpMV is bit-identical (sha256 of ``y``) to a
  direct :func:`repro.core.recoded_spmv` call, including fused batches
  (each column vs its own direct run) and ``degrade`` policy with no
  faults armed;
* **fusion is alive** — the parity burst (eight concurrent SpMVs, more
  than the two compute threads take at once) fuses at least one batch
  wider than one;
* **overload sheds, never buffers** — an open-loop load phase offering
  >= 2x the measured closed-loop capacity (plus a burst of 4x the queue
  bound) produces a nonzero shed count, while admitted-request p99 stays
  under ``P99_BOUND_MS`` — bounded queueing means bounded latency for
  whoever got in;
* **accounting reconciles** — every offered request is accounted exactly
  once (completed + shed + deadline-missed + failed = offered) and the
  server's own per-tenant counters agree with the client's tally; after
  the load drains, inflight-bytes and queue depth return to zero.

Writes a schema-validated ``BENCH_serve.json``; set ``BENCH_SERVE_OUT``
to redirect. Latencies, rates, shed counts, RSS and queue-depth samples
are host-dependent and live under ``timings``; parity hashes and gate
verdicts are deterministic at the pinned seed.
"""

import asyncio
import hashlib
import json
import os
import tempfile
import time

import numpy as np

from benchmarks.conftest import run_once
from repro.codecs.container import save_plan
from repro.codecs.pipeline import compress_matrix
from repro.collection import generators
from repro.core import recoded_spmv
from repro.experiments.common import write_bench_artifact
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.util.rss import RssSampler

SEED = 47
N = 2000
BANDWIDTH = 6
BLOCK_BYTES = 4096

TENANTS = 4
#: Closed-loop calibration requests per tenant.
CALIBRATION_REQUESTS = 12
#: Open-loop overload multiplier over measured capacity.
OVERLOAD_FACTOR = 2.5
OVERLOAD_SECONDS = 3.0
#: End-of-phase burst: this many requests all at once (>= 4x max_queue).
BURST = 128
MAX_QUEUE = 32
MAX_FUSE = 8
DEADLINE_MS = 5000.0
#: Admitted-request p99 bound: with a bounded queue of MAX_QUEUE and
#: millisecond-scale requests, worst-case wait is queue * service time —
#: far under this; unbounded buffering would blow straight past it.
P99_BOUND_MS = 2500.0


def _sha(y: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(y).tobytes()).hexdigest()


def _percentile(xs, q):
    if not xs:
        return 0.0
    return float(np.percentile(np.asarray(xs), q))


async def _closed_loop(port, xs):
    """Each tenant awaits its requests serially: measures capacity."""
    lat, done = [], 0
    clients = [
        await ServeClient("127.0.0.1", port, tenant=f"tenant-{i}").connect()
        for i in range(TENANTS)
    ]
    t0 = time.perf_counter()

    async def drive(c):
        nonlocal done
        for k in range(CALIBRATION_REQUESTS):
            t = time.perf_counter()
            r = await c.spmv("m", xs[k % len(xs)], deadline_ms=DEADLINE_MS,
                             raise_on_error=False)
            if r.get("ok"):
                done += 1
                lat.append((time.perf_counter() - t) * 1e3)

    await asyncio.gather(*(drive(c) for c in clients))
    elapsed = time.perf_counter() - t0
    for c in clients:
        await c.close()
    return {
        "offered": TENANTS * CALIBRATION_REQUESTS,
        "completed": done,
        "elapsed_s": elapsed,
        "lat_ms": lat,
    }


async def _open_loop(port, xs, rps, queue_probe):
    """Fire-and-gather at a fixed offered rate, then a burst; responses
    are tallied by status — every request accounted exactly once."""
    clients = [
        await ServeClient("127.0.0.1", port, tenant=f"tenant-{i}").connect()
        for i in range(TENANTS)
    ]
    tasks: list[asyncio.Task] = []
    lat: list[float] = []
    tally = {"completed": 0, "shed": 0, "deadline": 0, "failed": 0}

    async def fire(c, x):
        t = time.perf_counter()
        r = await c.spmv("m", x, deadline_ms=DEADLINE_MS, policy="strict",
                         raise_on_error=False)
        status = r.get("status")
        if r.get("ok"):
            tally["completed"] += 1
            lat.append((time.perf_counter() - t) * 1e3)
        elif status in (429, 503):
            tally["shed"] += 1
        elif status == 408:
            tally["deadline"] += 1
        else:
            tally["failed"] += 1

    async def probe():
        async with ServeClient("127.0.0.1", port, tenant="probe") as pc:
            while not probe_stop.is_set():
                s = await pc.stats()
                queue_probe.append(s["queue_depth"])
                await asyncio.sleep(0.02)

    probe_stop = asyncio.Event()
    probe_task = asyncio.ensure_future(probe())
    interval = TENANTS / rps  # each tick fires one request per tenant
    end = time.perf_counter() + OVERLOAD_SECONDS
    i = 0
    while time.perf_counter() < end:
        for c in clients:
            tasks.append(asyncio.ensure_future(fire(c, xs[i % len(xs)])))
        i += 1
        await asyncio.sleep(interval)
    # Burst: everything at once — must overflow the bounded queue.
    for j in range(BURST):
        tasks.append(asyncio.ensure_future(fire(clients[j % TENANTS],
                                                xs[j % len(xs)])))
    await asyncio.gather(*tasks)
    probe_stop.set()
    await probe_task
    for c in clients:
        await c.close()
    return {"offered": len(tasks), "tally": tally, "lat_ms": lat}


async def _parity(port, plan, xs, engine_kwargs):
    """Served vs direct: single, fused, and degrade-policy results, and the
    widest fused batch (how wide depends on load, so it is reported apart
    from the verdicts; that it exceeds one is gated)."""
    out = {}
    async with ServeClient("127.0.0.1", port, tenant="parity") as c:
        r = await c.spmv("m", xs[0])
        y_direct, _ = recoded_spmv(plan, xs[0], **engine_kwargs)
        out["direct_sha256"] = _sha(y_direct)
        out["served_sha256"] = _sha(r["y"])
        fused = await asyncio.gather(*(c.spmv("m", x) for x in xs))
        fused_ok = all(
            np.array_equal(r["y"], recoded_spmv(plan, x, **engine_kwargs)[0])
            for r, x in zip(fused, xs)
        )
        out["fused_bit_identical"] = bool(fused_ok)
        max_fused_width = max(r["fused"] for r in fused)
        rd = await c.spmv("m", xs[0], policy="degrade")
        out["degrade_bit_identical"] = bool(np.array_equal(rd["y"], y_direct))
    out["bit_identical"] = (
        out["served_sha256"] == out["direct_sha256"]
        and out["fused_bit_identical"]
        and out["degrade_bit_identical"]
    )
    return out, max_fused_width


def _measure() -> dict:
    tmpdir = tempfile.mkdtemp(prefix="serve-bench-")
    m = generators.banded(N, bandwidth=BANDWIDTH, seed=SEED)
    plan = compress_matrix(m, block_bytes=BLOCK_BYTES)
    save_plan(plan, os.path.join(tmpdir, "m.dsh"))
    rng = np.random.default_rng(SEED)
    xs = [rng.standard_normal(plan.blocked.shape[1]) for _ in range(8)]

    config = ServeConfig(
        root=tmpdir,
        port=0,
        max_fuse=MAX_FUSE,
        max_queue=MAX_QUEUE,
        compute_threads=2,
    )
    queue_probe: list[int] = []
    with ServerThread(config) as st:
        port = st.server.port
        parity, max_fused_width = asyncio.run(_parity(port, plan, xs, {}))
        base = asyncio.run(_closed_loop(port, xs))
        capacity_rps = base["completed"] / base["elapsed_s"]
        offered_rps = OVERLOAD_FACTOR * capacity_rps
        with RssSampler() as rss:
            over = asyncio.run(_open_loop(port, xs, offered_rps, queue_probe))
        # Reconcile against the server's own books after the load drains.
        final = asyncio.run(_final_stats(port))

    tally = over["tally"]
    client_total = sum(tally.values())
    tenant_rows = [
        t for t in final["tenants"] if t["tenant"].startswith("tenant-")
    ]
    server_total = sum(t["requests"] for t in tenant_rows)
    server_shed = sum(t["shed"] for t in tenant_rows)
    accounting_reconciles = (
        client_total == over["offered"]
        and server_shed == tally["shed"]
        and server_total == over["offered"] + base["offered"]
        and final["inflight_bytes"] == 0
        and final["queue_depth"] == 0
    )
    p99 = _percentile(over["lat_ms"], 99)
    gates = {
        "fusion_alive": max_fused_width > 1,
        "overload_shed_nonzero": tally["shed"] > 0,
        "accounting_reconciles": accounting_reconciles,
        "admitted_p99_bounded": p99 < P99_BOUND_MS,
        "passed": bool(
            parity["bit_identical"]
            and max_fused_width > 1
            and tally["shed"] > 0
            and accounting_reconciles
            and p99 < P99_BOUND_MS
        ),
    }
    return {
        "exp_id": "serve",
        "title": "SpMV-as-a-service: overload sheds, admitted p99 bounded",
        "context": {
            "seed": SEED,
            "max_fuse": config.max_fuse,
            "tenants": TENANTS,
            "inflight_budget_bytes": config.inflight_budget_bytes,
            "max_queue": MAX_QUEUE,
        },
        "parity": parity,
        "gates": gates,
        "timings": {
            "p99_bound_ms": P99_BOUND_MS,
            "overload_factor": OVERLOAD_FACTOR,
            "max_fused_width": max_fused_width,
            "baseline": {
                "offered_rps": base["offered"] / base["elapsed_s"],
                "completed": base["completed"],
                "shed": base["offered"] - base["completed"],
                "p50_ms": _percentile(base["lat_ms"], 50),
                "p99_ms": _percentile(base["lat_ms"], 99),
            },
            "overload": {
                "offered_rps": offered_rps,
                "offered_over_capacity": OVERLOAD_FACTOR,
                "offered": over["offered"],
                "completed": tally["completed"],
                "shed": tally["shed"],
                "deadline_missed": tally["deadline"],
                "failed": tally["failed"],
                "p50_ms": _percentile(over["lat_ms"], 50),
                "p99_ms": p99,
                "peak_rss_delta_bytes": int(rss.peak_delta or 0),
                "rss_supported": rss.baseline is not None,
                "max_queue_depth": max(queue_probe, default=0),
            },
        },
    }


async def _final_stats(port) -> dict:
    async with ServeClient("127.0.0.1", port, tenant="probe") as c:
        return await c.stats()


def _write_artifact(res) -> str:
    return write_bench_artifact(res, "BENCH_serve.json", "BENCH_SERVE_OUT")


def test_serve_gates(benchmark):
    res = run_once(benchmark, _measure)
    path = _write_artifact(res)

    # Gate 1: served == direct, bit for bit (singles, fused, degrade).
    assert res["parity"]["bit_identical"], res["parity"]
    # Gate 1b: the parity burst queued behind busy threads and fused.
    assert res["gates"]["fusion_alive"], res["timings"]["max_fused_width"]
    # Gate 2: overload (>= 2x capacity + burst) shed explicitly, nonzero.
    t = res["timings"]["overload"]
    assert t["offered_over_capacity"] >= 2.0
    assert t["shed"] > 0, f"no sheds at {t['offered_rps']:.0f} rps offered"
    # Gate 3: bounded queueing bounds admitted latency.
    assert t["p99_ms"] < P99_BOUND_MS, (
        f"admitted p99 {t['p99_ms']:.0f} ms >= {P99_BOUND_MS} ms bound"
    )
    # Gate 4: the books balance — client tally, server counters, and the
    # drained end state all agree.
    assert res["gates"]["accounting_reconciles"]
    # Queue depth never exceeded its bound (sampled).
    assert t["max_queue_depth"] <= MAX_QUEUE
    assert res["gates"]["passed"]
    with open(path, "r", encoding="utf-8") as fh:
        artifact = json.load(fh)
    assert artifact["parity"] == res["parity"]


if __name__ == "__main__":
    res = _measure()
    path = _write_artifact(res)
    t = res["timings"]
    print(f"capacity  {t['baseline']['offered_rps']:.0f} rps "
          f"(p99 {t['baseline']['p99_ms']:.1f} ms)")
    o = t["overload"]
    print(f"overload  {o['offered_rps']:.0f} rps offered: "
          f"{o['completed']} completed, {o['shed']} shed, "
          f"{o['deadline_missed']} deadline, p99 {o['p99_ms']:.1f} ms, "
          f"max queue {o['max_queue_depth']}")
    print(f"gates     {res['gates']}")
    print(f"wrote {path}")
    raise SystemExit(0 if res["gates"]["passed"] else 1)
