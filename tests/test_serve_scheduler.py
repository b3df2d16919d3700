"""The work-conserving scheduler, deterministically: no sockets, no compute.

``FusionScheduler._compute_batch`` is replaced by a stub that records
each batch it is handed and blocks on a :class:`threading.Event`, so a
test decides when the compute threads are busy and when they free. The
contract checked here:

* a request on an idle scheduler is dispatched at once, with no timer;
* SpMVs that queue behind busy threads leave as one fused batch of at
  most ``max_fuse``, picked round-robin across tenants;
* dispatch is FIFO across keys, so an SpMM or another matrix is never
  starved by riders;
* a request whose deadline passes while it waits is answered 408 and
  never reaches compute;
* every admitted request is resolved, so ``queue_depth`` returns to 0.
"""

import asyncio
import threading
import time

import pytest

from repro import obs
from repro.serve import protocol
from repro.serve.scheduler import FusionScheduler, WorkItem


class GatedCompute:
    """Stand-in for ``_compute_batch``: records batch ids, blocks on a gate."""

    def __init__(self):
        self.gate = threading.Event()
        self.batches: list[list[str]] = []
        self._lock = threading.Lock()

    def __call__(self, batch: list[WorkItem]) -> list[dict]:
        with self._lock:
            self.batches.append([it.req.id for it in batch])
        assert self.gate.wait(30), "gate never opened"
        return [
            protocol.response(
                it.req.id, it.req.op, protocol.STATUS_OK,
                fused=len(batch), queue_ms=it.queue_ms,
            )
            for it in batch
        ]


def _scheduler(monkeypatch, **kw) -> tuple[FusionScheduler, GatedCompute]:
    sched = FusionScheduler(library=None, engine=None, **kw)
    compute = GatedCompute()
    monkeypatch.setattr(sched, "_compute_batch", compute)
    sched.start()
    return sched, compute


def _submit(sched, rid, *, op="spmv", matrix="a", tenant="t", deadline=None):
    req = protocol.Request(op=op, id=rid, tenant=tenant, matrix=matrix)
    item = WorkItem(
        req=req,
        cost_bytes=0,
        future=asyncio.get_running_loop().create_future(),
        deadline=deadline,
    )
    assert sched.try_submit(item)
    return item


async def _until(pred, timeout=10.0):
    end = time.monotonic() + timeout
    while not pred():
        assert time.monotonic() < end, "condition never held"
        await asyncio.sleep(0.001)


async def _answers(items):
    """Every item's response; an item left unresolved fails, not hangs."""
    return await asyncio.wait_for(asyncio.gather(*(it.future for it in items)), 30)


async def _block_threads(sched, compute, n):
    """Occupy ``n`` compute threads with SpMMs on a matrix of their own."""
    blockers = [_submit(sched, f"block-{i}", op="spmm", matrix="z") for i in range(n)]
    await _until(lambda: len(compute.batches) == n)
    return blockers


def test_lone_spmv_dispatches_without_waiting(monkeypatch):
    async def go():
        sched, compute = _scheduler(monkeypatch)
        compute.gate.set()
        with obs.scoped_registry() as reg:
            item = _submit(sched, "solo")
            # Yield to the loop without letting any timer run: the item is
            # already dispatched, its own wait stamped.
            for _ in range(3):
                await asyncio.sleep(0)
            dispatched = reg.histogram("serve.queue_wait_ms").count
            (resp,) = await _answers([item])
        await sched.stop()
        return sched, compute, dispatched, resp

    sched, compute, dispatched, resp = asyncio.run(go())
    assert dispatched == 1
    assert compute.batches == [["solo"]]
    assert resp["ok"] and resp["fused"] == 1
    assert sched.queue_depth == 0


@pytest.mark.parametrize(
    "order, expected",
    [
        (["x0", "y0", "z0"], ["x0", "y0", "z0"]),
        # Tenant x sprays, y and z send less; x is first to arrive.
        (["x0", "x1", "y0", "x2", "z0", "y1", "x3"], ["x0", "y0", "z0", "x1"]),
    ],
    ids=["n3", "n7"],
)
def test_riders_behind_busy_threads_fuse_round_robin(monkeypatch, order, expected):
    max_fuse = 4

    async def go():
        sched, compute = _scheduler(monkeypatch, compute_threads=2, max_fuse=max_fuse)
        blockers = await _block_threads(sched, compute, 2)
        riders = [_submit(sched, rid, tenant=rid[0]) for rid in order]
        for _ in range(3):
            await asyncio.sleep(0)
        assert len(compute.batches) == 2, "a rider left while every thread was busy"
        compute.gate.set()
        resps = await _answers(blockers + riders)
        await sched.stop()
        return sched, compute, resps

    sched, compute, resps = asyncio.run(go())
    first = compute.batches[2]
    assert len(first) == min(len(order), max_fuse)
    # Round-robin across tenants in order of first arrival, FIFO within one.
    assert first == expected
    assert sorted(sum(compute.batches[2:], [])) == sorted(order)
    assert all(r["ok"] for r in resps)
    assert sched.queue_depth == 0


def test_dispatch_is_fifo_across_keys(monkeypatch):
    """An SpMM queued before SpMVs for another matrix goes first."""

    async def go():
        sched, compute = _scheduler(monkeypatch, compute_threads=1)
        blockers = await _block_threads(sched, compute, 1)
        items = [
            _submit(sched, "mm", op="spmm", matrix="a"),
            _submit(sched, "v0", matrix="b"),
            _submit(sched, "v1", matrix="b"),
        ]
        compute.gate.set()
        await _answers(blockers + items)
        await sched.stop()
        return sched, compute

    sched, compute = asyncio.run(go())
    assert compute.batches == [["block-0"], ["mm"], ["v0", "v1"]]
    assert sched.queue_depth == 0


def test_deadline_passing_in_queue_answers_408_without_compute(monkeypatch):
    async def go():
        sched, compute = _scheduler(monkeypatch, compute_threads=1)
        blockers = await _block_threads(sched, compute, 1)
        late = _submit(sched, "late", deadline=time.monotonic() + 0.02)
        alive = _submit(sched, "alive")
        await _until(late.expired)
        compute.gate.set()
        resps = await _answers(blockers + [late, alive])
        await sched.stop()
        return sched, compute, resps

    sched, compute, resps = asyncio.run(go())
    late = resps[1]
    assert late["status"] == protocol.STATUS_DEADLINE
    assert late["error"]["type"] == "DeadlineExpired"
    assert all("late" not in batch for batch in compute.batches)
    assert compute.batches[-1] == ["alive"] and resps[2]["ok"]
    assert sched.queue_depth == 0


def test_stop_dispatches_pending_riders(monkeypatch):
    """Items pending at stop are dispatched as threads free, not dropped."""

    async def go():
        sched, compute = _scheduler(monkeypatch, compute_threads=2)
        blockers = await _block_threads(sched, compute, 2)
        riders = [_submit(sched, f"r{i}", tenant=f"t{i % 2}") for i in range(6)]
        stopping = asyncio.ensure_future(sched.stop(drain_s=30.0))
        await asyncio.sleep(0.01)
        compute.gate.set()
        resps = await _answers(blockers + riders)
        await stopping
        return sched, compute, resps

    sched, compute, resps = asyncio.run(go())
    assert all(r["ok"] for r in resps)
    assert sorted(sum(compute.batches[2:], [])) == [f"r{i}" for i in range(6)]
    assert sched.queue_depth == 0


def test_stop_answers_what_drain_leaves_pending(monkeypatch):
    """Past ``drain_s``, pending items are answered 503 draining."""

    async def go():
        sched, compute = _scheduler(monkeypatch, compute_threads=1)
        blockers = await _block_threads(sched, compute, 1)
        riders = [_submit(sched, f"r{i}") for i in range(3)]
        # The blocked thread finishes only after the drain gave up on it.
        threading.Timer(0.3, compute.gate.set).start()
        await sched.stop(drain_s=0.05)
        resps = await _answers(blockers + riders)
        return sched, compute, resps

    sched, compute, resps = asyncio.run(go())
    assert resps[0]["ok"]
    for r in resps[1:]:
        assert r["status"] == protocol.STATUS_UNAVAILABLE and r["shed"] == "draining"
    assert compute.batches == [["block-0"]]
    assert sched.queue_depth == 0
