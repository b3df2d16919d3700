"""Request scheduler: bounded queue, work-conserving batch fusion, deadlines.

The scheduler owns the window between admission and execution:

* **bounded in-system window** — at most ``max_queue`` admitted requests
  exist anywhere between intake and response (intake queue, pending
  list, the compute pool); overflow is an admission refusal (the server
  sheds with reason ``queue``), never an unbounded buffer;
* **work-conserving batch fusion** — whenever a compute thread is idle,
  the oldest pending request is dispatched at once. An SpMV takes with it
  every SpMV queued for the same ``(matrix, policy)`` while the threads
  were busy: one fused :func:`~repro.core.recoded_spmm` call pays the
  A-side stream/decode traffic once (~0.13x per-RHS cost). Column ``j``
  of the fused result is bit-identical to the SpMV the request would
  have run alone — fusion is a pure data-movement optimization,
  invisible in the numerics, and it happens only under load;
* **fairness bounds** — dispatch is FIFO across keys (an SpMM dispatches
  alone, in its turn), and a batch takes at most ``max_fuse`` riders,
  chosen round-robin across tenants; no rider waits longer than it takes
  a thread to free;
* **deadlines and cooperative cancellation** — an item whose deadline
  passes before dispatch is answered ``408`` without touching the
  executor; mid-flight, the executor polls the batch's cancel check at
  every block boundary and abandons the run
  (:class:`~repro.core.executor.RunCancelled`) once every rider's
  deadline has passed, returning borrowed decode/cache capacity early.

Compute runs on a small thread pool (numpy multiplies release the GIL;
block decodes run inline on the compute thread through the shared
engine) so the asyncio loop never blocks on linear algebra.
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.codecs.errors import BlockDecodeError, CodecError
from repro.core import RunCancelled, recoded_spmm, recoded_spmv
from repro.serve import protocol
from repro.serve.admission import SHED_DRAINING
from repro.serve.session import MatrixLibrary

#: Sentinel queued to wake the scheduler loop: a batch finished (a compute
#: thread is free) or the scheduler is stopping.
_WAKE = object()


@dataclass(eq=False)
class WorkItem:
    """One admitted compute request travelling through the scheduler.

    Identity equality (``eq=False``): items are unique in-flight objects,
    and the generated ``__eq__`` would compare the numpy payloads inside.
    """

    req: protocol.Request
    cost_bytes: int
    #: Resolved with the response dict (always resolved exactly once).
    future: asyncio.Future = field(repr=False)
    #: Monotonic enqueue instant.
    enqueued: float = 0.0
    #: Absolute monotonic deadline (None = no deadline).
    deadline: float | None = None
    #: This item's own enqueue-to-dispatch wait, stamped at dispatch.
    queue_ms: float = 0.0

    def expired(self, now: float | None = None) -> bool:
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline

    @property
    def fuse_key(self) -> tuple[str, str]:
        return (self.req.matrix, self.req.policy)

    @property
    def fusable(self) -> bool:
        """Only 1-D SpMV requests fuse; SpMM dispatches alone."""
        return self.req.op == "spmv"


def select_batch(
    items: list[WorkItem], max_fuse: int
) -> tuple[list[WorkItem], list[WorkItem]]:
    """Pick up to ``max_fuse`` items round-robin across tenants.

    Returns ``(picked, leftover)``; within one tenant FIFO order is kept.
    Round-robin means a tenant that queued 50 requests shares a fused
    batch with the tenant that queued 1 — per-tenant fairness inside a
    batch, not just across batches.
    """
    if len(items) <= max_fuse:
        return list(items), []
    queues: "collections.OrderedDict[str, collections.deque[WorkItem]]" = (
        collections.OrderedDict()
    )
    for item in items:
        queues.setdefault(item.req.tenant, collections.deque()).append(item)
    picked: list[WorkItem] = []
    while len(picked) < max_fuse and queues:
        for tenant in list(queues):
            picked.append(queues[tenant].popleft())
            if not queues[tenant]:
                del queues[tenant]
            if len(picked) >= max_fuse:
                break
    leftover = [it for it in items if it not in picked]
    return picked, leftover


class FusionScheduler:
    """Asyncio-side intake + work-conserving thread-pool dispatch with fusion."""

    def __init__(
        self,
        library: MatrixLibrary,
        engine,
        *,
        memory=None,
        compute_threads: int = 2,
        max_fuse: int = 8,
        max_queue: int = 64,
        on_done=None,
    ):
        if max_fuse < 1:
            raise ValueError(f"max_fuse must be >= 1, got {max_fuse}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.library = library
        self.engine = engine
        self.memory = memory
        self.max_fuse = max_fuse
        self.max_queue = max_queue
        #: Called (item, response) on the event loop after each item
        #: resolves — the server releases admission reservations here.
        self.on_done = on_done
        self._queue: asyncio.Queue = asyncio.Queue()
        #: Admitted items pulled off the intake queue, oldest first.
        self._pending: list[WorkItem] = []
        self._depth = 0
        self._depth_lock = threading.Lock()
        self._threads = max(1, compute_threads)
        #: Compute threads with no batch (touched on the event loop only).
        self._idle = self._threads
        self._stopping = False
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self._threads, thread_name_prefix="serve-compute"
        )
        self._task: asyncio.Task | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._task = loop.create_task(self._run(), name="serve-scheduler")

    async def stop(self, drain_s: float = 5.0) -> None:
        """Drain: dispatch pending items as threads free, for up to
        ``drain_s``; then answer what still waits ``503 draining``."""
        if self._task is not None:
            self._stopping = True
            self._queue.put_nowait(_WAKE)
            if not (await asyncio.wait({self._task}, timeout=drain_s))[0]:
                self._task.cancel()
                for item in self._pending:
                    self._resolve(item, protocol.error_response(
                        item.req.id, item.req.op, protocol.STATUS_UNAVAILABLE,
                        "Shed", f"admission refused: {SHED_DRAINING}",
                        shed=SHED_DRAINING,
                    ))
                self._pending.clear()
            self._task = None
        self._pool.shutdown(wait=True)

    @property
    def queue_depth(self) -> int:
        with self._depth_lock:
            return self._depth

    # -- intake -------------------------------------------------------------

    def try_submit(self, item: WorkItem) -> bool:
        """Enqueue; False when the scheduler is full (caller sheds).

        ``max_queue`` bounds *admitted-but-unfinished* requests — the
        count drops when the item's response resolves, not when it moves
        from the intake queue into the pending list or the compute pool.
        Anything less would just relocate the unbounded buffer.
        """
        with self._depth_lock:
            if self._depth >= self.max_queue:
                return False
            self._depth += 1
        item.enqueued = time.monotonic()
        self._queue.put_nowait(item)
        reg = obs.registry()
        reg.gauge("serve.queue_depth").set(self.queue_depth)
        return True

    # -- scheduler loop -----------------------------------------------------

    async def _run(self) -> None:
        pending = self._pending
        while True:
            item = await self._queue.get()
            while True:
                if item is not _WAKE:
                    pending.append(item)
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            while pending and self._idle:
                self._dispatch(self._take_batch(pending))
            if self._stopping and not pending and self._idle == self._threads:
                return

    def _take_batch(self, pending: list[WorkItem]) -> list[WorkItem]:
        """Remove and return the oldest item with its fusable riders."""
        head = pending[0]
        if not head.fusable:
            return [pending.pop(0)]
        batch, _ = select_batch(
            [it for it in pending if it.fusable and it.fuse_key == head.fuse_key],
            self.max_fuse,
        )
        taken = set(batch)
        pending[:] = [it for it in pending if it not in taken]
        return batch

    def _expire(self, item: WorkItem) -> None:
        """Answer 408 without touching the executor."""
        reg = obs.registry()
        reg.counter("serve.deadline_expired").inc()
        resp = protocol.error_response(
            item.req.id,
            item.req.op,
            protocol.STATUS_DEADLINE,
            "DeadlineExpired",
            f"deadline passed before dispatch (queued "
            f"{(time.monotonic() - item.enqueued) * 1e3:.1f} ms)",
        )
        self._resolve(item, resp)

    def _resolve(self, item: WorkItem, resp: dict) -> None:
        with self._depth_lock:
            self._depth -= 1
        obs.registry().gauge("serve.queue_depth").set(self.queue_depth)
        if not item.future.done():
            item.future.set_result(resp)
        if self.on_done is not None:
            self.on_done(item, resp)

    # -- dispatch -----------------------------------------------------------

    def _dispatch(self, batch: list[WorkItem]) -> None:
        """Hand one batch to an idle compute thread; resolve futures on the loop."""
        now = time.monotonic()
        live = []
        for item in batch:
            if item.expired(now):
                self._expire(item)
            else:
                live.append(item)
        if not live:
            return
        reg = obs.registry()
        for item in live:
            item.queue_ms = (now - item.enqueued) * 1e3
            reg.histogram("serve.queue_wait_ms").observe(item.queue_ms)
        if len(live) > 1:
            reg.counter("serve.fused_batches").inc()
            reg.counter("serve.fused_requests").inc(len(live))
        reg.histogram("serve.fusion_width").observe(len(live))
        self._idle -= 1

        def _finish(f: asyncio.Future) -> None:
            # The thread is free before any rider hears back; the loop
            # wakes only if a pending item (or a drain) is waiting for it.
            self._idle += 1
            if self._pending or self._stopping:
                self._queue.put_nowait(_WAKE)
            try:
                responses = f.result()
            except Exception as exc:  # pragma: no cover - defensive
                responses = [
                    protocol.error_response(
                        it.req.id, it.req.op, protocol.STATUS_ERROR,
                        type(exc).__name__, str(exc),
                    )
                    for it in live
                ]
            for item, resp in zip(live, responses):
                self._resolve(item, resp)

        cf = self._pool.submit(self._compute_batch, live)
        asyncio.wrap_future(cf).add_done_callback(_finish)

    # -- compute (runs on the thread pool) ----------------------------------

    def _compute_batch(self, batch: list[WorkItem]) -> list[dict]:
        req0 = batch[0].req
        name, policy = req0.matrix, req0.policy
        source = self.library.reader(name)

        def cancelled() -> bool:
            # A fused batch aborts only when *every* rider has expired:
            # one late deadline cannot cancel another tenant's result.
            return all(it.expired() for it in batch)

        kwargs = dict(
            engine=self.engine,
            matrix_id=name,
            policy=policy,
            cancel=cancelled,
        )
        if self.memory is not None:
            kwargs["memory"] = self.memory
        t0 = time.perf_counter()
        try:
            if req0.op == "spmm":
                y, stats = recoded_spmm(source, req0.x, **kwargs)
                results = [y]
            elif len(batch) == 1:
                y, stats = recoded_spmv(source, req0.x, **kwargs)
                results = [y]
            else:
                X = np.stack([it.req.x for it in batch], axis=1)
                Y, stats = recoded_spmm(source, X, **kwargs)
                results = [np.ascontiguousarray(Y[:, j]) for j in range(len(batch))]
        except RunCancelled:
            obs.registry().counter("serve.deadline_cancelled").inc(len(batch))
            return [
                protocol.error_response(
                    it.req.id, it.req.op, protocol.STATUS_DEADLINE,
                    "DeadlineExpired",
                    "deadline passed mid-compute; run abandoned at a block "
                    "boundary",
                )
                for it in batch
            ]
        except CodecError as exc:
            block_id = getattr(exc, "block_id", None)
            err_name = (
                type(exc).__name__
                if isinstance(exc, BlockDecodeError)
                else "CodecError"
            )
            obs.registry().counter("serve.decode_failures").inc(len(batch))
            return [
                protocol.error_response(
                    it.req.id, it.req.op, protocol.STATUS_ERROR,
                    err_name, str(exc), block_id=block_id,
                )
                for it in batch
            ]
        compute_ms = (time.perf_counter() - t0) * 1e3
        fused = len(batch)
        responses = []
        for item, y in zip(batch, results):
            if item.expired():
                # Computed, but too late for this rider: honest 408 (the
                # result is discarded, never a stale success).
                obs.registry().counter("serve.deadline_expired").inc()
                responses.append(
                    protocol.error_response(
                        item.req.id, item.req.op, protocol.STATUS_DEADLINE,
                        "DeadlineExpired", "result ready after deadline",
                    )
                )
                continue
            responses.append(
                protocol.response(
                    item.req.id,
                    item.req.op,
                    protocol.STATUS_OK,
                    y=protocol.encode_array(y),
                    policy=stats.policy,
                    degraded_blocks=stats.degraded_blocks,
                    fused=fused,
                    traffic_ratio=stats.traffic_ratio,
                    queue_ms=item.queue_ms,
                    compute_ms=compute_ms,
                )
            )
        return responses
