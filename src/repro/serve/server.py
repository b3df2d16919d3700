"""The ``repro serve`` daemon: an asyncio NDJSON matrix server.

One process serves every ``.dsh`` container under a root directory over
a TCP port. Connections speak the newline-delimited JSON protocol of
:mod:`repro.serve.protocol`; the same port also answers plain HTTP
``GET /metrics`` (Prometheus text exposition of the live registry) and
``GET /health``, so a scrape target needs no second listener.

The request path is deliberately short and every stage refuses rather
than buffers:

    parse -> validate -> admission (429 shed) -> bounded queue (429 shed)
          -> first idle compute thread (SpMVs queued behind busy threads
             for the same matrix ride along, fused) -> response

Results are **bit-identical** to a direct :func:`repro.core.recoded_spmv`
/ ``recoded_spmm`` call with the same policy — serving, fusion, caching
and degradation never touch the numerics, only who pays for data
movement and when. Under ``strict`` a decode failure is a typed ``500``;
under ``degrade`` the executor substitutes identity blocks and the
response accounts for every degraded block. Shutdown is graceful: stop
accepting, shed new work as ``draining``, dispatch every queued request
as threads free (answering ``503 draining`` what ``drain_s`` leaves
queued), end open connections, then close the mmap readers.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field

from repro import obs
from repro.codecs.engine import DecodedBlockCache, RecodeEngine
from repro.obs.export import to_prometheus
from repro.serve import protocol
from repro.serve.admission import (
    AdmissionController,
    SHED_DRAINING,
    SHED_INFLIGHT_BYTES,
    SHED_QUEUE,
    SHED_TENANT_RATE,
)
from repro.serve.scheduler import FusionScheduler, WorkItem
from repro.serve.session import (
    DEFAULT_MAX_MATRIX_FRAC,
    DEFAULT_SERVE_CACHE_BYTES,
    MatrixLibrary,
    TenantRegistry,
)

#: Default global inflight-bytes budget (estimated decode traffic).
DEFAULT_INFLIGHT_BUDGET = 1 * 1024 * 1024 * 1024


@dataclass
class ServeConfig:
    """Everything a :class:`MatrixServer` needs, CLI-mappable 1:1."""

    root: str
    host: str = "127.0.0.1"
    port: int = 0
    cache_bytes: int = DEFAULT_SERVE_CACHE_BYTES
    max_matrix_frac: float = DEFAULT_MAX_MATRIX_FRAC
    inflight_budget_bytes: int = DEFAULT_INFLIGHT_BUDGET
    #: Per-tenant admission rate (requests/s); None disables.
    tenant_rate: float | None = None
    tenant_burst: float = 8.0
    max_fuse: int = 8
    max_queue: int = 64
    compute_threads: int = 2
    #: mmap residency budget per container (PR 7); None = unbounded.
    residency_budget: int | None = None
    #: Seconds to wait for in-flight work at shutdown.
    drain_s: float = 5.0


class MatrixServer:
    """Owns the library, engine, admission, scheduler and the listener."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.library = MatrixLibrary(
            config.root, residency_budget=config.residency_budget
        )
        self.cache = DecodedBlockCache(
            max_bytes=config.cache_bytes, max_matrix_frac=config.max_matrix_frac
        )
        self.engine = RecodeEngine(cache=self.cache)
        self.admission = AdmissionController(
            inflight_budget_bytes=config.inflight_budget_bytes,
            tenant_rate=config.tenant_rate,
            tenant_burst=config.tenant_burst,
        )
        self.tenants = TenantRegistry()
        self.scheduler = FusionScheduler(
            self.library,
            self.engine,
            compute_threads=config.compute_threads,
            max_fuse=config.max_fuse,
            max_queue=config.max_queue,
            on_done=self._on_done,
        )
        self._server: asyncio.base_events.Server | None = None
        self._draining = False
        self._started = time.time()
        #: Open connections: each handler task and its stream reader.
        self._conn_tasks: dict[asyncio.Task, asyncio.StreamReader] = {}

    # -- lifecycle ----------------------------------------------------------

    @property
    def port(self) -> int:
        """The actual bound port (useful with ``port=0``)."""
        if self._server is None:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        obs.registry().gauge("serve.up").set(1)

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful: stop accepting, drain, tear down the compute pool and mmaps."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.scheduler.stop(drain_s=self.config.drain_s)
        # End each open connection as a client hang-up would, so that its
        # handler returns: one that ends cancelled makes asyncio (3.11) log
        # an ERROR. Only a handler still blocked after drain_s, writing to
        # a client that stopped reading, is cancelled.
        for reader in self._conn_tasks.values():
            reader.feed_eof()
        if self._conn_tasks:
            _, stuck = await asyncio.wait(list(self._conn_tasks), timeout=self.config.drain_s)
            for task in stuck:
                task.cancel()
            await asyncio.gather(*stuck, return_exceptions=True)
        self.library.close()
        obs.registry().gauge("serve.up").set(0)

    # -- connection handling ------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks[task] = reader
            task.add_done_callback(lambda t: self._conn_tasks.pop(t, None))
        obs.registry().counter("serve.connections").inc()
        wlock = asyncio.Lock()
        line_tasks: set[asyncio.Task] = set()
        buf = bytearray()
        try:
            head = await reader.read(5)
            if not head:
                return
            if head[:4] in (b"GET ", b"HEAD") or head == b"POST ":
                await self._handle_http(head, reader, writer)
                return
            buf += head
            while True:
                nl = buf.find(b"\n")
                while nl < 0:
                    if len(buf) > protocol.MAX_LINE_BYTES:
                        raise protocol.ProtocolError(
                            f"request line exceeds {protocol.MAX_LINE_BYTES} bytes"
                        )
                    chunk = await reader.read(1 << 16)
                    if not chunk:
                        return
                    buf += chunk
                    nl = buf.find(b"\n")
                line = bytes(buf[:nl])
                del buf[: nl + 1]
                if not line.strip():
                    continue
                t = asyncio.ensure_future(self._handle_line(line, writer, wlock))
                line_tasks.add(t)
                t.add_done_callback(line_tasks.discard)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        except protocol.ProtocolError as exc:
            await self._write(
                writer,
                wlock,
                protocol.error_response(
                    "", "", protocol.STATUS_BAD_REQUEST, "ProtocolError", str(exc)
                ),
            )
        finally:
            if line_tasks:
                await asyncio.gather(*line_tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _write(
        self, writer: asyncio.StreamWriter, wlock: asyncio.Lock, msg: dict
    ) -> None:
        payload = protocol.dump_line(msg)
        async with wlock:
            try:
                writer.write(payload)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- request path -------------------------------------------------------

    async def _handle_line(
        self, line: bytes, writer: asyncio.StreamWriter, wlock: asyncio.Lock
    ) -> None:
        try:
            req = protocol.parse_line(line)
        except protocol.ProtocolError as exc:
            rid = ""
            try:
                import json

                rid = str(json.loads(line).get("id", "")) or ""
            except Exception:
                pass
            await self._write(
                writer,
                wlock,
                protocol.error_response(
                    rid, "", protocol.STATUS_BAD_REQUEST, "ProtocolError", str(exc)
                ),
            )
            return
        if req.op == "health":
            await self._write(writer, wlock, self._health(req))
            return
        if req.op == "stats":
            await self._write(writer, wlock, self._stats(req))
            return
        resp = await self._compute(req)
        await self._write(writer, wlock, resp)

    def _shed(self, req: protocol.Request, reason: str) -> dict:
        reg = obs.registry()
        reg.counter(f"serve.shed_{reason}").inc()
        reg.counter("serve.shed", tenant=req.tenant).inc()
        session = self.tenants.get(req.tenant)
        session.shed += 1
        return protocol.error_response(
            req.id,
            req.op,
            protocol.STATUS_SHED
            if reason != SHED_DRAINING
            else protocol.STATUS_UNAVAILABLE,
            "Shed",
            f"admission refused: {reason}",
            shed=reason,
        )

    async def _compute(self, req: protocol.Request) -> dict:
        reg = obs.registry()
        session = self.tenants.get(req.tenant)
        session.requests += 1
        reg.counter("serve.requests", tenant=req.tenant).inc()
        if self._draining:
            return self._shed(req, SHED_DRAINING)
        if req.matrix not in self.library:
            session.failed += 1
            return protocol.error_response(
                req.id,
                req.op,
                protocol.STATUS_NOT_FOUND,
                "UnknownMatrix",
                f"no matrix {req.matrix!r}; serving {list(self.library.names())}",
            )
        info = self.library.info(req.matrix)
        ncols = info.shape[1]
        if req.x.shape[0] != ncols:
            session.failed += 1
            return protocol.error_response(
                req.id,
                req.op,
                protocol.STATUS_BAD_REQUEST,
                "ShapeMismatch",
                f"x has {req.x.shape[0]} rows; {req.matrix} needs {ncols}",
            )
        cost = info.estimated_cost_bytes(req.nrhs)
        adm = self.admission.try_admit(req.tenant, cost)
        if not adm.admitted:
            return self._shed(req, adm.reason)
        session.admitted += 1
        reg.gauge("serve.inflight_bytes").set(self.admission.inflight_bytes)
        loop = asyncio.get_running_loop()
        item = WorkItem(
            req=req,
            cost_bytes=adm.cost_bytes,
            future=loop.create_future(),
            deadline=(
                None
                if req.deadline_ms is None
                else time.monotonic() + req.deadline_ms / 1000.0
            ),
        )
        if not self.scheduler.try_submit(item):
            self.admission.release(adm.cost_bytes)
            session.admitted -= 1
            reg.gauge("serve.inflight_bytes").set(self.admission.inflight_bytes)
            return self._shed(req, SHED_QUEUE)
        return await item.future

    def _on_done(self, item: WorkItem, resp: dict) -> None:
        """Scheduler completion hook: release capacity, account outcome."""
        self.admission.release(item.cost_bytes)
        reg = obs.registry()
        reg.gauge("serve.inflight_bytes").set(self.admission.inflight_bytes)
        session = self.tenants.get(item.req.tenant)
        status = resp.get("status")
        if resp.get("ok"):
            session.completed += 1
            reg.counter("serve.completed", tenant=item.req.tenant).inc()
            if resp.get("degraded_blocks", 0) > 0:
                session.degraded_requests += 1
                reg.counter("serve.degraded_requests", tenant=item.req.tenant).inc()
        elif resp.get("shed"):
            session.shed += 1
            reg.counter(f"serve.shed_{resp['shed']}").inc()
            reg.counter("serve.shed", tenant=item.req.tenant).inc()
        elif status == protocol.STATUS_DEADLINE:
            session.deadline_missed += 1
            reg.counter("serve.deadline_missed", tenant=item.req.tenant).inc()
        else:
            session.failed += 1
            reg.counter("serve.failed", tenant=item.req.tenant).inc()
        reg.histogram("serve.request_ms").observe(
            (time.monotonic() - item.enqueued) * 1e3
        )

    # -- read-only ops ------------------------------------------------------

    def _health(self, req: protocol.Request) -> dict:
        return protocol.response(
            req.id,
            "health",
            protocol.STATUS_UNAVAILABLE if self._draining else protocol.STATUS_OK,
            state="draining" if self._draining else "serving",
            protocol_version=protocol.PROTOCOL_VERSION,
            matrices=list(self.library.names()),
            uptime_s=time.time() - self._started,
        )

    def _stats(self, req: protocol.Request) -> dict:
        cache = self.cache
        return protocol.response(
            req.id,
            "stats",
            protocol.STATUS_OK,
            tenants=[s.as_dict() for s in self.tenants.all()],
            inflight_bytes=self.admission.inflight_bytes,
            inflight_budget_bytes=self.admission.inflight_budget_bytes,
            queue_depth=self.scheduler.queue_depth,
            cache={
                "hits": cache.stats.hits,
                "misses": cache.stats.misses,
                "evictions": cache.stats.evictions,
                "matrix_evictions": cache.matrix_evictions,
                "rejected": cache.rejected,
                "current_bytes": cache.stats.current_bytes,
                "max_bytes": cache.max_bytes,
                "matrix_share_bytes": cache.matrix_share_bytes,
            },
            matrices={
                name: {
                    "shape": list(self.library.info(name).shape),
                    "nnz": self.library.info(name).nnz,
                    "container_bytes": self.library.info(name).container_bytes,
                    "cached_bytes": cache.matrix_bytes(name),
                }
                for name in self.library.names()
            },
        )

    # -- HTTP (Prometheus scrape + health probe) ----------------------------

    async def _handle_http(
        self,
        head: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            request_line = head + await asyncio.wait_for(
                reader.readline(), timeout=5.0
            )
        except asyncio.TimeoutError:
            return
        parts = request_line.decode("latin-1", "replace").split()
        path = parts[1] if len(parts) >= 2 else "/"
        # Drain headers (bounded) so keep-alive clients see a clean close.
        for _ in range(100):
            try:
                hdr = await asyncio.wait_for(reader.readline(), timeout=5.0)
            except asyncio.TimeoutError:
                break
            if hdr in (b"\r\n", b"\n", b""):
                break
        if path.startswith("/metrics"):
            body = to_prometheus(obs.registry().snapshot())
            status = "200 OK"
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        elif path.startswith("/health"):
            body = "draining\n" if self._draining else "ok\n"
            status = "503 Service Unavailable" if self._draining else "200 OK"
            ctype = "text/plain; charset=utf-8"
        else:
            body = "try /metrics or /health\n"
            status = "404 Not Found"
            ctype = "text/plain; charset=utf-8"
        payload = body.encode()
        writer.write(
            (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
            + payload
        )
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass


class ServerThread:
    """Run a :class:`MatrixServer` on a dedicated event-loop thread.

    The blocking embedding API: benchmarks and tests boot a real server
    (ephemeral port), talk to it over TCP from the calling thread, and
    tear it down deterministically — same code path as ``repro serve``
    minus the signal handlers.
    """

    def __init__(self, config: ServeConfig):
        self.config = config
        self.server: MatrixServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="serve-daemon", daemon=True
        )

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def _main() -> None:
            self._stop = asyncio.Event()

            def ready(server: MatrixServer) -> None:
                self.server = server
                self._ready.set()

            await run_server(self.config, ready=ready, stop_event=self._stop)

        try:
            self._loop.run_until_complete(_main())
        except BaseException as exc:  # pragma: no cover - surfaced in join
            self._error = exc
        finally:
            self._ready.set()
            self._loop.close()

    def start(self, timeout: float = 30.0) -> int:
        """Boot; returns the bound port."""
        self._thread.start()
        if not self._ready.wait(timeout):  # pragma: no cover - defensive
            raise TimeoutError("server failed to become ready")
        if self._error is not None:
            raise self._error
        assert self.server is not None
        return self.server.port

    def stop(self, timeout: float = 30.0) -> None:
        """Drain and join; re-raises any server-side crash."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        self._thread.join(timeout)
        if self._error is not None:
            raise self._error

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


async def run_server(config: ServeConfig, *, ready=None, stop_event=None) -> None:
    """Boot a server, optionally signal readiness, serve until stopped.

    Args:
        config: the server configuration.
        ready: optional callback invoked with the :class:`MatrixServer`
            once the port is bound (tests grab the ephemeral port here).
        stop_event: optional :class:`asyncio.Event`; when set the server
            drains and exits. Without one, runs until cancelled.
    """
    server = MatrixServer(config)
    await server.start()
    if ready is not None:
        ready(server)
    try:
        if stop_event is not None:
            await stop_event.wait()
        else:
            await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
