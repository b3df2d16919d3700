"""A minimal asyncio client for ``repro serve``, plus a blocking wrapper.

:class:`ServeClient` speaks the NDJSON protocol: requests may be
pipelined, responses are matched back by ``id`` from a background read
loop, so N concurrent ``spmv`` awaits on one connection queue together —
exactly the pattern the batch-fusion scheduler coalesces while its
compute threads are busy. :class:`BlockingServeClient` wraps it behind a
private event loop thread for synchronous callers (benchmarks, CLI
probes, tests).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading

import numpy as np

from repro.serve import protocol


class ServeError(RuntimeError):
    """A non-OK response, with the typed error payload attached."""

    def __init__(self, resp: dict):
        error = resp.get("error") or {}
        super().__init__(
            f"[{resp.get('status')}] {error.get('type', 'Error')}: "
            f"{error.get('message', 'request failed')}"
        )
        self.resp = resp
        self.status = resp.get("status")
        self.err_type = error.get("type")
        self.shed_reason = resp.get("shed")


class ServeClient:
    """One NDJSON connection with id-matched response dispatch."""

    def __init__(self, host: str, port: int, tenant: str = "anon"):
        self.host = host
        self.port = port
        self.tenant = tenant
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._pending: dict[str, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._read_task: asyncio.Task | None = None

    async def connect(self) -> "ServeClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=protocol.MAX_LINE_BYTES
        )
        self._read_task = asyncio.ensure_future(self._read_loop())
        return self

    async def close(self) -> None:
        if self._read_task is not None:
            self._read_task.cancel()
            try:
                await self._read_task
            except (asyncio.CancelledError, Exception):
                pass
            self._read_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
        for fut in self._pending.values():
            if not fut.done():
                fut.set_exception(ConnectionError("client closed"))
        self._pending.clear()

    async def __aenter__(self) -> "ServeClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                resp = json.loads(line)
                fut = self._pending.pop(resp.get("id", ""), None)
                if fut is not None and not fut.done():
                    fut.set_result(resp)
        except (asyncio.CancelledError, ConnectionResetError):
            raise
        finally:
            for fut in self._pending.values():
                if not fut.done():
                    fut.set_exception(ConnectionError("server closed connection"))
            self._pending.clear()

    async def request(self, msg: dict) -> dict:
        """Send one raw request dict; await its id-matched response."""
        assert self._writer is not None, "connect() first"
        rid = msg.setdefault("id", f"c{next(self._ids)}")
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rid] = fut
        self._writer.write(protocol.dump_line(msg))
        await self._writer.drain()
        return await fut

    async def spmv(
        self,
        matrix: str,
        x: np.ndarray,
        *,
        deadline_ms: float | None = None,
        policy: str = "strict",
        raise_on_error: bool = True,
    ) -> dict:
        """One SpMV; the returned dict carries ``y`` decoded to ndarray."""
        msg = {
            "op": "spmv",
            "tenant": self.tenant,
            "matrix": matrix,
            "x": protocol.encode_array(np.asarray(x, dtype=np.float64)),
            "policy": policy,
        }
        if deadline_ms is not None:
            msg["deadline_ms"] = deadline_ms
        resp = await self.request(msg)
        return self._finish(resp, raise_on_error)

    async def spmm(
        self,
        matrix: str,
        X: np.ndarray,
        *,
        deadline_ms: float | None = None,
        policy: str = "strict",
        raise_on_error: bool = True,
    ) -> dict:
        msg = {
            "op": "spmm",
            "tenant": self.tenant,
            "matrix": matrix,
            "x": protocol.encode_array(np.asarray(X, dtype=np.float64)),
            "policy": policy,
        }
        if deadline_ms is not None:
            msg["deadline_ms"] = deadline_ms
        resp = await self.request(msg)
        return self._finish(resp, raise_on_error)

    async def stats(self) -> dict:
        return await self.request({"op": "stats", "tenant": self.tenant})

    async def health(self) -> dict:
        return await self.request({"op": "health", "tenant": self.tenant})

    @staticmethod
    def _finish(resp: dict, raise_on_error: bool) -> dict:
        if not resp.get("ok"):
            if raise_on_error:
                raise ServeError(resp)
            return resp
        if "y" in resp:
            resp["y"] = protocol.decode_array(resp["y"], what="y")
        return resp


class BlockingServeClient:
    """Synchronous facade: a private event-loop thread drives a
    :class:`ServeClient`. Safe to call from any thread; benchmarks use
    one per simulated tenant."""

    def __init__(self, host: str, port: int, tenant: str = "anon"):
        self._client = ServeClient(host, port, tenant)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name=f"serve-client-{tenant}", daemon=True
        )
        self._thread.start()
        self._run(self._client.connect())

    def _run(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout=120)

    def spmv(self, matrix: str, x, **kw) -> dict:
        return self._run(self._client.spmv(matrix, x, **kw))

    def spmm(self, matrix: str, X, **kw) -> dict:
        return self._run(self._client.spmm(matrix, X, **kw))

    def spmv_many(self, matrix: str, xs, **kw) -> list[dict]:
        """Issue many SpMVs concurrently on one connection (fusion bait)."""

        async def _go():
            return await asyncio.gather(
                *(self._client.spmv(matrix, x, **kw) for x in xs)
            )

        return self._run(_go())

    def stats(self) -> dict:
        return self._run(self._client.stats())

    def health(self) -> dict:
        return self._run(self._client.health())

    def close(self) -> None:
        try:
            self._run(self._client.close())
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            self._loop.close()

    def __enter__(self) -> "BlockingServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
