"""Span-based tracing with Chrome-trace-format export.

Wrap a hot region in ``with trace("huffman.decode", block=i):`` and, when
tracing is enabled, a complete ("ph": "X") event is recorded with
microsecond timestamps. The resulting JSON loads directly into
``chrome://tracing`` / Perfetto.

Tracing is **off by default** — a disabled :func:`trace` call returns a
shared no-op context manager, so instrumented code costs a function call
and a flag test per span.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Iterator


class _NullSpan:
    """Shared do-nothing span for the tracing-disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_tracer", "_name", "_args", "_t0")

    def __init__(self, tracer: "Tracer", name: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> None:
        self._t0 = time.perf_counter()
        return None

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        self._tracer._record(self._name, self._t0, t1, self._args)
        return None


class Tracer:
    """Collects complete-span events in Chrome trace format."""

    def __init__(self, enabled: bool = False):
        self._lock = threading.Lock()
        self._events: list[dict] = []
        self._enabled = enabled

    # -- control -------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def start(self) -> None:
        self._enabled = True

    def stop(self) -> None:
        self._enabled = False

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **args):
        """Context manager timing one region; no-op when disabled."""
        if not self._enabled:
            return _NULL_SPAN
        return _Span(self, name, args)

    def _record(self, name: str, t0: float, t1: float, args: dict) -> None:
        event = {
            "name": name,
            "ph": "X",
            "ts": t0 * 1e6,
            "dur": (t1 - t0) * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_native_id(),
        }
        if args:
            event["args"] = args
        with self._lock:
            self._events.append(event)

    # -- export --------------------------------------------------------------

    def events(self) -> list[dict]:
        """Snapshot of raw events, sorted by (pid, tid, ts)."""
        with self._lock:
            events = list(self._events)
        return sorted(events, key=lambda e: (e["pid"], e["tid"], e["ts"]))

    def chrome_trace(self) -> dict:
        """The Chrome trace-event JSON object."""
        return {"traceEvents": self.events(), "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh, indent=1)


# ---------------------------------------------------------------------------
# The process-wide current tracer
# ---------------------------------------------------------------------------

_DEFAULT_TRACER = Tracer()
_current_tracer = _DEFAULT_TRACER
_swap_lock = threading.Lock()


def tracer() -> Tracer:
    """The current process-wide tracer."""
    return _current_tracer


def trace(name: str, **args):
    """Span on the current tracer: ``with trace("stage", block=i): ...``."""
    return _current_tracer.span(name, **args)


def enable_tracing() -> None:
    _current_tracer.start()


def disable_tracing() -> None:
    _current_tracer.stop()


@contextmanager
def scoped_tracer(t: Tracer | None = None) -> Iterator[Tracer]:
    """Swap the process-wide current tracer for the duration of the block."""
    global _current_tracer
    t = t if t is not None else Tracer()
    with _swap_lock:
        previous, _current_tracer = _current_tracer, t
    try:
        yield t
    finally:
        with _swap_lock:
            _current_tracer = previous


def write_trace(path: str, t: Tracer | None = None) -> None:
    """Write the (current) tracer's Chrome trace JSON to ``path``."""
    (t or _current_tracer).write(path)
