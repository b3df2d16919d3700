"""Backend-dispatch registry for the hot codec kernels.

The codec stack's inner loops (Huffman bit packing/unpacking, Snappy
matching and element materialization, batch varints) exist in up to three
implementations:

* ``python`` — the from-scratch reference loops. Always available, always
  correct; the byte-level ground truth everything else is checked against.
* ``numpy`` — vectorized fast paths that produce **byte-identical** output
  (and raise the same :mod:`repro.codecs.errors` types on corrupt input).
* ``native`` — the sequential codec loops (Huffman decode, Snappy
  compress and decompress, and ``dsh_decode_span``, which decodes a span
  of blocks per call) in C, built on first use; available only when a C
  compiler is. Its other ops resolve to ``numpy`` (:data:`BASE_BACKEND`).

A *kernel op* is a name like ``"huffman_decode"``; each backend registers
one callable per op. :func:`dispatch` resolves the active backend per
call, so a backend switch (env var, CLI flag, :func:`use_backend`) takes
effect immediately. A run of calls (the blocks of
one recoded SpMV) binds the op once instead (:meth:`KernelRegistry.bind`):
one resolution, and one ``kernels.dispatch`` update when it flushes.

Selection order: :func:`set_backend` (CLI / code) > the
``REPRO_KERNEL_BACKEND`` environment variable > autodetect (the first
available of ``native``, ``numpy``, ``python``). An op missing from the
selected backend and its base — or raising :class:`KernelUnavailable` at
call time — falls back to the ``python`` reference and ticks the
``kernels.fallback`` counter; every successful outermost dispatch ticks
``kernels.dispatch`` labelled ``op``/``backend`` (the backend that served
it). Dispatches made from inside a kernel count as part of it.
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections.abc import Callable, Iterator

from repro import obs

#: Environment variable consulted when no backend was set explicitly.
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: The reference backend every op must provide.
REFERENCE_BACKEND = "python"

#: Backends in autodetect preference order.
KNOWN_BACKENDS = ("native", "numpy", "python")

#: Where a backend's unimplemented ops resolve, without a fallback tick.
BASE_BACKEND = {"native": "numpy"}


class KernelUnavailable(RuntimeError):
    """A backend cannot service this op/call; dispatch retries on the
    reference backend. Raise it early — before any output is produced —
    so the fallback re-runs the op from scratch."""


#: Per-thread "a dispatch is running" flag. Ops a kernel dispatches inside
#: its own call (the reference ``dsh_decode_span``'s per-record Huffman and
#: Snappy) are part of it: only the outermost call ticks ``kernels.dispatch``.
_nesting = threading.local()


class KernelRegistry:
    """Op table: ``(op, backend) -> callable`` plus backend selection."""

    def __init__(self) -> None:
        self._impls: dict[tuple[str, str], Callable] = {}
        self._ops: set[str] = set()
        self._lock = threading.Lock()
        # Backends whose module loaded (``native`` also needs its build).
        self._available = {REFERENCE_BACKEND}
        # None = not yet resolved (env/autodetect decides on first use).
        self._selected: str | None = None

    # -- registration --------------------------------------------------------

    def register(self, op: str, backend: str) -> Callable[[Callable], Callable]:
        """Decorator: register ``fn`` as ``op``'s ``backend`` implementation."""
        if backend not in KNOWN_BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; know {KNOWN_BACKENDS}")

        def deco(fn: Callable) -> Callable:
            with self._lock:
                self._impls[(op, backend)] = fn
                self._ops.add(op)
            return fn

        return deco

    def mark_available(self, backend: str) -> None:
        """Called by a backend module once it can serve calls."""
        self._available.add(backend)

    def ops(self) -> tuple[str, ...]:
        return tuple(sorted(self._ops))

    def backends_for(self, op: str) -> tuple[str, ...]:
        return tuple(b for b in KNOWN_BACKENDS if (op, b) in self._impls)

    # -- backend selection ---------------------------------------------------

    def available_backends(self) -> tuple[str, ...]:
        """Backends usable in this process, in preference order."""
        return tuple(b for b in KNOWN_BACKENDS if b in self._available)

    def autodetect(self) -> str:
        return self.available_backends()[0]

    def resolve_backend(self) -> str:
        """The backend dispatch will use right now (resolving env/autodetect)."""
        if self._selected is not None:
            return self._selected
        env = os.environ.get(KERNEL_BACKEND_ENV, "").strip().lower()
        if env in ("", "auto"):
            return self.autodetect()
        if env not in KNOWN_BACKENDS or env not in self.available_backends():
            # A bad env var must not take the process down: fall back to
            # autodetect and leave a visible trail in the metrics.
            obs.registry().counter("kernels.bad_backend_env", value=env).inc()
            return self.autodetect()
        return env

    def set_backend(self, name: str | None) -> None:
        """Pin the backend (``None``/``"auto"`` returns to env/autodetect).

        Raises:
            ValueError: unknown or unavailable backend name.
        """
        if name is None or name == "auto":
            self._selected = None
            return
        if name not in KNOWN_BACKENDS:
            raise ValueError(f"unknown kernel backend {name!r}; know {KNOWN_BACKENDS}")
        if name not in self.available_backends():
            raise ValueError(f"kernel backend {name!r} is not available in this process")
        self._selected = name

    @contextlib.contextmanager
    def use_backend(self, name: str | None) -> Iterator[None]:
        """Scoped :func:`set_backend` (tests, benchmarks)."""
        prev = self._selected
        self.set_backend(name)
        try:
            yield
        finally:
            self._selected = prev

    # -- dispatch ------------------------------------------------------------

    def bind(self, op: str, label: str | None = None) -> "BoundOp":
        """``op`` on the backend active now, for a run of calls (one
        resolution; :meth:`BoundOp.flush` publishes their count, under
        ``label`` when given)."""
        return BoundOp(self, op, label)

    def dispatch(self, op: str, *args, **kwargs):
        """Run ``op`` on the active backend, reference-falling-back."""
        bound = self.bind(op)
        result = bound(*args, **kwargs)
        bound.flush()
        return result


class BoundOp:
    """One op resolved to a backend once, for a run of calls.

    A call behaves as :meth:`KernelRegistry.dispatch` does (reference
    fallback, ``kernels.fallback`` ticks, the nesting rule), but the
    ``kernels.dispatch`` ticks of outermost calls are counted here and
    published by :meth:`flush`. A backend switch applies from the next
    bind on.
    """

    __slots__ = ("op", "backend", "label", "_fn", "_impls", "_served", "_last")

    def __init__(self, registry: KernelRegistry, op: str, label: str | None = None):
        backend = registry.resolve_backend()
        fn = registry._impls.get((op, backend))
        if fn is None and backend in BASE_BACKEND:
            backend = BASE_BACKEND[backend]
            fn = registry._impls.get((op, backend))
        if fn is None and (op, REFERENCE_BACKEND) not in registry._impls:
            raise KeyError(f"kernel op {op!r} has no implementation")
        self.op, self.backend, self._fn, self._impls = op, backend, fn, registry._impls
        self.label = label or op
        # Outermost calls served, per backend, and who served the last.
        self._served: dict[str, int] = {}
        self._last = backend

    def __call__(self, *args, **kwargs):
        outermost = not getattr(_nesting, "active", False)
        backend = self.backend
        _nesting.active = True
        try:
            try:
                if self._fn is None:
                    raise KernelUnavailable(self.op)
                result = self._fn(*args, **kwargs)
            except KernelUnavailable:
                if backend == REFERENCE_BACKEND:
                    raise
                obs.registry().counter("kernels.fallback", op=self.op, backend=backend).inc()
                backend = REFERENCE_BACKEND
                result = self._impls[(self.op, backend)](*args, **kwargs)
        finally:
            _nesting.active = not outermost
        if outermost:
            self._last = backend
            self.count(1)
        return result

    def count(self, n: int) -> None:
        """Count ``n`` more calls served by the backend that served the last
        one: an op one call of which serves several (a span decode's
        blocks) counts them here."""
        self._served[self._last] = self._served.get(self._last, 0) + n

    def flush(self) -> None:
        """Tick ``kernels.dispatch`` for the calls served since the last flush."""
        if self._served:
            reg = obs.registry()
            for backend, n in self._served.items():
                if n:
                    reg.counter("kernels.dispatch", op=self.label, backend=backend).inc(n)
            self._served.clear()


#: The process-wide registry; module-level helpers in
#: :mod:`repro.kernels` are bound to it.
REGISTRY = KernelRegistry()
