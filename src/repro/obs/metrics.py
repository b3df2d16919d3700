"""Dependency-free metrics primitives and the process-wide registry.

The paper's whole argument is quantitative — bytes/nnz, decode MB/s, DRAM
traffic and power — so every hot path in the repo records into a shared
:class:`MetricsRegistry` instead of ad-hoc stat fields:

* :class:`Counter` — monotonic accumulator (blocks decoded, bytes moved,
  modeled joules). Thread-safe; negative increments are rejected.
* :class:`Gauge` — last-written value (cache occupancy, traffic ratio).
* :class:`Histogram` — log-bucketed distribution (per-record decode
  seconds).

A registry is just a dict of metrics keyed by ``(name, labels)``; the
process-wide *current* registry is what the instrumentation helpers
(:func:`counter` / :func:`gauge` / :func:`histogram`) resolve at call
time, so :func:`scoped_registry` can swap in a fresh one for a test or a
request and capture everything recorded inside the scope.

Objects whose hot paths are too cheap to afford a per-event counter (the
decoded-block cache probes every block) register a *collector* instead:
a callback run at snapshot time that publishes their plain-int fields
into the registry (the Prometheus client-library pattern).
"""

from __future__ import annotations

import bisect
import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

#: Global instrumentation switch. ``set_enabled(False)`` turns every
#: record operation into a no-op (used by the overhead benchmark).
_ENABLED = True

#: Default histogram bucket upper bounds: decade-spaced from 100 ns to
#: 100 s (record timings) with headroom for byte-sized observations.
DEFAULT_BUCKETS = tuple(10.0 ** e for e in range(-7, 10))


def set_enabled(flag: bool) -> None:
    """Globally enable/disable metric recording (tracing has its own switch)."""
    global _ENABLED
    _ENABLED = bool(flag)


def enabled() -> bool:
    return _ENABLED


def _label_items(labels: dict) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def metric_id(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    """Canonical string key: ``name`` or ``name{k=v,k2=v2}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing accumulator (int or float)."""

    kind = "counter"
    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value: float = 0

    def inc(self, amount: float = 1) -> None:
        if not _ENABLED:
            return
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    def inc_each(self, amounts) -> None:
        """:meth:`inc` by each of ``amounts`` in order, under one lock: the
        same float additions as one call per amount."""
        if not _ENABLED:
            return
        with self._lock:
            value = self._value
            for amount in amounts:
                if amount < 0:
                    raise ValueError(f"counter increments must be >= 0, got {amount}")
                value += amount
            self._value = value

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def _snapshot(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "type": self.kind,
            "value": self._value,
        }


class Gauge:
    """A last-write-wins instantaneous value."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value: float = 0

    def set(self, value: float) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._value = value

    def add(self, amount: float) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def _snapshot(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "type": self.kind,
            "value": self._value,
        }


class Histogram:
    """A fixed-bucket distribution.

    Buckets are upper bounds (a final implicit ``+inf`` bucket catches
    overflow).
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "_lock", "_counts", "_count",
                 "_sum", "_min", "_max")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        if not _ENABLED:
            return
        # Linear scan is fine: bucket lists are short and observations are
        # tiny next to the work being timed; bisect would also work.
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def observe_many(self, values: np.ndarray, total: float | None = None) -> None:
        """:meth:`observe` each of ``values`` (summing to ``total``, when
        the caller has it), under one lock."""
        if not _ENABLED or not len(values):
            return
        # Sorted, the values fall in buckets lo..hi, and those at or below
        # each bound between are one search away.
        ordered = np.sort(values)
        n, low, high = len(ordered), float(ordered[0]), float(ordered[-1])
        lo, hi = bisect.bisect_left(self.buckets, low), bisect.bisect_left(self.buckets, high)
        at = [0, *np.searchsorted(ordered, self.buckets[lo:hi], side="right").tolist(), n]
        with self._lock:
            for k in range(lo, hi + 1):
                self._counts[k] += at[k - lo + 1] - at[k - lo]
            self._count += n
            self._sum += float(ordered.sum()) if total is None else total
            self._min = min(self._min, low)
            self._max = max(self._max, high)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf

    def _snapshot(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "labels": dict(self.labels),
                "type": self.kind,
                "count": self._count,
                "sum": self._sum,
                "min": None if self._count == 0 else self._min,
                "max": None if self._count == 0 else self._max,
                "buckets": list(self.buckets),
                "counts": list(self._counts),
            }


class MetricsRegistry:
    """A thread-safe collection of named metrics.

    One process-wide instance (:func:`registry`) backs all
    instrumentation; fresh instances isolate tests and requests.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, tuple], object] = {}
        self._collectors: list[Callable[["MetricsRegistry"], object]] = []

    # -- get-or-create -------------------------------------------------------

    def _get_or_create(self, cls, name: str, labels: dict, **kwargs):
        key = (name, _label_items(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, key[1], **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {metric_id(name, key[1])!r} already registered "
                    f"as {metric.kind}, not {cls.kind}"
                )
            return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

    # -- introspection -------------------------------------------------------

    def get(self, name: str, **labels):
        """The metric object, or None if never recorded."""
        with self._lock:
            return self._metrics.get((name, _label_items(labels)))

    def value(self, name: str, **labels) -> float:
        """Counter/gauge value (0 if absent); histogram count."""
        metric = self.get(name, **labels)
        if metric is None:
            return 0
        if isinstance(metric, Histogram):
            return metric.count
        return metric.value

    def names(self) -> set[str]:
        with self._lock:
            return {name for name, _ in self._metrics}

    def __len__(self) -> int:
        return len(self._metrics)

    # -- collectors ----------------------------------------------------------

    def register_collector(self, fn: Callable[["MetricsRegistry"], object]) -> None:
        """Register a callback run before every snapshot.

        The callback publishes externally-held state (e.g. cache counters
        kept as plain ints for speed) into this registry. Returning
        ``False`` deregisters it (use for weakref-expired sources).
        """
        with self._lock:
            self._collectors.append(fn)

    def _run_collectors(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        dead = [fn for fn in collectors if fn(self) is False]
        if dead:
            with self._lock:
                self._collectors = [c for c in self._collectors if c not in dead]

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """JSON-able state: ``{metric_id: record}``."""
        self._run_collectors()
        with self._lock:
            metrics = list(self._metrics.items())
        return {
            metric_id(name, key_labels): metric._snapshot()
            for (name, key_labels), metric in metrics
        }

    def reset(self) -> None:
        """Zero every metric (the metric objects stay registered)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()


# ---------------------------------------------------------------------------
# The process-wide current registry
# ---------------------------------------------------------------------------

_DEFAULT_REGISTRY = MetricsRegistry()
_current_registry = _DEFAULT_REGISTRY
_swap_lock = threading.Lock()


def registry() -> MetricsRegistry:
    """The current process-wide registry (all instrumentation records here)."""
    return _current_registry


def default_registry() -> MetricsRegistry:
    return _DEFAULT_REGISTRY


@contextmanager
def scoped_registry(reg: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Swap the process-wide current registry for the duration of the block.

    The swap is process-global (it is what lets tests capture everything
    recorded under them), so don't nest scopes across threads that record
    concurrently.
    """
    global _current_registry
    reg = reg if reg is not None else MetricsRegistry()
    with _swap_lock:
        previous, _current_registry = _current_registry, reg
    try:
        yield reg
    finally:
        with _swap_lock:
            _current_registry = previous


class BoundMetrics:
    """Metric handles by key, resolved once per active registry.

    ``make(registry, key)`` creates ``key``'s metric on first use; the
    handles are re-resolved when :func:`registry` changes. Hot paths use
    this instead of the registry's locked get-or-create on every event.
    """

    __slots__ = ("_make", "_bound")

    def __init__(self, make: Callable[["MetricsRegistry", object], object]):
        self._make = make
        self._bound: tuple[MetricsRegistry | None, dict] = (None, {})

    def __getitem__(self, key):
        reg = _current_registry
        bound, handles = self._bound
        if bound is not reg:
            handles = {}
            self._bound = (reg, handles)
        metric = handles.get(key)
        if metric is None:
            metric = handles[key] = self._make(reg, key)
        return metric


def counter(name: str, **labels) -> Counter:
    """Get-or-create a counter on the current registry."""
    return _current_registry.counter(name, **labels)


def gauge(name: str, **labels) -> Gauge:
    """Get-or-create a gauge on the current registry."""
    return _current_registry.gauge(name, **labels)


def histogram(name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS, **labels) -> Histogram:
    """Get-or-create a histogram on the current registry."""
    return _current_registry.histogram(name, buckets=buckets, **labels)
