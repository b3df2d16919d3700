"""repro.obs — dependency-free observability for the DSH/SpMV stack.

Three layers (see docs/OBSERVABILITY.md for the metric-name catalogue):

* :mod:`~repro.obs.metrics` — Counter/Gauge/Histogram primitives and the
  process-wide, thread-safe :class:`MetricsRegistry`; pool workers record
  into per-worker registries that merge on join.
* :mod:`~repro.obs.trace` — span tracer (``with trace("stage", block=i):``)
  producing Chrome-trace-format JSON; off by default.
* :mod:`~repro.obs.export` — JSON / Prometheus-text / human-table
  exporters plus snapshot diffing and label aggregation.
"""

from repro.obs.metrics import (
    BoundMetrics,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    default_registry,
    enabled,
    gauge,
    histogram,
    metric_id,
    registry,
    scoped_registry,
    set_enabled,
)
from repro.obs.trace import (
    Tracer,
    disable_tracing,
    enable_tracing,
    scoped_tracer,
    trace,
    tracer,
    tracing_enabled,
    write_trace,
)
from repro.obs.export import (
    aggregate_by_name,
    diff_snapshots,
    load_metrics,
    render_diff_table,
    render_table,
    to_json,
    to_prometheus,
    write_metrics,
)

__all__ = [
    "BoundMetrics",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "registry",
    "default_registry",
    "scoped_registry",
    "set_enabled",
    "enabled",
    "metric_id",
    "Tracer",
    "trace",
    "tracer",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "scoped_tracer",
    "write_trace",
    "aggregate_by_name",
    "diff_snapshots",
    "load_metrics",
    "render_table",
    "render_diff_table",
    "to_json",
    "to_prometheus",
    "write_metrics",
]
