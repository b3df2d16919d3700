"""Unit tests for repro.obs: primitives, registry, tracer, exporters."""

import json
import math

import numpy as np
import pytest

from repro import obs
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    aggregate_by_name,
    diff_snapshots,
    load_metrics,
    metric_id,
    render_diff_table,
    render_table,
    to_json,
    to_prometheus,
    write_metrics,
)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


class TestCounter:
    def test_inc_default_and_amount(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        c = Counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_reset(self):
        c = Counter("x")
        c.inc(7)
        c.reset()
        assert c.value == 0

    def test_snapshot_record(self):
        c = Counter("x", (("k", "v"),))
        c.inc(2)
        rec = c._snapshot()
        assert rec == {"name": "x", "labels": {"k": "v"}, "type": "counter", "value": 2}


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("g")
        g.set(10)
        g.add(-3)
        assert g.value == 7


class TestHistogram:
    def test_observe_basic_stats(self):
        h = Histogram("h")
        for v in (0.5, 1.5, 2.5):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(4.5)
        rec = h._snapshot()
        assert rec["min"] == 0.5
        assert rec["max"] == 2.5
        assert sum(rec["counts"]) == 3

    def test_empty_snapshot_has_null_min_max(self):
        rec = Histogram("h")._snapshot()
        assert rec["count"] == 0
        assert rec["min"] is None and rec["max"] is None

    def test_bucket_assignment_and_overflow(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        h.observe(0.5)   # bucket 0 (<= 1)
        h.observe(5.0)   # bucket 1 (<= 10)
        h.observe(50.0)  # overflow bucket
        assert h._counts == [1, 1, 1]

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_observe_many_matches_observe_each(self):
        values = np.array([10.0, 0.5, 1.0, 50.0, 1.0, 7.5, 0.0, 10.0, 1e9, 2.0])
        one, many = (Histogram("h", buckets=(1.0, 2.0, 10.0)) for _ in range(2))
        for v in values:
            one.observe(float(v))
        many.observe_many(values[:4])
        many.observe_many(values[4:], float(values[4:].sum()))
        want, got = one._snapshot(), many._snapshot()
        assert got["sum"] == pytest.approx(want["sum"])
        del want["sum"], got["sum"]
        assert got == want


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a", x="1") is not reg.counter("a", x="2")

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        assert reg.counter("a", x="1", y="2") is reg.counter("a", y="2", x="1")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_value_accessor(self):
        reg = MetricsRegistry()
        assert reg.value("missing") == 0
        reg.counter("c").inc(3)
        reg.histogram("h").observe(1.0)
        assert reg.value("c") == 3
        assert reg.value("h") == 1  # histograms report count

    def test_snapshot_keys_are_metric_ids(self):
        reg = MetricsRegistry()
        reg.counter("a", x="1").inc()
        reg.counter("b").inc()
        snap = reg.snapshot()
        assert set(snap) == {"a{x=1}", "b"}

    def test_reset_zeroes_but_keeps_metrics(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.reset()
        assert reg.value("c") == 0
        assert "c" in reg.names()

    def test_collector_runs_at_snapshot(self):
        reg = MetricsRegistry()
        reg.register_collector(lambda r: r.gauge("pub").set(42))
        assert reg.snapshot()["pub"]["value"] == 42

    def test_collector_returning_false_deregisters(self):
        reg = MetricsRegistry()
        calls = []
        reg.register_collector(lambda r: (calls.append(1), False)[1])
        reg.snapshot()
        reg.snapshot()
        assert len(calls) == 1


class TestScopedRegistry:
    def test_scope_captures_and_restores(self):
        outer = obs.registry()
        with obs.scoped_registry() as reg:
            assert obs.registry() is reg
            obs.counter("scoped.c").inc()
        assert obs.registry() is outer
        assert reg.value("scoped.c") == 1
        assert outer.get("scoped.c") is None

    def test_set_enabled_false_noops(self):
        with obs.scoped_registry() as reg:
            obs.set_enabled(False)
            try:
                obs.counter("c").inc()
                obs.gauge("g").set(5)
                obs.histogram("h").observe(1.0)
            finally:
                obs.set_enabled(True)
            assert reg.value("c") == 0
            assert reg.value("g") == 0
            assert reg.value("h") == 0


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_disabled_span_is_shared_noop(self):
        t = Tracer()
        assert t.span("a") is t.span("b")
        with t.span("a"):
            pass
        assert t.events() == []

    def test_enabled_span_records_complete_event(self):
        t = Tracer(enabled=True)
        with t.span("work", block=3):
            pass
        (event,) = t.events()
        assert event["name"] == "work"
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        assert event["args"] == {"block": 3}

    def test_events_sorted_by_pid_tid_ts(self):
        t = Tracer(enabled=True)
        t._record("b", 2.0, 3.0, {})
        t._record("a", 1.0, 2.0, {})
        assert [e["name"] for e in t.events()] == ["a", "b"]

    def test_write_is_valid_chrome_trace(self, tmp_path):
        t = Tracer(enabled=True)
        with t.span("x"):
            pass
        path = tmp_path / "trace.json"
        t.write(str(path))
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) == 1

    def test_scoped_tracer_swaps_current(self):
        outer = obs.tracer()
        with obs.scoped_tracer(Tracer(enabled=True)) as t:
            assert obs.tracer().enabled
            with obs.trace("inner"):
                pass
        assert obs.tracer() is outer
        assert len(t.events()) == 1


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def _sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("c", engine="e1").inc(2)
    reg.counter("c", engine="e2").inc(3)
    reg.gauge("g").set(1.5)
    reg.histogram("h", buckets=(1.0, 10.0)).observe(0.5)
    reg.histogram("h", buckets=(1.0, 10.0)).observe(20.0)
    return reg


class TestExporters:
    def test_json_round_trip(self, tmp_path):
        reg = _sample_registry()
        path = tmp_path / "m.json"
        written = write_metrics(str(path), reg)
        assert load_metrics(str(path)) == written

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError):
            load_metrics(str(path))

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "metrics": {}}')
        with pytest.raises(ValueError):
            load_metrics(str(path))

    def test_envelope_is_versioned(self):
        doc = json.loads(to_json({}))
        assert doc == {"version": 1, "metrics": {}}

    def test_aggregate_by_name_sums_label_sets(self):
        agg = aggregate_by_name(_sample_registry().snapshot())
        assert agg["c"]["value"] == 5
        assert agg["c"]["labels"] == {}
        assert agg["h"]["count"] == 2
        assert agg["h"]["min"] == 0.5 and agg["h"]["max"] == 20.0

    def test_diff_snapshots(self):
        a = _sample_registry().snapshot()
        b = _sample_registry().snapshot()
        rows = {k: delta for k, _, _, delta in diff_snapshots(a, b)}
        assert all(d == 0 for d in rows.values())
        reg = _sample_registry()
        reg.counter("c", engine="e1").inc(10)
        rows = {k: delta for k, _, _, delta in diff_snapshots(a, reg.snapshot())}
        assert rows["c{engine=e1}"] == 10

    def test_prometheus_format(self):
        text = to_prometheus(_sample_registry().snapshot())
        assert '# TYPE repro_c counter' in text
        assert 'repro_c{engine="e1"} 2' in text
        # Histogram: cumulative buckets + the +Inf overflow, sum, count.
        assert 'repro_h_bucket{le="1.0"} 1' in text
        assert 'repro_h_bucket{le="+Inf"} 2' in text
        assert "repro_h_count 2" in text

    def test_render_tables(self):
        snap = _sample_registry().snapshot()
        table = render_table(snap)
        assert "c{engine=e1}" in table and "count=2" in table
        diff = render_diff_table(snap, snap)
        assert "+0" in diff

    def test_metric_id(self):
        assert metric_id("a", ()) == "a"
        assert metric_id("a", (("k", "v"), ("l", "w"))) == "a{k=v,l=w}"
