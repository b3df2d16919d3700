"""CLI tests for the observability surface: ``repro metrics``, the
``--metrics-out`` / ``--trace-out`` flags, and the experiments runner."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.experiments.runner import main as runner_main

MATRIX = "synth:banded:n=800,bandwidth=4"


@pytest.fixture(autouse=True)
def isolated_obs():
    """Each test records into (and traces with) fresh process-wide state."""
    with obs.scoped_registry(), obs.scoped_tracer():
        yield


def _spmv_metrics(tmp_path, extra=()):
    path = tmp_path / "m.json"
    rc = main(["spmv", MATRIX, "--metrics-out", str(path), *extra])
    assert rc == 0
    return path, obs.load_metrics(str(path))


class TestMetricsOut:
    def test_spmv_emits_25_names_across_layers(self, tmp_path, capsys):
        path, snap = _spmv_metrics(tmp_path)
        names = {record["name"] for record in snap.values()}
        assert len(names) >= 25
        for prefix in ("codecs.", "spmv.", "memsys."):
            assert any(n.startswith(prefix) for n in names), prefix
        assert f"wrote {path}" in capsys.readouterr().out

    def test_metrics_out_forces_functional_iteration(self, tmp_path, capsys):
        # --iterations defaults to 0; the snapshot must still span spmv.*.
        _path, snap = _spmv_metrics(tmp_path)
        iters = [r for r in snap.values() if r["name"] == "spmv.iterations"]
        assert iters and iters[0]["value"] == 1
        assert "engine (1 SpMV iterations)" in capsys.readouterr().out

    def test_explicit_iterations_respected(self, tmp_path):
        _path, snap = _spmv_metrics(tmp_path, extra=["--iterations", "3"])
        iters = [r for r in snap.values() if r["name"] == "spmv.iterations"]
        assert iters[0]["value"] == 3


class TestTraceOut:
    def test_trace_is_valid_chrome_json_with_ordered_ts(self, tmp_path):
        trace_path = tmp_path / "t.json"
        rc = main(["spmv", MATRIX, "--trace-out", str(trace_path)])
        assert rc == 0
        doc = json.loads(trace_path.read_text())
        events = doc["traceEvents"]
        assert events, "tracing enabled but no spans recorded"
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert {"name", "ts", "pid", "tid"} <= set(event)
        # Monotonically ordered timestamps within each (pid, tid) track.
        by_track: dict[tuple, list[float]] = {}
        for event in events:
            by_track.setdefault((event["pid"], event["tid"]), []).append(event["ts"])
        for track, stamps in by_track.items():
            assert stamps == sorted(stamps), track

    def test_trace_includes_span_names(self, tmp_path):
        trace_path = tmp_path / "t.json"
        assert main(["spmv", MATRIX, "--trace-out", str(trace_path)]) == 0
        names = {e["name"] for e in json.loads(trace_path.read_text())["traceEvents"]}
        assert "spmv.recoded" in names
        assert "spmv.block" in names
        assert "codecs.compress_matrix" in names


class TestMetricsCommand:
    def test_table_view(self, tmp_path, capsys):
        path, _snap = _spmv_metrics(tmp_path)
        capsys.readouterr()
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "spmv.iterations" in out
        assert "counter" in out

    def test_prometheus_view(self, tmp_path, capsys):
        path, _snap = _spmv_metrics(tmp_path)
        capsys.readouterr()
        assert main(["metrics", str(path), "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_spmv_iterations counter" in out

    def test_json_view_round_trips(self, tmp_path, capsys):
        path, snap = _spmv_metrics(tmp_path)
        capsys.readouterr()
        assert main(["metrics", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == snap

    def test_diff_view(self, tmp_path, capsys):
        path, _snap = _spmv_metrics(tmp_path)
        capsys.readouterr()
        assert main(["metrics", str(path), "--diff", str(path)]) == 0
        out = capsys.readouterr().out
        assert "delta" in out and "+0" in out

    def test_rejects_foreign_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["metrics", str(bad)]) == 1
        assert "not a repro metrics file" in capsys.readouterr().err


class TestExperimentsRunner:
    def test_runner_metrics_and_trace_out(self, tmp_path, capsys):
        m_path, t_path = tmp_path / "m.json", tmp_path / "t.json"
        rc = runner_main([
            "--exp", "fig10", "--suite-count", "3",
            "--metrics-out", str(m_path), "--trace-out", str(t_path),
        ])
        assert rc == 0
        snap = obs.load_metrics(str(m_path))
        names = {r["name"] for r in snap.values()}
        assert "experiments.runs" in names
        assert "experiments.seconds" in names
        labels = [
            r["labels"] for r in snap.values() if r["name"] == "experiments.seconds"
        ]
        assert {"exp": "fig10"} in labels
        events = json.loads(t_path.read_text())["traceEvents"]
        assert any(e["name"] == "experiments.run" for e in events)
