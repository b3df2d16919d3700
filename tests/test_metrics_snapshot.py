"""Golden metrics-snapshot suite.

A fixed synthetic matrix runs through ``compress_matrix`` +
``recoded_spmv`` inside a fresh scoped registry; the aggregated snapshot
must match ``tests/data/metrics_golden.json``. Counts, bytes, and modeled
quantities (energy, ratios) are deterministic and compare exactly (float
tolerance only for rounding); wall-clock metrics — any name containing
``seconds`` — compare by *presence* and observation count, never by value.

Regenerate after intentionally changing the instrumentation::

    PYTHONPATH=src python -m pytest tests/test_metrics_snapshot.py --update-goldens
"""

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.codecs.engine import DecodedBlockCache, RecodeEngine
from repro.codecs.pipeline import compress_matrix
from repro.collection import generators
from repro.core.spmv_pipeline import recoded_spmv

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "metrics_golden.json")

#: Any metric whose name contains one of these is wall-clock-dependent.
_TIMING_MARKERS = ("seconds",)


def _is_timing(name: str) -> bool:
    return any(marker in name for marker in _TIMING_MARKERS)


def _workload_snapshot() -> dict[str, dict]:
    """The fixed workload, recorded into a fresh registry, label-collapsed."""
    with obs.scoped_registry() as reg:
        matrix = generators.banded(1500, bandwidth=5, seed=7)
        plan = compress_matrix(matrix)
        engine = RecodeEngine(cache=DecodedBlockCache())
        x = np.ones(matrix.ncols)
        for _ in range(2):  # second pass exercises the decoded-block cache
            y, _stats = recoded_spmv(plan, x, engine=engine, matrix_id="golden")
            x = y / float(np.abs(y).max())
        snapshot = reg.snapshot()
    return obs.aggregate_by_name(snapshot)


def _comparable(agg: dict[str, dict]) -> dict[str, dict]:
    """Reduce an aggregated snapshot to its deterministic projection."""
    out = {}
    for name, record in sorted(agg.items()):
        if record["type"] == "histogram":
            # Observation counts are deterministic; durations are not.
            out[name] = {"type": "histogram", "count": record["count"]}
        elif _is_timing(name):
            out[name] = {"type": record["type"], "present": True}
        else:
            out[name] = {"type": record["type"], "value": record["value"]}
    return out


@pytest.fixture(scope="module")
def workload_comparable():
    return _comparable(_workload_snapshot())


def test_golden_snapshot(workload_comparable, update_goldens):
    if update_goldens:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
            json.dump(workload_comparable, fh, indent=2, sort_keys=True)
            fh.write("\n")
        pytest.skip("golden rewritten")
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert set(workload_comparable) == set(golden), (
        "metric name set drifted; rerun with --update-goldens if intended"
    )
    for name, expected in golden.items():
        actual = workload_comparable[name]
        if "value" in expected and isinstance(expected["value"], float):
            assert actual["type"] == expected["type"], name
            assert actual["value"] == pytest.approx(expected["value"], rel=1e-9), name
        else:
            assert actual == expected, name


def test_workload_is_deterministic_across_runs(workload_comparable):
    second = _comparable(_workload_snapshot())
    assert workload_comparable == second


def test_timing_metrics_are_present_and_positive():
    agg = _workload_snapshot()
    timed = {n: r for n, r in agg.items() if _is_timing(n)}
    assert timed, "expected wall-clock metrics in the workload"
    for name, record in timed.items():
        if record["type"] == "histogram":
            assert record["count"] > 0, name
            assert record["sum"] >= 0, name
        else:
            assert record["value"] >= 0, name


def test_snapshot_spans_all_layers(workload_comparable):
    prefixes = {name.split(".")[0] for name in workload_comparable}
    assert {"codecs", "spmv", "memsys"} <= prefixes
