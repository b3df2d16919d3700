"""Every BENCH_*.json artifact obeys its schema — writers and disk.

The shared validator (``repro.util.schema``) is the single source of
truth for artifact shape: the benchmark writers call ``check_schema``
before writing, and this suite re-validates the *checked-in* artifacts
so a writer change that drifts the shape (or a hand-edited artifact)
fails tier-1, not a downstream diff tool.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.util import (
    BENCH_SCHEMAS,
    SchemaError,
    check_schema,
    is_timing_key,
    non_timing_view,
    validate_schema,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: exp_id -> checked-in artifact filename.
ARTIFACTS = {
    "headline": "BENCH_headline.json",
    "bench_pipeline": "BENCH_pipeline.json",
    "ablation": "BENCH_ablation.json",
    "fig12": "BENCH_fig12.json",
    "fig16": "BENCH_fig16.json",
    "oocore": "BENCH_oocore.json",
    "serve": "BENCH_serve.json",
    "solvers": "BENCH_solvers.json",
}


# -- the validator itself --------------------------------------------------


def test_type_checks():
    schema = {"type": "object", "properties": {"n": {"type": "integer"}}}
    assert validate_schema({"n": 3}, schema) == []
    errors = validate_schema({"n": "3"}, schema)
    assert errors and "$.n" in errors[0]
    assert "expected integer" in errors[0]


def test_bool_is_not_a_number():
    # bool subclasses int; a gate field holding True is a writer bug.
    schema = {"type": "number"}
    assert validate_schema(1.5, schema) == []
    errors = validate_schema(True, schema)
    assert errors == ["$: expected number, got bool"]
    assert validate_schema(True, {"type": "boolean"}) == []


def test_required_and_nested_paths():
    schema = {
        "type": "object",
        "required": ["context"],
        "properties": {
            "context": {
                "type": "object",
                "required": ["seed"],
                "properties": {"seed": {"type": "integer"}},
            }
        },
    }
    assert validate_schema({"context": {"seed": 7}}, schema) == []
    errors = validate_schema({"context": {}}, schema)
    assert errors == ["$.context.seed: required field missing"]
    errors = validate_schema({}, schema)
    assert errors == ["$.context: required field missing"]


def test_array_items_and_min_items():
    schema = {
        "type": "array",
        "min_items": 2,
        "items": {"type": "number", "minimum": 0},
    }
    assert validate_schema([0, 1.5], schema) == []
    assert "items" in validate_schema([0], schema)[0]
    errors = validate_schema([0, -1], schema)
    assert errors == ["$[1]: -1 < minimum 0"]


def test_extra_keys_are_allowed():
    # Artifacts may grow fields without breaking older validators.
    schema = {"type": "object", "required": ["a"], "properties": {"a": {}}}
    assert validate_schema({"a": 1, "later_addition": 2}, schema) == []


def test_check_schema_raises_with_every_error():
    schema = {
        "type": "object",
        "required": ["a", "b"],
    }
    with pytest.raises(SchemaError) as exc:
        check_schema({}, schema, "thing")
    assert "thing failed schema validation (2 errors)" in str(exc.value)
    assert len(exc.value.errors) == 2


def test_unknown_schema_type_is_a_schema_bug():
    with pytest.raises(ValueError, match="unknown schema type"):
        validate_schema(1, {"type": "float"})


# -- timing-key convention -------------------------------------------------


def test_is_timing_key_convention():
    for key in (
        "seconds", "cold_seconds", "decode_us", "gm_spmv_speedup",
        "spmm_per_rhs_ratio", "worst_removal_gain", "udp_gbps",
        "contribution", "multiply_idle",
    ):
        assert is_timing_key(key), key
    for key in ("seed", "nnz", "exp_id", "run_id", "bytes_per_nnz", "checksum"):
        assert not is_timing_key(key), key


def test_non_timing_view_recurses():
    obj = {
        "exp_id": "x",
        "seconds": 1.0,
        "rows": [{"name": "a", "cold_seconds": 2.0}],
        "nested": {"speed_ratio": 3.0, "seed": 4},
    }
    assert non_timing_view(obj) == {
        "exp_id": "x",
        "rows": [{"name": "a"}],
        "nested": {"seed": 4},
    }


# -- the checked-in artifacts ----------------------------------------------


def test_every_schema_has_an_artifact_and_vice_versa():
    assert set(ARTIFACTS) == set(BENCH_SCHEMAS)
    on_disk = {p.name for p in REPO_ROOT.glob("BENCH_*.json")}
    assert set(ARTIFACTS.values()) <= on_disk, (
        "checked-in artifact missing; regenerate via the benchmarks"
    )


@pytest.mark.parametrize("exp_id", sorted(ARTIFACTS))
def test_checked_in_artifact_matches_schema(exp_id):
    path = REPO_ROOT / ARTIFACTS[exp_id]
    artifact = json.loads(path.read_text(encoding="utf-8"))
    check_schema(artifact, BENCH_SCHEMAS[exp_id], path.name)
    assert artifact["exp_id"] == exp_id
    assert isinstance(artifact["context"]["seed"], int)


@pytest.mark.parametrize("exp_id", sorted(ARTIFACTS))
def test_gate_fields_survive_mutation_checks(exp_id):
    """Dropping the common envelope must fail every schema."""
    path = REPO_ROOT / ARTIFACTS[exp_id]
    artifact = json.loads(path.read_text(encoding="utf-8"))
    broken = dict(artifact)
    del broken["exp_id"]
    with pytest.raises(SchemaError, match="exp_id"):
        check_schema(broken, BENCH_SCHEMAS[exp_id], path.name)
    broken = json.loads(json.dumps(artifact))
    broken["context"].pop("seed")
    with pytest.raises(SchemaError, match="seed"):
        check_schema(broken, BENCH_SCHEMAS[exp_id], path.name)
