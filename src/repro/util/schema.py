"""Minimal JSON-schema-style validation for BENCH_* artifacts.

Every benchmark artifact the repo writes (``BENCH_headline.json``,
``BENCH_pipeline.json``, ``BENCH_ablation.json``) is validated against a
schema before it lands on disk, and the checked-in artifacts are
re-validated by ``tests/test_bench_schemas.py`` — so gate fields cannot
silently drift shape between the writers, CI, and downstream diff tools.

This is intentionally a tiny dependency-free subset of JSON Schema:

* ``type``: ``object`` / ``array`` / ``string`` / ``number`` /
  ``integer`` / ``boolean`` (``number`` accepts ints, never bools);
* objects: ``required`` + ``properties`` (extra keys are always allowed
  — artifacts may grow fields without breaking old validators);
* arrays: ``items`` applied to every element, optional ``min_items``;
* scalars: optional ``minimum`` / ``maximum``.

Shared artifact conventions live here too: the common envelope every
BENCH artifact must carry (``exp_id`` + ``context.seed``) and the
timing-key convention used to split deterministic fields from wall-clock
measurements (:func:`non_timing_view`).
"""

from __future__ import annotations

from typing import Any

#: Key suffixes that mark a field as wall-clock-derived (excluded from
#: determinism comparisons by :func:`non_timing_view`).
TIMING_KEY_SUFFIXES: tuple[str, ...] = (
    "_seconds", "_us", "_ratio", "_speedup", "_gain", "_gbps",
    "_mb_per_s", "_rate", "_idle",
)

#: Exact keys that are wall-clock-derived without a marker suffix.
TIMING_KEYS: frozenset[str] = frozenset(
    {"seconds", "contribution", "harmful", "num_harmful", "timing", "timings"}
)


class SchemaError(ValueError):
    """An artifact failed schema validation; ``.errors`` lists every path."""

    def __init__(self, name: str, errors: list[str]):
        self.errors = errors
        super().__init__(
            f"{name} failed schema validation ({len(errors)} error"
            f"{'s' if len(errors) != 1 else ''}):\n  " + "\n  ".join(errors)
        )


_TYPES: dict[str, tuple] = {
    "object": (dict,),
    "array": (list, tuple),
    "string": (str,),
    "boolean": (bool,),
    "integer": (int,),
    "number": (int, float),
}


def validate_schema(obj: Any, schema: dict, path: str = "$") -> list[str]:
    """Validate ``obj`` against ``schema``; return a list of error strings
    (empty = valid). Never raises on bad data — see :func:`check_schema`."""
    errors: list[str] = []
    expected = schema.get("type")
    if expected is not None:
        kinds = _TYPES.get(expected)
        if kinds is None:
            raise ValueError(f"unknown schema type {expected!r} at {path}")
        # bool is an int subclass; a numeric field holding True is a bug.
        if isinstance(obj, bool) and expected not in ("boolean",):
            errors.append(f"{path}: expected {expected}, got bool")
            return errors
        if not isinstance(obj, kinds):
            errors.append(
                f"{path}: expected {expected}, got {type(obj).__name__}"
            )
            return errors
    if isinstance(obj, dict):
        for key in schema.get("required", ()):
            if key not in obj:
                errors.append(f"{path}.{key}: required field missing")
        for key, sub in schema.get("properties", {}).items():
            if key in obj:
                errors.extend(validate_schema(obj[key], sub, f"{path}.{key}"))
    elif isinstance(obj, (list, tuple)):
        min_items = schema.get("min_items")
        if min_items is not None and len(obj) < min_items:
            errors.append(
                f"{path}: expected >= {min_items} items, got {len(obj)}"
            )
        items = schema.get("items")
        if items is not None:
            for i, el in enumerate(obj):
                errors.extend(validate_schema(el, items, f"{path}[{i}]"))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        lo, hi = schema.get("minimum"), schema.get("maximum")
        if lo is not None and obj < lo:
            errors.append(f"{path}: {obj} < minimum {lo}")
        if hi is not None and obj > hi:
            errors.append(f"{path}: {obj} > maximum {hi}")
    return errors


def check_schema(obj: Any, schema: dict, name: str = "artifact") -> None:
    """Raise :class:`SchemaError` if ``obj`` does not match ``schema``."""
    errors = validate_schema(obj, schema)
    if errors:
        raise SchemaError(name, errors)


def is_timing_key(key: str) -> bool:
    """True when ``key`` names a wall-clock-derived field by convention."""
    return key in TIMING_KEYS or key.endswith(TIMING_KEY_SUFFIXES)


def non_timing_view(obj: Any) -> Any:
    """Deep-copy ``obj`` with every timing-convention key removed.

    Two deterministic runs of the same benchmark must produce *identical*
    non-timing views — the regression contract tested by
    ``tests/test_bench_determinism.py``.
    """
    if isinstance(obj, dict):
        return {
            k: non_timing_view(v)
            for k, v in obj.items()
            if not is_timing_key(k)
        }
    if isinstance(obj, (list, tuple)):
        return [non_timing_view(el) for el in obj]
    return obj


# ---------------------------------------------------------------------------
# Shared BENCH_* artifact schemas
# ---------------------------------------------------------------------------

#: The envelope every BENCH artifact must carry: a stable experiment id
#: and the seed its numbers were generated under.
BENCH_COMMON_SCHEMA: dict = {
    "type": "object",
    "required": ["exp_id", "context"],
    "properties": {
        "exp_id": {"type": "string"},
        "context": {
            "type": "object",
            "required": ["seed"],
            "properties": {"seed": {"type": "integer"}},
        },
    },
}


def _with_common(schema: dict) -> dict:
    """Merge a specific schema over :data:`BENCH_COMMON_SCHEMA`."""
    merged = {
        "type": "object",
        "required": sorted(
            set(BENCH_COMMON_SCHEMA["required"]) | set(schema.get("required", ()))
        ),
        "properties": {
            **BENCH_COMMON_SCHEMA["properties"],
            **schema.get("properties", {}),
        },
    }
    ctx = schema.get("properties", {}).get("context")
    if ctx:
        base = BENCH_COMMON_SCHEMA["properties"]["context"]
        merged["properties"]["context"] = {
            "type": "object",
            "required": sorted(set(base["required"]) | set(ctx.get("required", ()))),
            "properties": {**base["properties"], **ctx.get("properties", {})},
        }
    return merged


#: ``BENCH_headline.json`` — written by ``benchmarks/bench_headline.py``.
BENCH_HEADLINE_SCHEMA: dict = _with_common(
    {
        "required": ["headline", "paper", "matrices"],
        "properties": {
            "headline": {
                "type": "object",
                "required": [
                    "gm_spmv_speedup",
                    "gm_dsh_bytes_per_nnz",
                    "gm_udp_over_cpu_decomp",
                ],
                "properties": {
                    "gm_spmv_speedup": {"type": "number", "minimum": 0},
                    "gm_dsh_bytes_per_nnz": {"type": "number", "minimum": 0},
                    "gm_udp_over_cpu_decomp": {"type": "number", "minimum": 0},
                },
            },
            "matrices": {
                "type": "array",
                "min_items": 1,
                "items": {
                    "type": "object",
                    "required": ["name", "nnz", "bytes_per_nnz"],
                    "properties": {
                        "name": {"type": "string"},
                        "nnz": {"type": "integer", "minimum": 0},
                        "bytes_per_nnz": {"type": "number", "minimum": 0},
                    },
                },
            },
        },
    }
)

#: ``BENCH_pipeline.json`` — written by ``benchmarks/bench_pipeline.py``.
BENCH_PIPELINE_SCHEMA: dict = _with_common(
    {
        "required": ["pipelined_over_engineless_ratio", "spmm_per_rhs_ratio"],
        "properties": {
            "context": {
                "required": ["nrhs"],
                "properties": {
                    "nrhs": {"type": "integer", "minimum": 1},
                },
            },
            "pipelined_over_engineless_ratio": {"type": "number", "minimum": 0},
            "spmm_per_rhs_ratio": {"type": "number", "minimum": 0},
            "engineless_seconds": {"type": "number", "minimum": 0},
            "pipelined_seconds": {"type": "number", "minimum": 0},
        },
    }
)

#: ``BENCH_ablation.json`` — written by :mod:`repro.ablation.report`.
BENCH_ABLATION_SCHEMA: dict = _with_common(
    {
        "required": ["baseline", "configs", "ranking", "conformance", "gates"],
        "properties": {
            "context": {
                "required": ["repeats", "warm_iters", "nrhs", "matrices"],
                "properties": {
                    "repeats": {"type": "integer", "minimum": 1},
                    "warm_iters": {"type": "integer", "minimum": 1},
                    "nrhs": {"type": "integer", "minimum": 1},
                    "matrices": {
                        "type": "array",
                        "min_items": 1,
                        "items": {"type": "string"},
                    },
                },
            },
            "baseline": {
                "type": "object",
                "required": ["run_id", "config", "headline_seconds"],
                "properties": {
                    "run_id": {"type": "string"},
                    "config": {"type": "object"},
                    "headline_seconds": {"type": "number", "minimum": 0},
                },
            },
            "configs": {
                "type": "array",
                "min_items": 1,
                "items": {
                    "type": "object",
                    "required": ["run_id", "ablated_axis", "config", "headline_seconds"],
                    "properties": {
                        "run_id": {"type": "string"},
                        "ablated_axis": {"type": "string"},
                        "config": {"type": "object"},
                        "headline_seconds": {"type": "number", "minimum": 0},
                    },
                },
            },
            "ranking": {
                "type": "array",
                "min_items": 1,
                "items": {
                    "type": "object",
                    "required": [
                        "axis", "component", "run_id",
                        "contribution", "harmful",
                    ],
                    "properties": {
                        "axis": {"type": "string"},
                        "component": {"type": "string"},
                        "run_id": {"type": "string"},
                        "contribution": {"type": "number", "minimum": 0},
                        "harmful": {"type": "boolean"},
                    },
                },
            },
            "conformance": {
                "type": "object",
                "required": ["bit_identical", "configs_checked", "mismatches"],
                "properties": {
                    "bit_identical": {"type": "boolean"},
                    "configs_checked": {"type": "integer", "minimum": 1},
                    "mismatches": {"type": "array", "items": {"type": "string"}},
                },
            },
            # Present only when the run included pairwise ablations
            # (``repro ablate --pairs``).
            "interactions": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": [
                        "axes", "run_id", "pair_contribution",
                        "expected_contribution", "interaction_ratio",
                    ],
                    "properties": {
                        "axes": {
                            "type": "array",
                            "min_items": 2,
                            "items": {"type": "string"},
                        },
                        "run_id": {"type": "string"},
                        "pair_contribution": {"type": "number", "minimum": 0},
                        "expected_contribution": {"type": "number", "minimum": 0},
                        "interaction_ratio": {"type": "number", "minimum": 0},
                    },
                },
            },
            "gates": {
                "type": "object",
                "required": ["worst_removal_gain", "harmful_threshold", "num_harmful"],
                "properties": {
                    "worst_removal_gain": {"type": "number", "minimum": 0},
                    "harmful_threshold": {"type": "number", "minimum": 0},
                    "num_harmful": {"type": "integer", "minimum": 0},
                },
            },
        },
    }
)

#: ``BENCH_fig12.json`` — written by
#: ``benchmarks/bench_fig12_decomp_throughput.py``. Every headline number
#: is wall-clock-derived (throughputs and their ratios), so the whole
#: measured block lives under the wholesale-excluded ``timings`` key; only
#: the paper's reference values and the run envelope are deterministic.
BENCH_FIG12_SCHEMA: dict = _with_common(
    {
        "required": ["title", "paper", "timings"],
        "properties": {
            "title": {"type": "string"},
            "paper": {
                "type": "object",
                "required": ["gm_udp_over_cpu", "gm_udp_gbps"],
                "properties": {
                    "gm_udp_over_cpu": {"type": "number", "minimum": 0},
                    "gm_udp_gbps": {"type": "number", "minimum": 0},
                },
            },
            "timings": {
                "type": "object",
                "required": [
                    "gm_udp_over_cpu",
                    "gm_udp_gbps",
                    "sw_cold_mb_s",
                    "sw_steady_over_cold",
                    "hf_python_mb_s",
                    "hf_numpy_over_python",
                ],
                "properties": {
                    "gm_udp_over_cpu": {"type": "number", "minimum": 0},
                    "gm_udp_gbps": {"type": "number", "minimum": 0},
                    "sw_cold_mb_s": {"type": "number", "minimum": 0},
                    "sw_steady_over_cold": {"type": "number", "minimum": 0},
                    "hf_python_mb_s": {"type": "number", "minimum": 0},
                    "hf_numpy_over_python": {"type": "number", "minimum": 0},
                },
            },
        },
    }
)

#: ``BENCH_fig16.json`` — written by
#: ``benchmarks/bench_fig16_power_ddr4.py``. Modeled (not wall-clock)
#: power numbers: deterministic at a fixed seed, so the headline and the
#: per-matrix rows stay top-level.
BENCH_FIG16_SCHEMA: dict = _with_common(
    {
        "required": ["title", "paper", "headline", "rows"],
        "properties": {
            "title": {"type": "string"},
            "paper": {
                "type": "object",
                "required": [
                    "avg_net_saving_w",
                    "avg_net_saving_frac",
                    "baseline_power_w",
                ],
                "properties": {
                    "avg_net_saving_w": {"type": "number", "minimum": 0},
                    "avg_net_saving_frac": {"type": "number", "minimum": 0},
                    "baseline_power_w": {"type": "number", "minimum": 0},
                },
            },
            "headline": {
                "type": "object",
                "required": [
                    "avg_net_saving_w",
                    "avg_net_saving_frac",
                    "baseline_power_w",
                ],
                "properties": {
                    "avg_net_saving_w": {"type": "number", "minimum": 0},
                    "avg_net_saving_frac": {"type": "number", "minimum": 0},
                    "baseline_power_w": {"type": "number", "minimum": 0},
                },
            },
            "rows": {
                "type": "array",
                "min_items": 1,
                "items": {"type": "array", "items": {"type": "string"}},
            },
        },
    }
)

#: ``BENCH_oocore.json`` — written by ``benchmarks/bench_oocore.py``.
#: Byte sizes, page counts, and parity hashes are deterministic at a
#: fixed seed; RSS samples and wall seconds are host-dependent and live
#: under ``timings``.
BENCH_OOCORE_SCHEMA: dict = _with_common(
    {
        "required": [
            "stream_bytes",
            "residency_budget_bytes",
            "stream_over_budget",
            "parity",
            "gates",
            "timings",
        ],
        "properties": {
            "context": {
                "required": ["block_bytes"],
                "properties": {
                    "block_bytes": {"type": "integer", "minimum": 12},
                },
            },
            "nblocks": {"type": "integer", "minimum": 1},
            "nnz": {"type": "integer", "minimum": 0},
            "stream_bytes": {"type": "integer", "minimum": 1},
            "residency_budget_bytes": {"type": "integer", "minimum": 1},
            "stream_over_budget": {"type": "number", "minimum": 0},
            "parity": {
                "type": "object",
                "required": [
                    "serial_sha256",
                    "mmap_sha256",
                    "bit_identical",
                ],
                "properties": {
                    "serial_sha256": {"type": "string"},
                    "mmap_sha256": {"type": "string"},
                    "bit_identical": {"type": "boolean"},
                },
            },
            "oocore": {
                "type": "object",
                "properties": {
                    "mapped_bytes": {"type": "integer", "minimum": 0},
                    "pages_touched": {"type": "integer", "minimum": 0},
                },
            },
            "gates": {
                "type": "object",
                "required": ["rss_bound_frac", "stream_factor_min", "passed"],
                "properties": {
                    "rss_bound_frac": {"type": "number", "minimum": 0},
                    "stream_factor_min": {"type": "number", "minimum": 0},
                    "passed": {"type": "boolean"},
                },
            },
            "timings": {
                "type": "object",
                "required": ["peak_rss_delta_bytes", "rss_over_stream"],
                "properties": {
                    "peak_rss_delta_bytes": {"type": "integer", "minimum": 0},
                    "rss_over_stream": {"type": "number", "minimum": 0},
                },
            },
        },
    }
)

#: ``BENCH_serve.json`` — written by ``benchmarks/bench_serve.py``.
#: Parity hashes and gate verdicts are deterministic at a fixed seed;
#: every load-dependent number (latencies, throughput, shed counts, RSS
#: and queue-depth samples, the widest fused batch) lives under
#: ``timings`` — how *much* load a host absorbs varies, that overload was
#: shed and accounted does not.
BENCH_SERVE_SCHEMA: dict = _with_common(
    {
        "required": ["title", "parity", "gates", "timings"],
        "properties": {
            "title": {"type": "string"},
            "context": {
                "required": ["max_fuse", "tenants"],
                "properties": {
                    "max_fuse": {"type": "integer", "minimum": 1},
                    "tenants": {"type": "integer", "minimum": 1},
                    "fusion_window_ms": {"type": "number", "minimum": 0},
                    "inflight_budget_bytes": {"type": "integer", "minimum": 1},
                    "max_queue": {"type": "integer", "minimum": 1},
                },
            },
            "parity": {
                "type": "object",
                "required": [
                    "direct_sha256",
                    "served_sha256",
                    "fused_bit_identical",
                    "degrade_bit_identical",
                    "bit_identical",
                ],
                "properties": {
                    "direct_sha256": {"type": "string"},
                    "served_sha256": {"type": "string"},
                    "fused_bit_identical": {"type": "boolean"},
                    "degrade_bit_identical": {"type": "boolean"},
                    "bit_identical": {"type": "boolean"},
                },
            },
            "gates": {
                "type": "object",
                "required": [
                    "overload_shed_nonzero",
                    "accounting_reconciles",
                    "admitted_p99_bounded",
                    "passed",
                ],
                "properties": {
                    "overload_shed_nonzero": {"type": "boolean"},
                    "accounting_reconciles": {"type": "boolean"},
                    "admitted_p99_bounded": {"type": "boolean"},
                    "passed": {"type": "boolean"},
                },
            },
            "timings": {
                "type": "object",
                "required": ["baseline", "overload", "max_fused_width"],
                "properties": {
                    "max_fused_width": {"type": "integer", "minimum": 1},
                    "baseline": {
                        "type": "object",
                        "required": ["offered_rps", "completed", "shed", "p99_ms"],
                        "properties": {
                            "offered_rps": {"type": "number", "minimum": 0},
                            "completed": {"type": "integer", "minimum": 0},
                            "shed": {"type": "integer", "minimum": 0},
                            "p50_ms": {"type": "number", "minimum": 0},
                            "p99_ms": {"type": "number", "minimum": 0},
                        },
                    },
                    "overload": {
                        "type": "object",
                        "required": [
                            "offered_rps",
                            "offered_over_capacity",
                            "completed",
                            "shed",
                            "p99_ms",
                            "peak_rss_delta_bytes",
                            "max_queue_depth",
                        ],
                        "properties": {
                            "offered_rps": {"type": "number", "minimum": 0},
                            "offered_over_capacity": {"type": "number", "minimum": 0},
                            "completed": {"type": "integer", "minimum": 0},
                            "shed": {"type": "integer", "minimum": 0},
                            "p50_ms": {"type": "number", "minimum": 0},
                            "p99_ms": {"type": "number", "minimum": 0},
                            "peak_rss_delta_bytes": {"type": "integer", "minimum": 0},
                            "max_queue_depth": {"type": "integer", "minimum": 0},
                        },
                    },
                },
            },
        },
    }
)

#: ``BENCH_solvers.json`` — written by ``benchmarks/bench_solvers.py``.
#: Iteration counts, byte totals, residuals, and parity hashes are
#: deterministic at a fixed seed; per-call SpMV timings and the
#: warm-over-CSR ratios are wall-clock and carry timing-key suffixes.
BENCH_SOLVERS_SCHEMA: dict = _with_common(
    {
        "required": ["matrices", "cg", "pagerank", "parity", "gates"],
        "properties": {
            "context": {
                "required": ["block_bytes", "warm_repeats"],
                "properties": {
                    "block_bytes": {"type": "integer", "minimum": 12},
                    "warm_repeats": {"type": "integer", "minimum": 1},
                },
            },
            "matrices": {
                "type": "array",
                "min_items": 1,
                "items": {
                    "type": "object",
                    "required": [
                        "name", "nblocks", "nnz", "csr_seconds",
                        "warm_seconds", "warm_over_csr_ratio",
                    ],
                    "properties": {
                        "name": {"type": "string"},
                        "nblocks": {"type": "integer", "minimum": 1},
                        "nnz": {"type": "integer", "minimum": 1},
                        "csr_seconds": {"type": "number", "minimum": 0},
                        "warm_seconds": {"type": "number", "minimum": 0},
                        "warm_over_csr_ratio": {"type": "number", "minimum": 0},
                    },
                },
            },
            "warm_over_csr_geomean_ratio": {"type": "number", "minimum": 0},
            "cg": {
                "type": "object",
                "required": [
                    "iterations", "converged", "residual", "dram_bytes",
                    "decode_once_bytes", "vector_bytes",
                    "traffic_budget_bytes", "sha256",
                ],
                "properties": {
                    "iterations": {"type": "integer", "minimum": 1},
                    "converged": {"type": "boolean"},
                    "residual": {"type": "number", "minimum": 0},
                    "dram_bytes": {"type": "integer", "minimum": 1},
                    "decode_once_bytes": {"type": "integer", "minimum": 1},
                    "vector_bytes": {"type": "integer", "minimum": 1},
                    "traffic_budget_bytes": {"type": "integer", "minimum": 1},
                    "sha256": {"type": "string"},
                },
            },
            "pagerank": {
                "type": "object",
                "required": ["iterations", "converged", "residual", "sha256"],
                "properties": {
                    "iterations": {"type": "integer", "minimum": 1},
                    "converged": {"type": "boolean"},
                    "residual": {"type": "number", "minimum": 0},
                    "sha256": {"type": "string"},
                },
            },
            "parity": {
                "type": "object",
                "required": ["configs_checked", "bit_identical", "mismatches"],
                "properties": {
                    "configs_checked": {"type": "integer", "minimum": 2},
                    "bit_identical": {"type": "boolean"},
                    "mismatches": {"type": "array", "items": {"type": "string"}},
                },
            },
            "gates": {
                "type": "object",
                "required": [
                    "warm_over_csr_max", "traffic_within_budget",
                    "bit_identical", "passed",
                ],
                "properties": {
                    "warm_over_csr_max": {"type": "number", "minimum": 0},
                    "traffic_within_budget": {"type": "boolean"},
                    "bit_identical": {"type": "boolean"},
                    "passed": {"type": "boolean"},
                },
            },
        },
    }
)

#: All BENCH artifact schemas by ``exp_id``.
BENCH_SCHEMAS: dict[str, dict] = {
    "headline": BENCH_HEADLINE_SCHEMA,
    "bench_pipeline": BENCH_PIPELINE_SCHEMA,
    "ablation": BENCH_ABLATION_SCHEMA,
    "fig12": BENCH_FIG12_SCHEMA,
    "fig16": BENCH_FIG16_SCHEMA,
    "oocore": BENCH_OOCORE_SCHEMA,
    "serve": BENCH_SERVE_SCHEMA,
    "solvers": BENCH_SOLVERS_SCHEMA,
}
