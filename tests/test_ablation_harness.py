"""Unit tests for the ablation harness: grid, ranking math, artifact.

Timing-free where possible: ranking and gate arithmetic are exercised on
hand-built synthetic results so the assertions are exact, and the one
end-to-end leg runs the ``tiny`` profile (small matrices, one repeat).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.ablation import (
    AXES,
    AblationReport,
    AblationRunner,
    ConfigResult,
    PhaseTiming,
    RunnerSettings,
    axis,
    baseline_config,
    build_artifact,
    enumerate_configs,
    enumerate_pair_configs,
    rank_components,
    rank_interactions,
    render_interactions,
    render_ranking,
    validate_artifact,
)
from repro.ablation.report import EXP_ID
from repro.cli import main
from repro.util import SchemaError, non_timing_view


# -- grid ------------------------------------------------------------------


def test_axes_cover_issue_minimum():
    names = {a.name for a in AXES}
    assert names == {"cache", "kernel_backend", "policy", "spmm_fusion", "session"}


def test_enumerate_subset_and_unknown():
    configs = enumerate_configs(("cache", "policy"))
    assert [c.run_id for c in configs] == ["baseline", "no-cache", "no-policy"]
    with pytest.raises(ValueError, match="unknown ablation axis"):
        enumerate_configs(("cache", "nope"))


def test_baseline_is_fully_featured():
    base = baseline_config()
    assert base.is_baseline
    assert base.cache and base.spmm_fusion
    assert base.kernel_backend == "native"
    assert axis("kernel_backend").ablated == "python"
    assert base.policy == "degrade"


# -- ranking math on synthetic results -------------------------------------


def _result(config, cold, warm, spmm, warm_iters=2):
    return ConfigResult(
        config=config,
        timings={
            "m": PhaseTiming(
                cold_seconds=cold,
                warm_seconds=warm,
                spmm_seconds=spmm,
                warm_iters=warm_iters,
            )
        },
        spmv_checksums={"m": "aa"},
        spmm_checksums={"m": "bb"},
        metric_names=frozenset({"spmv.blocks"}),
    )


def _synthetic_report(no_cache_scale, no_policy_scale):
    settings = dataclasses.replace(
        RunnerSettings.tiny(), harmful_threshold=0.05
    )
    configs = {c.run_id: c for c in enumerate_configs(("cache", "policy"))}
    base = _result(configs["baseline"], cold=1.0, warm=0.1, spmm=0.5)
    results = (
        _result(
            configs["no-cache"],
            cold=1.0 * no_cache_scale,
            warm=0.1 * no_cache_scale,
            spmm=0.5 * no_cache_scale,
        ),
        _result(
            configs["no-policy"],
            cold=1.0 * no_policy_scale,
            warm=0.1 * no_policy_scale,
            spmm=0.5 * no_policy_scale,
        ),
    )
    return AblationReport(
        settings=settings, baseline=base, results=results, mismatches=()
    )


def test_rank_components_orders_by_contribution():
    report = _synthetic_report(no_cache_scale=3.0, no_policy_scale=1.2)
    ranked = rank_components(report)
    assert [r.axis for r in ranked] == ["cache", "policy"]
    assert ranked[0].contribution == pytest.approx(3.0)
    assert ranked[1].contribution == pytest.approx(1.2)
    assert not any(r.harmful for r in ranked)
    assert ranked[0].cold_ratio == pytest.approx(3.0)


def test_harmful_flags_axes_whose_removal_helps():
    # Removing the cache is 20% *faster* than baseline: it must gate.
    # Removing degrade is within the 5% threshold: it must not.
    report = _synthetic_report(no_cache_scale=0.8, no_policy_scale=0.97)
    ranked = {r.axis: r for r in rank_components(report)}
    assert ranked["cache"].harmful
    assert not ranked["policy"].harmful

    artifact = build_artifact(report)
    assert artifact["gates"]["num_harmful"] == 1
    assert artifact["gates"]["worst_removal_gain"] == pytest.approx(0.8)
    table = render_ranking(report)
    assert "HARMFUL" in table
    assert "~neutral" in table


def test_worst_removal_gain_is_the_smallest_contribution():
    report = _synthetic_report(no_cache_scale=1.5, no_policy_scale=1.1)
    artifact = build_artifact(report)
    assert artifact["gates"]["num_harmful"] == 0
    assert artifact["gates"]["worst_removal_gain"] == pytest.approx(1.1)


def test_artifact_matches_schema_and_flags_mutations():
    report = _synthetic_report(no_cache_scale=2.0, no_policy_scale=1.1)
    artifact = build_artifact(report)
    assert artifact["exp_id"] == EXP_ID
    validate_artifact(artifact)  # round-trips

    broken = json.loads(json.dumps(artifact))
    del broken["gates"]["worst_removal_gain"]
    with pytest.raises(SchemaError, match="worst_removal_gain"):
        validate_artifact(broken)

    broken = json.loads(json.dumps(artifact))
    broken["context"]["seed"] = "not-an-int"
    with pytest.raises(SchemaError, match="seed"):
        validate_artifact(broken)


def test_non_timing_view_strips_wallclock_but_keeps_identity():
    report = _synthetic_report(no_cache_scale=2.0, no_policy_scale=1.1)
    view = non_timing_view(build_artifact(report))
    assert view["exp_id"] == EXP_ID
    assert view["baseline"]["spmv_checksums"] == {"m": "aa"}
    assert "headline_seconds" not in view["baseline"]
    flat = json.dumps(view)
    assert "_seconds" not in flat
    assert "contribution" not in flat


# -- end-to-end (tiny profile) ---------------------------------------------


def test_runner_rejects_grid_without_baseline():
    runner = AblationRunner(RunnerSettings.tiny())
    with pytest.raises(ValueError, match="baseline"):
        runner.run(enumerate_configs()[1:])


def test_cli_ablate_tiny_roundtrip(tmp_path, monkeypatch, capsys):
    out = tmp_path / "BENCH_ablation.json"
    # The tiny profile isn't CLI-reachable; patch smoke to it so the CLI
    # path (arg parsing -> runner -> artifact -> gate) runs in seconds.
    monkeypatch.setattr(RunnerSettings, "smoke", RunnerSettings.tiny)
    rc = main(
        [
            "ablate", "--smoke",
            "--axes", "cache,session,policy",
            "--out", str(out),
        ]
    )
    assert rc == 0
    artifact = json.loads(out.read_text())
    validate_artifact(artifact)
    assert artifact["conformance"]["bit_identical"]
    assert artifact["conformance"]["configs_checked"] == 4
    assert [r["run_id"] for r in artifact["ranking"]] == sorted(
        (r["run_id"] for r in artifact["ranking"]),
        key=lambda rid: -next(
            x["contribution"] for x in artifact["ranking"] if x["run_id"] == rid
        ),
    )
    captured = capsys.readouterr()
    assert "conformance: 4 configs bit-identical" in captured.out


# -- pairwise ablations ----------------------------------------------------


def test_enumerate_pair_configs_flip_both_axes():
    (pair,) = enumerate_pair_configs(("policy", "cache"))
    # Stable AXES order, regardless of argument order.
    assert pair.run_id == "no-cache+policy"
    assert pair.ablated_axis == "cache+policy"
    assert pair.is_pair and pair.pair_axes() == ("cache", "policy")
    assert pair.cache is axis("cache").ablated
    assert pair.policy == axis("policy").ablated
    # Everything else stays at baseline.
    assert pair.session == baseline_config().session
    assert "removed together" in pair.describe()

    three = enumerate_pair_configs(("cache", "session", "policy"))
    assert [c.run_id for c in three] == [
        "no-cache+policy", "no-cache+session", "no-policy+session",
    ]

    with pytest.raises(ValueError):
        enumerate_pair_configs(("cache",))
    with pytest.raises(ValueError):
        enumerate_pair_configs(("cache", "bogus"))


def _synthetic_pair_report(single_a, single_b, pair_scale):
    """Singles scaled by ``single_a``/``single_b``, their pair by
    ``pair_scale`` — all against a baseline of 1.8 headline seconds."""
    settings = dataclasses.replace(RunnerSettings.tiny(), harmful_threshold=0.05)
    singles = {c.run_id: c for c in enumerate_configs(("cache", "policy"))}
    (pair_cfg,) = enumerate_pair_configs(("cache", "policy"))
    base = _result(singles["baseline"], cold=1.0, warm=0.1, spmm=0.5)
    results = (
        _result(singles["no-cache"], 1.0 * single_a, 0.1 * single_a, 0.5 * single_a),
        _result(singles["no-policy"], 1.0 * single_b, 0.1 * single_b, 0.5 * single_b),
        _result(pair_cfg, 1.0 * pair_scale, 0.1 * pair_scale, 0.5 * pair_scale),
    )
    return AblationReport(
        settings=settings, baseline=base, results=results, mismatches=()
    )


def test_rank_interactions_measures_against_multiplicative_null():
    # Uniform phase scaling makes every contribution exactly the scale:
    # pair 4.5x vs independent prediction 3.0 * 1.2 = 3.6x -> ratio 1.25.
    report = _synthetic_pair_report(single_a=3.0, single_b=1.2, pair_scale=4.5)
    (ranked,) = rank_interactions(report)
    assert ranked.axes == ("cache", "policy")
    assert ranked.run_id == "no-cache+policy"
    assert ranked.pair_contribution == pytest.approx(4.5)
    assert ranked.expected_contribution == pytest.approx(3.6)
    assert ranked.interaction_ratio == pytest.approx(1.25)
    assert "super-additive" in render_interactions(report)

    # A perfectly independent pair scores ~1.0 (redundant pairs score <1).
    indep = _synthetic_pair_report(single_a=2.0, single_b=1.5, pair_scale=3.0)
    assert rank_interactions(indep)[0].interaction_ratio == pytest.approx(1.0)

    # The single-axis ranking must not see the composite run.
    assert [r.axis for r in rank_components(report)] == ["cache", "policy"]


def test_interactions_land_in_schema_validated_artifact():
    report = _synthetic_pair_report(single_a=3.0, single_b=1.2, pair_scale=4.5)
    artifact = build_artifact(report)
    validate_artifact(artifact)
    (entry,) = artifact["interactions"]
    assert entry["axes"] == ["cache", "policy"]
    assert entry["interaction_ratio"] == pytest.approx(1.25)
    # The composite run rides along in configs but never in ranking.
    assert "no-cache+policy" in {c["run_id"] for c in artifact["configs"]}
    assert "no-cache+policy" not in {r["run_id"] for r in artifact["ranking"]}
    # Pair-free reports keep the key absent (schema marks it optional).
    assert "interactions" not in build_artifact(
        _synthetic_report(no_cache_scale=3.0, no_policy_scale=1.2)
    )


def test_rank_interactions_requires_the_single_runs():
    report = _synthetic_pair_report(single_a=3.0, single_b=1.2, pair_scale=4.5)
    clipped = AblationReport(
        settings=report.settings,
        baseline=report.baseline,
        results=report.results[1:],  # drop no-cache
        mismatches=(),
    )
    with pytest.raises(ValueError, match="no-cache\\+policy"):
        rank_interactions(clipped)


def test_cli_ablate_pairs_roundtrip(tmp_path, monkeypatch, capsys):
    out = tmp_path / "BENCH_ablation.json"
    monkeypatch.setattr(RunnerSettings, "smoke", RunnerSettings.tiny)
    rc = main(
        [
            "ablate", "--smoke",
            "--axes", "cache",
            "--pairs", "cache,session",
            "--out", str(out),
        ]
    )
    assert rc == 0
    artifact = json.loads(out.read_text())
    validate_artifact(artifact)
    # --pairs pulled session's one-off into the grid for the null model:
    # baseline + no-cache + no-session + no-cache+session.
    assert artifact["conformance"]["configs_checked"] == 4
    (entry,) = artifact["interactions"]
    assert entry["axes"] == ["cache", "session"]
    assert entry["pair_contribution"] > 0
    captured = capsys.readouterr()
    assert "interaction" in captured.out
