"""Component-importance ranking and the BENCH_ablation.json artifact.

A component's **contribution** is the geomean, over the suite matrices,
of ``ablated_seconds / baseline_seconds`` for the per-matrix headline
metric — i.e. how much slower the system gets when that one component is
removed. ``contribution > 1`` means the component pays for itself;
``contribution < 1 - harmful_threshold`` flags a **harmful** component
whose removal actually helps (the condition the CI gate fails on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ablation.config import PAIR_SEP, axis
from repro.ablation.runner import AblationReport, ConfigResult
from repro.util.geomean import geomean
from repro.util.schema import check_schema
from repro.util.tables import Table
from repro.ablation.schema import BENCH_ABLATION_SCHEMA

EXP_ID = "ablation"
TITLE = "Component ablation: baseline-plus-one-off importance ranking"


@dataclass(frozen=True)
class RankedComponent:
    """One axis' measured importance."""

    axis: str
    component: str
    run_id: str
    #: geomean slowdown from removing the component (>1 = it helps).
    contribution: float
    #: removal improves the headline geomean beyond the threshold.
    harmful: bool
    #: per-phase geomean ratios (diagnostic: *where* the component pays).
    cold_ratio: float
    warm_ratio: float
    spmm_ratio: float


def _phase_ratio(res: ConfigResult, base: ConfigResult, attr: str) -> float:
    ratios = []
    for name, timing in base.timings.items():
        other = res.timings.get(name)
        base_v = getattr(timing, attr)
        if other is not None and base_v > 0:
            ratios.append(getattr(other, attr) / base_v)
    return geomean(ratios) if ratios else 1.0


def rank_components(report: AblationReport) -> tuple[RankedComponent, ...]:
    """Rank every one-off configuration by contribution, descending.

    Pairwise configurations are skipped here — a joint removal has no
    single component to rank; see :func:`rank_interactions`.
    """
    threshold = report.settings.harmful_threshold
    ranked = []
    for res in report.results:
        if res.config.is_pair:
            continue
        ax = axis(res.config.ablated_axis)
        contribution = _phase_ratio(res, report.baseline, "seconds")
        ranked.append(
            RankedComponent(
                axis=ax.name,
                component=ax.component,
                run_id=res.config.run_id,
                contribution=contribution,
                harmful=contribution < 1.0 - threshold,
                cold_ratio=_phase_ratio(res, report.baseline, "cold_seconds"),
                warm_ratio=_phase_ratio(res, report.baseline, "warm_seconds"),
                spmm_ratio=_phase_ratio(res, report.baseline, "spmm_seconds"),
            )
        )
    return tuple(
        sorted(ranked, key=lambda r: (-r.contribution, r.axis))
    )


@dataclass(frozen=True)
class RankedInteraction:
    """One pairwise ablation measured against its multiplicative null.

    Under independent components, removing both should slow the system by
    the *product* of the one-off slowdowns; ``interaction_ratio`` is the
    measured joint slowdown over that product. ``> 1`` means the pair is
    super-additive (the components cover for each other — removing both
    hurts more than their separate costs predict); ``< 1`` means they are
    redundant (one masks the other's contribution).
    """

    axes: tuple[str, str]
    run_id: str
    #: geomean joint slowdown of removing both components at once.
    pair_contribution: float
    #: product of the two one-off contributions (the independence null).
    expected_contribution: float
    #: pair_contribution / expected_contribution.
    interaction_ratio: float


def rank_interactions(report: AblationReport) -> tuple[RankedInteraction, ...]:
    """Score every pairwise configuration against its independence null.

    Sorted by ``|log(interaction_ratio)|`` descending — the most
    non-independent pair first, whichever direction it deviates.

    Raises:
        ValueError: when a pair's one-off runs are missing from the
            report (the null model needs both single contributions).
    """
    singles = {
        res.config.ablated_axis: _phase_ratio(res, report.baseline, "seconds")
        for res in report.results
        if not res.config.is_pair
    }
    ranked = []
    for res in report.results:
        if not res.config.is_pair:
            continue
        a, b = res.config.pair_axes()
        missing = [name for name in (a, b) if name not in singles]
        if missing:
            raise ValueError(
                f"interaction ranking for {res.config.run_id!r} needs the "
                f"one-off runs for {missing} in the same report"
            )
        pair = _phase_ratio(res, report.baseline, "seconds")
        expected = singles[a] * singles[b]
        ranked.append(
            RankedInteraction(
                axes=(a, b),
                run_id=res.config.run_id,
                pair_contribution=pair,
                expected_contribution=expected,
                interaction_ratio=pair / expected if expected > 0 else 1.0,
            )
        )
    return tuple(
        sorted(
            ranked,
            key=lambda r: (-abs(math.log(max(r.interaction_ratio, 1e-12))), r.run_id),
        )
    )


def _config_entry(res: ConfigResult) -> dict:
    timings = {
        name: {
            "cold_seconds": t.cold_seconds,
            "warm_seconds": t.warm_seconds,
            "spmm_seconds": t.spmm_seconds,
            "total_seconds": t.seconds,
        }
        for name, t in sorted(res.timings.items())
    }
    return {
        "run_id": res.config.run_id,
        "ablated_axis": res.config.ablated_axis or "",
        "description": res.config.describe(),
        "config": res.config.as_dict(),
        "headline_seconds": geomean(
            [t.seconds for t in res.timings.values()] or [0.0]
        ),
        "per_matrix": timings,
        "spmv_checksums": dict(sorted(res.spmv_checksums.items())),
        "spmm_checksums": dict(sorted(res.spmm_checksums.items())),
        "degraded_blocks": res.degraded_blocks,
        "metric_names": sorted(res.metric_names),
    }


def build_artifact(report: AblationReport) -> dict:
    """The schema-validated content of ``BENCH_ablation.json``."""
    s = report.settings
    ranking = rank_components(report)
    artifact = {
        "exp_id": EXP_ID,
        "title": TITLE,
        "context": {
            "seed": s.seed,
            "repeats": s.repeats,
            "passes": s.passes,
            "warm_iters": s.warm_iters,
            "nrhs": s.nrhs,
            "block_bytes": s.block_bytes,
            "profile": s.profile,
            "matrices": [case.name for case in s.cases],
        },
        "baseline": _config_entry(report.baseline),
        "configs": [_config_entry(res) for res in report.results],
        "ranking": [
            {
                "axis": r.axis,
                "component": r.component,
                "run_id": r.run_id,
                "contribution": r.contribution,
                "harmful": r.harmful,
                "cold_ratio": r.cold_ratio,
                "warm_ratio": r.warm_ratio,
                "spmm_ratio": r.spmm_ratio,
            }
            for r in ranking
        ],
        "conformance": {
            "bit_identical": report.bit_identical,
            "configs_checked": len(report.all_results),
            "mismatches": list(report.mismatches),
        },
        "gates": {
            "worst_removal_gain": min((r.contribution for r in ranking), default=1.0),
            "harmful_threshold": s.harmful_threshold,
            "num_harmful": sum(1 for r in ranking if r.harmful),
        },
    }
    interactions = rank_interactions(report)
    if interactions:
        artifact["interactions"] = [
            {
                "axes": list(r.axes),
                "run_id": r.run_id,
                "pair_contribution": r.pair_contribution,
                "expected_contribution": r.expected_contribution,
                "interaction_ratio": r.interaction_ratio,
            }
            for r in interactions
        ]
    check_schema(artifact, BENCH_ABLATION_SCHEMA, "BENCH_ablation.json")
    return artifact


def render_ranking(report: AblationReport) -> str:
    """Human-readable ranked table for the ``repro ablate`` CLI."""
    table = Table(
        ["component", "run", "contribution", "cold", "warm", "spmm", "verdict"],
        formats=["{}", "{}", "{:.3f}x", "{:.2f}x", "{:.2f}x", "{:.2f}x", "{}"],
    )
    for r in rank_components(report):
        if r.harmful:
            verdict = "HARMFUL"
        elif r.contribution < 1.02:
            verdict = "~neutral"
        else:
            verdict = "pays"
        table.add_row(
            r.component, r.run_id, r.contribution,
            r.cold_ratio, r.warm_ratio, r.spmm_ratio, verdict,
        )
    return table.render()


def render_interactions(report: AblationReport) -> str:
    """Human-readable pairwise-interaction table (``repro ablate --pairs``)."""
    table = Table(
        ["pair", "run", "joint", "expected", "interaction", "verdict"],
        formats=["{}", "{}", "{:.3f}x", "{:.3f}x", "{:.3f}x", "{}"],
    )
    for r in rank_interactions(report):
        if r.interaction_ratio > 1.05:
            verdict = "super-additive"
        elif r.interaction_ratio < 0.95:
            verdict = "redundant"
        else:
            verdict = "~independent"
        table.add_row(
            PAIR_SEP.join(r.axes), r.run_id, r.pair_contribution,
            r.expected_contribution, r.interaction_ratio, verdict,
        )
    return table.render()
