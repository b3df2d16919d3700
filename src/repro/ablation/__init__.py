"""repro.ablation — automated component ablation + regression harness.

Enumerates baseline-plus-one-off configurations over every runtime
switch the codebase exposes (decoded-block cache, kernel backend,
degrade policy, SpMM fusion, session reuse),
measures the headline SpMV/SpMM workload per configuration with
cold/warm phases, and emits a ranked component-importance report
(``BENCH_ablation.json``) that flags any component whose removal
*helps*. The same run doubles as a cross-configuration conformance
oracle: every configuration must produce bit-identical results and the
metric names its switches imply. See docs/ABLATION.md.
"""

from repro.ablation.config import (
    AXES,
    AblationConfig,
    Axis,
    BASELINE_RUN_ID,
    PAIR_SEP,
    axis,
    baseline_config,
    core_metric_names,
    enumerate_configs,
    enumerate_pair_configs,
    expected_metric_markers,
)
from repro.ablation.report import (
    EXP_ID,
    RankedComponent,
    RankedInteraction,
    build_artifact,
    rank_components,
    rank_interactions,
    render_interactions,
    render_ranking,
)
from repro.ablation.runner import (
    AblationReport,
    AblationRunner,
    ConfigResult,
    MatrixCase,
    PhaseTiming,
    RunnerSettings,
)
from repro.ablation.schema import BENCH_ABLATION_SCHEMA, validate_artifact

__all__ = [
    "AXES",
    "AblationConfig",
    "AblationReport",
    "AblationRunner",
    "Axis",
    "BASELINE_RUN_ID",
    "BENCH_ABLATION_SCHEMA",
    "ConfigResult",
    "EXP_ID",
    "MatrixCase",
    "PAIR_SEP",
    "PhaseTiming",
    "RankedComponent",
    "RankedInteraction",
    "RunnerSettings",
    "axis",
    "baseline_config",
    "build_artifact",
    "core_metric_names",
    "enumerate_configs",
    "enumerate_pair_configs",
    "expected_metric_markers",
    "rank_components",
    "rank_interactions",
    "render_interactions",
    "render_ranking",
    "validate_artifact",
]
