"""Ablation runner: measure every configuration and prove conformance.

For each enumerated :class:`~repro.ablation.config.AblationConfig` the
runner executes one workload per suite matrix:

* **cold phase** — best-of-``repeats`` timed SpMV with the session reset
  before every attempt (decode-bound: where the executor and kernel
  backend pay);
* **warm phase** — best-of-``repeats`` timed SpMV with the session left
  warm (steady-state: where the cache and session fast path pay);
* **SpMM burst** — best-of-``repeats`` timed ``k``-RHS multiply, fused
  through the session or (``spmm_fusion`` ablated) as ``k`` independent
  SpMVs.

Every configuration runs over a per-case
:class:`~repro.core.ExecutionSession`; the ``session`` axis flips its
``reuse`` switch, so the ablated run rebuilds cold state on every call.

The per-matrix headline metric models one service cycle::

    seconds = cold + warm_iters * warm + spmm

All timings are best-of (min), so the ranking compares each
configuration's floor, not its scheduler noise — and the whole grid is
swept ``passes`` times in alternating order (forward, then reversed)
with per-phase mins merged across sweeps, so a machine-load trend
during one sweep (the baseline always runs first in time) biases the
next sweep the opposite way and cancels instead of compounding.

Alongside the timings the runner is the **conformance oracle**: every
configuration's SpMV and SpMM results are checksummed (raw result-buffer
bytes, so "bit-identical" means bit-identical) and compared against the
baseline's, degraded-block accounting must match, and each
configuration's emitted metric names must carry exactly the markers its
switches imply (:func:`~repro.ablation.config.expected_metric_markers`).
Any divergence lands in ``report.mismatches`` and fails the CLI/bench
gates — a perf win that changes results can never rank.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro import kernels, obs
from repro.ablation.config import (
    AblationConfig,
    core_metric_names,
    expected_metric_markers,
)
from repro.codecs.engine import DecodedBlockCache, RecodeEngine
from repro.codecs.pipeline import MatrixCompression, compress_matrix
from repro.collection import generators
from repro.core import ExecutionSession
from repro.sparse.csr import CSRMatrix
from repro.util.rng import derive_seed

#: Builders a :class:`MatrixCase` may reference (all seeded).
_CASE_KINDS = {
    "banded": generators.banded,
    "unstructured": generators.unstructured,
    "graph": generators.powerlaw_graph,
    "fem": generators.fem_stencil,
}


@dataclass(frozen=True)
class MatrixCase:
    """One suite matrix, reproducible from ``(kind, kwargs, seed)``."""

    name: str
    kind: str
    kwargs: tuple[tuple[str, object], ...]

    def build(self, seed: int) -> CSRMatrix:
        builder = _CASE_KINDS.get(self.kind)
        if builder is None:
            raise ValueError(
                f"unknown matrix case kind {self.kind!r}; know {sorted(_CASE_KINDS)}"
            )
        return builder(**dict(self.kwargs), seed=derive_seed(seed, self.name))


@dataclass(frozen=True)
class RunnerSettings:
    """How heavy an ablation run is; never what it computes."""

    cases: tuple[MatrixCase, ...]
    repeats: int = 3
    #: Full-grid sweeps merged by per-phase min. Best-of repeats inside
    #: one config cannot cancel a machine-load *trend* across configs
    #: (the baseline always runs first in time); a second sweep runs the
    #: grid in reverse so the trend biases it the opposite way, and
    #: checksums must agree across sweeps (a free determinism check).
    passes: int = 2
    warm_iters: int = 3
    nrhs: int = 4
    seed: int = 2019
    block_bytes: int = 8192
    #: A component is *harmful* when its removal improves the headline
    #: geomean by more than this fraction (the CI gate).
    harmful_threshold: float = 0.05
    #: Profile label recorded in the artifact context.
    profile: str = "default"

    @classmethod
    def default(cls) -> "RunnerSettings":
        return cls(
            cases=(
                MatrixCase(
                    "unstructured-60k", "unstructured",
                    (("n", 2400), ("density", 0.01)),
                ),
                MatrixCase(
                    "banded-48k", "banded", (("n", 6000), ("bandwidth", 8)),
                ),
                MatrixCase("graph-40k", "graph", (("n", 10000), ("attach", 4))),
            ),
        )

    @classmethod
    def smoke(cls) -> "RunnerSettings":
        """Reduced grid for CI: ~40k-nnz matrices, fewer repeats."""
        return cls(
            cases=(
                MatrixCase(
                    "unstructured-40k", "unstructured",
                    (("n", 2000), ("density", 0.01)),
                ),
                MatrixCase(
                    "banded-33k", "banded", (("n", 4200), ("bandwidth", 8)),
                ),
            ),
            repeats=2,
            profile="smoke",
        )

    @classmethod
    def tiny(cls) -> "RunnerSettings":
        """Unit-test scale: small matrices, one repeat."""
        return cls(
            cases=(
                MatrixCase(
                    "unstructured-4k", "unstructured",
                    (("n", 640), ("density", 0.01)),
                ),
                MatrixCase(
                    "banded-5k", "banded", (("n", 1100), ("bandwidth", 5)),
                ),
            ),
            repeats=1,
            passes=1,
            warm_iters=1,
            nrhs=2,
            block_bytes=2048,
            profile="tiny",
        )


@dataclass
class PhaseTiming:
    """Best-of timings for one (config, matrix) workload."""

    cold_seconds: float
    warm_seconds: float
    spmm_seconds: float
    warm_iters: int

    @property
    def seconds(self) -> float:
        """The per-matrix headline metric: one modeled service cycle."""
        return self.cold_seconds + self.warm_iters * self.warm_seconds + self.spmm_seconds


@dataclass
class ConfigResult:
    """Everything one configuration produced."""

    config: AblationConfig
    timings: dict[str, PhaseTiming] = field(default_factory=dict)
    #: sha256 of the raw SpMV result buffer, per matrix.
    spmv_checksums: dict[str, str] = field(default_factory=dict)
    #: sha256 of the raw SpMM result buffer, per matrix.
    spmm_checksums: dict[str, str] = field(default_factory=dict)
    degraded_blocks: int = 0
    metric_names: frozenset[str] = frozenset()


@dataclass
class AblationReport:
    """Runner output: per-config measurements plus the conformance verdict."""

    settings: RunnerSettings
    baseline: ConfigResult
    results: tuple[ConfigResult, ...]  # one-off configs, enumeration order
    mismatches: tuple[str, ...]

    @property
    def bit_identical(self) -> bool:
        return not self.mismatches

    @property
    def all_results(self) -> tuple[ConfigResult, ...]:
        return (self.baseline, *self.results)


def _checksum(y: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(y).tobytes()).hexdigest()


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class AblationRunner:
    """Enumerate, measure, and cross-check ablation configurations."""

    def __init__(self, settings: RunnerSettings | None = None):
        self.settings = settings or RunnerSettings.default()
        self._plans: dict[str, MatrixCompression] = {}
        self._vectors: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # -- fixtures shared across configs --------------------------------------

    def _fixture(self, case: MatrixCase):
        s = self.settings
        if case.name not in self._plans:
            m = case.build(s.seed)
            rng = np.random.default_rng(derive_seed(s.seed, case.name, "x"))
            x = rng.standard_normal(m.ncols)
            X = rng.standard_normal((m.ncols, s.nrhs))
            self._vectors[case.name] = (x, X)
            # Plans are byte-identical across kernel backends by contract
            # (gated in bench_fig12), so one encode serves every config.
            self._plans[case.name] = compress_matrix(
                m, block_bytes=s.block_bytes, seed=s.seed
            )
        return self._plans[case.name], self._vectors[case.name]

    # -- one configuration ----------------------------------------------------

    def _build_engine(self, config: AblationConfig) -> RecodeEngine:
        return RecodeEngine(
            cache=DecodedBlockCache() if config.cache else None,
            retry_base_s=0.0,
        )

    def run_config(self, config: AblationConfig) -> ConfigResult:
        """Measure one configuration over every suite matrix."""
        s = self.settings
        result = ConfigResult(config=config)
        with obs.scoped_registry() as reg, kernels.use_backend(config.kernel_backend):
            engine = self._build_engine(config)
            try:
                for case in s.cases:
                    plan, (x, X) = self._fixture(case)
                    self._run_case(config, engine, case.name, plan, x, X, result)
            finally:
                engine.close()
            result.metric_names = frozenset(
                rec["name"] for rec in reg.snapshot().values()
            )
        return result

    def _run_case(
        self,
        config: AblationConfig,
        engine: RecodeEngine,
        name: str,
        plan: MatrixCompression,
        x: np.ndarray,
        X: np.ndarray,
        result: ConfigResult,
    ) -> None:
        s = self.settings
        # Every configuration routes through a session; the ``session``
        # axis flips ``reuse`` so ablated runs rebuild cold state on
        # every call (cache dropped, no warm fast path, fresh buffers).
        sess = ExecutionSession(
            plan,
            matrix_id=name,
            engine=engine,
            mode=config.executor,
            policy=config.policy,
            reuse=config.session,
        )
        try:
            def spmv():
                return sess.spmv(x)

            # Warm the pool (fork/exec + worker imports) outside any
            # timer, then restore cold state for the cold phase.
            y, stats = spmv()
            result.degraded_blocks += stats.degraded_blocks
            result.spmv_checksums[name] = _checksum(y)

            def cold_once():
                sess.reset()
                t0 = time.perf_counter()
                spmv()
                return time.perf_counter() - t0

            cold = min(cold_once() for _ in range(s.repeats))
            # The last cold attempt left the session warm (when reusing).
            warm = _best_of(s.repeats, spmv)

            if config.spmm_fusion:
                Y, mstats = sess.spmm(X)
                result.degraded_blocks += mstats.degraded_blocks
                result.spmm_checksums[name] = _checksum(Y)
                spmm = _best_of(s.repeats, lambda: sess.spmm(X))
            else:
                # sess.spmv returns the session's reusable buffer, so
                # copy each column before the next call overwrites it.
                cols = []
                for j in range(s.nrhs):
                    yj, st = sess.spmv(X[:, j])
                    result.degraded_blocks += st.degraded_blocks
                    cols.append(yj.copy())
                result.spmm_checksums[name] = _checksum(np.column_stack(cols))
                spmm = _best_of(
                    s.repeats,
                    lambda: [sess.spmv(X[:, j]) for j in range(s.nrhs)],
                )
        finally:
            sess.close()
        result.timings[name] = PhaseTiming(
            cold_seconds=cold,
            warm_seconds=warm,
            spmm_seconds=spmm,
            warm_iters=s.warm_iters,
        )

    # -- the full grid ---------------------------------------------------------

    @staticmethod
    def _merge_pass(acc: ConfigResult, res: ConfigResult) -> list[str]:
        """Fold a later sweep into ``acc``: per-phase min on timings,
        everything deterministic must be identical. Returns mismatches."""
        rid = acc.config.run_id
        mismatches: list[str] = []
        for name, t in res.timings.items():
            prev = acc.timings[name]
            acc.timings[name] = PhaseTiming(
                cold_seconds=min(prev.cold_seconds, t.cold_seconds),
                warm_seconds=min(prev.warm_seconds, t.warm_seconds),
                spmm_seconds=min(prev.spmm_seconds, t.spmm_seconds),
                warm_iters=prev.warm_iters,
            )
        for label, pairs in (
            ("SpMV", (acc.spmv_checksums, res.spmv_checksums)),
            ("SpMM", (acc.spmm_checksums, res.spmm_checksums)),
        ):
            if pairs[0] != pairs[1]:
                mismatches.append(
                    f"{rid}: {label} checksum changed between sweeps"
                )
        if acc.degraded_blocks != res.degraded_blocks:
            mismatches.append(
                f"{rid}: degraded-block accounting changed between sweeps"
            )
        if acc.metric_names != res.metric_names:
            drift = sorted(acc.metric_names ^ res.metric_names)
            mismatches.append(
                f"{rid}: metric names changed between sweeps: {drift}"
            )
        return mismatches

    def run(self, configs: tuple[AblationConfig, ...]) -> AblationReport:
        """Run ``passes`` full sweeps of baseline + one-offs, merge by
        per-phase min, and cross-check conformance.

        Raises:
            ValueError: if ``configs`` does not lead with the baseline.
        """
        if not configs or not configs[0].is_baseline:
            raise ValueError("configs must lead with the baseline configuration")
        # Build matrices/plans/vectors before any config's metric scope
        # opens: encode-side metrics must not leak into the first
        # config's name set (they'd fail the cross-config comparison).
        for case in self.settings.cases:
            self._fixture(case)
        mismatches: list[str] = []
        merged: list[ConfigResult] = []
        for pass_i in range(max(1, self.settings.passes)):
            # Alternate sweep direction: a monotone machine-load trend
            # biases a fixed-order sweep one way (the baseline always
            # runs first); reversing odd sweeps makes the trend push the
            # two sweeps' ratios in opposite directions, so the
            # per-phase min-merge cancels it instead of compounding it.
            order = range(len(configs))
            if pass_i % 2:
                order = reversed(order)
            for j in order:
                res = self.run_config(configs[j])
                if pass_i == 0:
                    merged.append(res)
                else:
                    mismatches.extend(self._merge_pass(merged[j], res))
        baseline, results = merged[0], tuple(merged[1:])
        mismatches.extend(self._conformance(baseline, results))
        return AblationReport(
            settings=self.settings,
            baseline=baseline,
            results=results,
            mismatches=tuple(mismatches),
        )

    def _conformance(
        self, baseline: ConfigResult, results: tuple[ConfigResult, ...]
    ) -> list[str]:
        """Every configuration must reproduce the baseline bit-for-bit."""
        mismatches: list[str] = []
        base_core = core_metric_names(baseline.metric_names)
        for res in (baseline, *results):
            rid = res.config.run_id
            if res is not baseline:
                for name, ck in baseline.spmv_checksums.items():
                    if res.spmv_checksums.get(name) != ck:
                        mismatches.append(f"{rid}: SpMV result diverged on {name}")
                for name, ck in baseline.spmm_checksums.items():
                    if res.spmm_checksums.get(name) != ck:
                        mismatches.append(f"{rid}: SpMM result diverged on {name}")
                if res.degraded_blocks != baseline.degraded_blocks:
                    mismatches.append(
                        f"{rid}: degraded-block accounting diverged "
                        f"({res.degraded_blocks} != {baseline.degraded_blocks})"
                    )
                core = core_metric_names(res.metric_names)
                if core != base_core:
                    drift = sorted(core ^ base_core)
                    mismatches.append(f"{rid}: core metric names diverged: {drift}")
            for marker, expected in expected_metric_markers(res.config).items():
                present = marker in res.metric_names
                if present != expected:
                    state = "missing" if expected else "unexpectedly present"
                    mismatches.append(f"{rid}: metric marker {marker!r} {state}")
        return mismatches
