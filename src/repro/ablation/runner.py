"""Ablation runner: measure every configuration and prove conformance.

For each enumerated :class:`~repro.ablation.config.AblationConfig` the
runner times one workload per suite matrix, in rounds of a **cold** SpMV
with the session reset first (decode-bound: where the kernel backend
pays), a **warm** SpMV (steady-state: where the cache and session fast
path pay) and an **SpMM burst**, a ``k``-RHS multiply fused through the
session or (``spmm_fusion`` ablated) as ``k`` independent SpMVs. Each
phase keeps its best time over at least ``repeats`` rounds, and more
until the rounds add up to ``min_timed_seconds``.

Every configuration runs over a per-case
:class:`~repro.core.ExecutionSession`; the ``session`` axis flips its
``reuse`` switch, so the ablated run rebuilds cold state on every call.

The per-matrix headline metric models one service cycle::

    seconds = cold + warm_iters * warm + spmm

All timings are best-of (min), so the ranking compares each
configuration's floor, not its scheduler noise. Every configuration's
sessions stay open through a sweep and each round visits them all in
turn, alternating direction, so a host slowdown lasting seconds lands on
all of them alike, not on the baseline alone; each takes one untimed
round first, so no configuration's first-use costs are timed. The grid is swept
``passes`` times over fresh sessions, odd sweeps reversed, merging
per-phase mins.

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
from contextlib import ExitStack, contextmanager
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
    #: Full-grid sweeps over fresh sessions, merged by per-phase min;
    #: checksums must agree across sweeps (a free determinism check).
    passes: int = 2
    warm_iters: int = 3
    nrhs: int = 4
    seed: int = 2019
    block_bytes: int = 8192
    #: A component is *harmful* when its removal improves the headline
    #: geomean by more than this fraction (the CI gate).
    harmful_threshold: float = 0.05
    #: Rounds go on past ``repeats`` until they add up to this long, so a
    #: millisecond phase is a best-of-many (0: exactly ``repeats``).
    min_timed_seconds: float = 0.0
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
            min_timed_seconds=0.5,
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


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _faster(a: PhaseTiming | None, b: PhaseTiming) -> PhaseTiming:
    """Per-phase min of two timings of one workload."""
    if a is None:
        return b
    return PhaseTiming(
        min(a.cold_seconds, b.cold_seconds), min(a.warm_seconds, b.warm_seconds),
        min(a.spmm_seconds, b.spmm_seconds), a.warm_iters,
    )


class _OpenConfig:
    """One configuration's engine, metric registry and per-matrix
    sessions, open for a whole sweep."""

    def __init__(self, runner: "AblationRunner", config: AblationConfig):
        self.config, self.result = config, ConfigResult(config=config)
        self.registry = obs.MetricsRegistry()
        self.rounds, self.timed_seconds = 0, 0.0
        with self.scope():
            self.engine = RecodeEngine(
                cache=DecodedBlockCache() if config.cache else None, retry_base_s=0.0
            )
            # Every configuration routes through a session; the ``session``
            # axis flips ``reuse`` so ablated runs rebuild cold state on
            # every call (cache dropped, no warm fast path, fresh buffers).
            self.sessions = {
                case.name: ExecutionSession(
                    runner._fixture(case)[0],
                    matrix_id=case.name,
                    engine=self.engine,
                    policy=config.policy,
                    reuse=config.session,
                )
                for case in runner.settings.cases
            }

    @contextmanager
    def scope(self):
        """This configuration's metric registry and kernel backend."""
        with obs.scoped_registry(self.registry), kernels.use_backend(self.config.kernel_backend):
            yield

    def close(self) -> None:
        with self.scope():
            for sess in self.sessions.values():
                sess.close()
            self.engine.close()
        self.result.metric_names = frozenset(r["name"] for r in self.registry.snapshot().values())

    def check(self, vectors: dict) -> None:
        """Untimed first calls: they pay first-use costs and take the
        checksums every configuration and sweep must reproduce."""
        res = self.result
        with self.scope():
            for name, sess in self.sessions.items():
                x, X = vectors[name]
                y, stats = sess.spmv(x)
                res.spmv_checksums[name] = _checksum(y)
                if self.config.spmm_fusion:
                    Y, mstats = sess.spmm(X)
                    calls = [stats, mstats]
                else:
                    # sess.spmv returns the session's reusable buffer, so
                    # copy each column before the next call overwrites it.
                    cols = [(yj.copy(), st) for yj, st in map(sess.spmv, X.T)]
                    Y = np.column_stack([yj for yj, _ in cols])
                    calls = [stats, *(st for _, st in cols)]
                res.spmm_checksums[name] = _checksum(Y)
                res.degraded_blocks += sum(st.degraded_blocks for st in calls)

    def _cycle(self, vectors: dict):
        """One cold → warm → SpMM cycle per matrix, yielding each matrix's
        ``(name, cold, warm, spmm)`` seconds."""
        with self.scope():
            for name, sess in self.sessions.items():
                x, X = vectors[name]
                sess.reset()
                cold = _timed(sess.spmv, x)
                # The cold call left the session warm (when reusing), but
                # the first warm call still pays first-touch costs.
                sess.spmv(x)
                warm = _timed(sess.spmv, x)
                if self.config.spmm_fusion:
                    spmm = _timed(sess.spmm, X)
                else:
                    spmm = _timed(lambda: [sess.spmv(X[:, j]) for j in range(X.shape[1])])
                yield name, cold, warm, spmm

    def warm_up(self, vectors: dict) -> None:
        """An untimed cycle, paying the first-use costs (table binds, DMA
        ledger memos, page cache) the first timed round would pay."""
        for _ in self._cycle(vectors):
            pass

    def round(self, vectors: dict, warm_iters: int) -> None:
        """One timed cold → warm → SpMM cycle per matrix."""
        for name, cold, warm, spmm in self._cycle(vectors):
            self.timed_seconds += cold + warm + spmm
            self.result.timings[name] = _faster(
                self.result.timings.get(name), PhaseTiming(cold, warm, spmm, warm_iters)
            )
        self.rounds += 1


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

    # -- the full grid ---------------------------------------------------------

    @staticmethod
    def _merge_pass(acc: ConfigResult, res: ConfigResult) -> list[str]:
        """Fold a later sweep into ``acc``: per-phase min on timings,
        everything deterministic must be identical. Returns mismatches."""
        rid = acc.config.run_id
        mismatches: list[str] = []
        for name, t in res.timings.items():
            acc.timings[name] = _faster(acc.timings[name], t)
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

    def _sweep(self, configs: tuple[AblationConfig, ...]) -> list[ConfigResult]:
        """Measure every configuration once, over fresh sessions, in
        interleaved rounds (see the module docstring)."""
        s = self.settings
        with ExitStack() as stack:
            runs = [_OpenConfig(self, config) for config in configs]
            for run in runs:
                stack.callback(run.close)
                run.check(self._vectors)
            for run in runs:
                run.warm_up(self._vectors)
            pending = runs
            while pending:
                for run in pending:
                    run.round(self._vectors, s.warm_iters)
                pending = [
                    run for run in reversed(pending)
                    if run.rounds < s.repeats or run.timed_seconds < s.min_timed_seconds
                ]
        return [run.result for run in runs]

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
        merged = self._sweep(configs)
        for pass_i in range(1, self.settings.passes):
            # Odd sweeps open and visit the configurations in reverse: the
            # first one opened runs a few percent slow, so no
            # configuration should always be it.
            step = -1 if pass_i % 2 else 1
            for acc, res in zip(merged, self._sweep(configs[::step])[::step]):
                mismatches.extend(self._merge_pass(acc, res))
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
