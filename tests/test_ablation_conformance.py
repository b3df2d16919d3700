"""Cross-configuration conformance: every ablation config is bit-exact.

The differential matrix the ISSUE asks for: one parametrized suite over
the *full* ablation config grid asserting that every configuration
produces bit-identical ``recoded_spmv`` / ``recoded_spmm`` results,
identical degradation accounting, and exactly the metric-name markers
its switches imply. This is the correctness oracle for every switch the
codebase exposes — a new switch that silently changes results cannot
land without tripping it.

The same contract, at larger scale, is checked by ``repro ablate
--smoke``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels, obs
from repro.ablation import (
    AblationConfig,
    core_metric_names,
    enumerate_configs,
    expected_metric_markers,
)
from repro.codecs.engine import DecodedBlockCache, RecodeEngine
from repro.codecs.pipeline import compress_matrix
from repro.collection import generators
from repro.core import ExecutionSession, recoded_spmm, recoded_spmv

from tests.tagged_plans import reencode_with_tags, varied_tags

CONFIGS = enumerate_configs()
NRHS = 3

#: Adversarial shapes: split rows across blocks (leading_partial), dense
#: bands, and an empty-row-heavy unstructured pattern.
CASES = {
    "banded": lambda: generators.banded(900, bandwidth=5, seed=11),
    "unstructured": lambda: generators.unstructured(700, density=0.012, seed=23),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def fixture(request):
    """(name, plans, x, X, reference spmv/spmm bytes).

    Two encodings of the same matrix: the fixed DSH plan, and a plan whose
    per-record codec tags vary block by block (stored-raw and
    Huffman-free records among them). References come from the fixed
    plan, so the tagged plan is held to bit-identical results against it
    under every configuration.
    """
    name = request.param
    m = CASES[name]()
    # Small blocks force many blocks and split rows — the merge-order
    # edge cases the pipelined accumulator must reproduce bitwise.
    plan = compress_matrix(m, block_bytes=1024, seed=7)
    plans = {
        "fixed-dsh": plan,
        "tagged": reencode_with_tags(plan, *varied_tags(plan.nblocks)),
    }
    rng = np.random.default_rng(5)
    x = rng.standard_normal(m.ncols)
    X = rng.standard_normal((m.ncols, NRHS))
    y_ref, _ = recoded_spmv(plan, x)
    cols = [recoded_spmv(plan, X[:, j])[0] for j in range(NRHS)]
    Y_ref = np.column_stack(cols)
    return name, plans, x, X, y_ref.tobytes(), Y_ref.tobytes()


def _engine(config: AblationConfig) -> RecodeEngine:
    return RecodeEngine(
        cache=DecodedBlockCache() if config.cache else None,
        retry_base_s=0.0,
    )


def _run_kwargs(config: AblationConfig, name: str) -> dict:
    return dict(matrix_id=name, policy=config.policy)


@pytest.mark.parametrize("config", CONFIGS, ids=[c.run_id for c in CONFIGS])
def test_spmv_bit_identical_across_grid(config, fixture):
    name, plans, x, _X, y_ref, _Y_ref = fixture
    with kernels.use_backend(config.kernel_backend):
        for kind, plan in plans.items():
            engine = _engine(config)
            try:
                # Twice: cold then (when cached) warm — both must match.
                for _ in range(2):
                    y, stats = recoded_spmv(
                        plan, x, engine=engine, **_run_kwargs(config, name)
                    )
                    assert y.tobytes() == y_ref, (config.run_id, kind)
                    assert stats.degraded_blocks == 0, (config.run_id, kind)
                    assert stats.policy == config.policy
            finally:
                engine.close()


@pytest.mark.parametrize("config", CONFIGS, ids=[c.run_id for c in CONFIGS])
def test_spmm_bit_identical_across_grid(config, fixture):
    name, plans, _x, X, _y_ref, Y_ref = fixture
    with kernels.use_backend(config.kernel_backend):
        for kind, plan in plans.items():
            engine = _engine(config)
            try:
                if config.spmm_fusion:
                    Y, stats = recoded_spmm(
                        plan, X, engine=engine, **_run_kwargs(config, name)
                    )
                    assert stats.nrhs == NRHS
                    assert stats.degraded_blocks == 0, (config.run_id, kind)
                else:
                    Y = np.column_stack(
                        [
                            recoded_spmv(
                                plan, X[:, j], engine=engine,
                                **_run_kwargs(config, name),
                            )[0]
                            for j in range(NRHS)
                        ]
                    )
                assert Y.tobytes() == Y_ref, (config.run_id, kind)
            finally:
                engine.close()


def _metric_names(config: AblationConfig, fixture) -> frozenset[str]:
    """Emit one workload per plan under ``config`` routed the way the
    ablation runner routes it: through an :class:`ExecutionSession` whose
    ``reuse`` flag is the ``session`` axis. The second SpMV exercises the
    warm fast path exactly when session reuse and the cache are both on."""
    name, plans, x, X, _y_ref, _Y_ref = fixture
    with obs.scoped_registry() as reg, kernels.use_backend(config.kernel_backend):
        for plan in plans.values():
            engine = _engine(config)
            sess = ExecutionSession(
                plan,
                matrix_id=name,
                engine=engine,
                policy=config.policy,
                reuse=config.session,
            )
            try:
                sess.spmv(x)
                sess.spmv(x)
                if config.spmm_fusion:
                    sess.spmm(X)
                else:
                    for j in range(NRHS):
                        sess.spmv(X[:, j])
            finally:
                sess.close()
                engine.close()
        return frozenset(rec["name"] for rec in reg.snapshot().values())


def test_metric_names_identical_across_grid(fixture):
    """Core (config-independent) metric names must match across every
    configuration, and config-dependent markers must appear exactly when
    their switch is on — silent divergence between switches is a bug."""
    names = {c.run_id: _metric_names(c, fixture) for c in CONFIGS}
    base_core = core_metric_names(names["baseline"])
    assert base_core, "baseline must emit core metrics"
    for config in CONFIGS:
        core = core_metric_names(names[config.run_id])
        assert core == base_core, (
            config.run_id,
            sorted(core ^ base_core),
        )
        for marker, expected in expected_metric_markers(config).items():
            assert (marker in names[config.run_id]) == expected, (
                config.run_id,
                marker,
            )


def test_grid_shape():
    """Baseline plus one one-off per axis, stable traceable run ids."""
    assert CONFIGS[0].run_id == "baseline"
    assert CONFIGS[0].ablated_axis is None
    one_offs = CONFIGS[1:]
    assert {c.ablated_axis for c in one_offs} == {
        "cache", "kernel_backend", "policy", "spmm_fusion", "session"
    }
    assert len({c.run_id for c in CONFIGS}) == len(CONFIGS)
    base = CONFIGS[0].as_dict()
    for config in one_offs:
        diff = {
            k: v for k, v in config.as_dict().items() if base[k] != v
        }
        assert list(diff) == [config.ablated_axis], config.run_id
        assert config.run_id == f"no-{config.ablated_axis}"
