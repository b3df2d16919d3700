"""Solver parity + convergence suite (ISSUE satellite).

Three contracts:

* **Bit-parity everywhere** — CG and PageRank results are bit-identical
  across serial/pipelined executors, both kernel backends, and
  with/without session reuse, and identical to the hand-rolled loops the
  examples used before ``repro.solvers`` existed.
* **CG converges within theory** — on an SPD fixture the iteration count
  stays under the classical ``sqrt(kappa)`` bound.
* **Honest traffic under degrade** — an armed fault plan keeps the
  session cold, so every solver iteration re-pays (and re-accounts) its
  DRAM stream, while results stay bit-exact (degrade substitutes the
  original block).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.codecs import save_plan
from repro.codecs.stats import dsh_plan
from repro.collection import generators
from repro.core import ExecutionSession, recoded_spmv
from repro.faults import FaultPlan
from repro.solvers import SolverResult, cg, pagerank, power_iteration
from repro.sparse import spmv
from repro.sparse.coo import COOMatrix

MODES = ("serial", "pipelined")
BACKENDS = ("numpy", "python")
REUSE = (True, False)
GRID = list(itertools.product(MODES, BACKENDS, REUSE))
GRID_IDS = [f"{m}-{b}-{'warm' if r else 'cold'}" for m, b, r in GRID]


def _stochastic(adj):
    """Column-stochastic P^T, same construction as examples/graph_pagerank."""
    out_degree = np.maximum(adj.row_nnz(), 1)
    rows = np.repeat(np.arange(adj.nrows), adj.row_nnz())
    vals = adj.val / out_degree[rows]
    return COOMatrix(
        (adj.ncols, adj.nrows), adj.col_idx.astype(np.int64), rows, vals
    ).to_csr()


def _cg_reference(plan, b, tol=1e-8, max_iter=500):
    """The pre-solvers hand-rolled CG loop (bit-parity oracle)."""
    x = np.zeros_like(b)
    r = b - recoded_spmv(plan, x)[0]
    p = r.copy()
    rs = float(r @ r)
    for iteration in range(1, max_iter + 1):
        ap = recoded_spmv(plan, p)[0]
        alpha = rs / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        if math.sqrt(rs_new) < tol:
            return x, iteration
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, max_iter


def _pagerank_reference(plan, n, damping=0.85, tol=1e-10, max_iter=200):
    """The pre-solvers hand-rolled power-iteration loop (parity oracle)."""
    x = np.full(n, 1.0 / n)
    for iteration in range(1, max_iter + 1):
        y = recoded_spmv(plan, x)[0]
        y = damping * y + (1 - damping) / n
        y += (1.0 - y.sum()) / n
        if np.abs(y - x).sum() < tol:
            return y, iteration
        x = y
    return x, max_iter


@pytest.fixture(scope="module")
def spd():
    """Small SPD Poisson system plus its bit-parity CG reference."""
    m = generators.mesh2d(12, value_style="exact")
    plan = dsh_plan(m)
    b = np.random.default_rng(7).normal(size=m.nrows)
    x_ref, iters_ref = _cg_reference(plan, b)
    return m, plan, b, x_ref.tobytes(), iters_ref


@pytest.fixture(scope="module")
def web():
    """Small column-stochastic web graph plus its PageRank reference."""
    adj = generators.powerlaw_graph(300, attach=3, seed=11)
    pt = _stochastic(adj)
    plan = dsh_plan(pt)
    r_ref, iters_ref = _pagerank_reference(plan, pt.nrows)
    return pt, plan, r_ref.tobytes(), iters_ref


class TestBitParity:
    @pytest.mark.parametrize("mode,backend,reuse", GRID, ids=GRID_IDS)
    def test_cg_identical_across_configs(self, spd, mode, backend, reuse):
        _m, plan, b, x_ref, iters_ref = spd
        with kernels.use_backend(backend):
            with ExecutionSession(plan, mode=mode, reuse=reuse) as sess:
                result = cg(sess, b)
        assert result.converged
        assert result.iterations == iters_ref
        assert result.x.tobytes() == x_ref

    @pytest.mark.parametrize("mode,backend,reuse", GRID, ids=GRID_IDS)
    def test_pagerank_identical_across_configs(self, web, mode, backend, reuse):
        _pt, plan, r_ref, iters_ref = web
        with kernels.use_backend(backend):
            with ExecutionSession(plan, mode=mode, reuse=reuse) as sess:
                result = pagerank(sess)
        assert result.converged
        assert result.iterations == iters_ref
        assert result.x.tobytes() == r_ref

    def test_cg_identical_on_container_session(self, spd, tmp_path):
        """A pipelined session over an mmap-streamed ``.dsh`` path produces
        the exact same float sequence — compare a truncated run."""
        _m, plan, b, _x_ref, _ = spd
        x_trunc, _ = _cg_reference(plan, b, max_iter=3)
        path = tmp_path / "spd.dsh"
        save_plan(plan, path)
        with ExecutionSession(path, workers=2, mode="pipelined") as sess:
            result = cg(sess, b, max_iter=3)
            assert sess.warm_calls > 0
        assert result.x.tobytes() == x_trunc.tobytes()

    def test_power_iteration_identical_warm_vs_cold(self, spd):
        _m, plan, _b, _x_ref, _ = spd
        results = []
        for reuse in REUSE:
            with ExecutionSession(plan, reuse=reuse) as sess:
                results.append(power_iteration(sess, max_iter=25))
        assert results[0].x.tobytes() == results[1].x.tobytes()
        assert results[0].info["eigenvalue"] == results[1].info["eigenvalue"]

    def test_power_iteration_finds_dominant_eigenvalue(self):
        """On an operator with a planted spectral gap the Rayleigh
        estimate lands on the dominant eigenvalue quickly."""
        n = 64
        diag = np.linspace(1.0, 2.0, n)
        diag[n // 2] = 10.0  # dominant eigenvalue with a 5x gap
        idx = np.arange(n, dtype=np.int64)
        plan = dsh_plan(COOMatrix((n, n), idx, idx, diag).to_csr())
        result = power_iteration(plan, tol=1e-9, max_iter=200)
        assert result.converged
        assert result.info["eigenvalue"] == pytest.approx(10.0, rel=1e-6)


class TestHypothesisParity:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_cg_matches_reference_for_any_rhs(self, spd, seed):
        _m, plan, _b, _x_ref, _ = spd
        b = np.random.default_rng(seed).normal(size=plan.blocked.shape[0])
        x_ref, iters_ref = _cg_reference(plan, b, max_iter=60)
        with ExecutionSession(plan) as sess:
            result = cg(sess, b, max_iter=60)
        assert result.iterations == iters_ref
        assert result.x.tobytes() == x_ref.tobytes()

    @settings(max_examples=6, deadline=None)
    @given(
        damping=st.floats(
            min_value=0.5, max_value=0.95, allow_nan=False, allow_infinity=False
        )
    )
    def test_pagerank_matches_reference_for_any_damping(self, web, damping):
        _pt, plan, _r_ref, _ = web
        r_ref, iters_ref = _pagerank_reference(
            plan, plan.blocked.shape[0], damping=damping, max_iter=30
        )
        with ExecutionSession(plan) as sess:
            result = pagerank(sess, damping=damping, max_iter=30)
        assert result.iterations == iters_ref
        assert result.x.tobytes() == r_ref.tobytes()


class TestConvergenceTheory:
    def test_cg_within_sqrt_kappa_bound(self, spd):
        """CG error contracts like ((sqrt(k)-1)/(sqrt(k)+1))^m in the
        A-norm; with norm-equivalence slack the iteration count must stay
        under ~0.5*sqrt(kappa)*ln(2*sqrt(kappa)/eps)."""
        m, plan, b, _x_ref, _ = spd
        dense = np.column_stack(
            [spmv(m, np.eye(m.ncols)[:, j]) for j in range(m.ncols)]
        )
        eigs = np.linalg.eigvalsh((dense + dense.T) / 2.0)
        kappa = float(eigs[-1] / eigs[0])
        assert kappa > 1.0
        tol = 1e-8
        with ExecutionSession(plan) as sess:
            result = cg(sess, b, tol=tol)
        assert result.converged
        eps = tol / float(np.linalg.norm(b))
        bound = 0.5 * math.sqrt(kappa) * math.log(2.0 * math.sqrt(kappa) / eps) + 1
        assert result.iterations <= bound

    def test_residual_history_reaches_tolerance(self, spd):
        _m, plan, b, _x_ref, _ = spd
        with ExecutionSession(plan) as sess:
            result = cg(sess, b, tol=1e-8)
        assert result.history[-1].residual < 1e-8
        assert result.residual == result.history[-1].residual


class TestTrafficAccounting:
    def test_steady_state_decodes_once(self, spd):
        """After the setup SpMV the matrix never re-streams: cumulative
        DRAM bytes are flat while vector bytes grow linearly."""
        _m, plan, b, _x_ref, _ = spd
        with ExecutionSession(plan) as sess:
            result = cg(sess, b)
        drams = [rec.dram_bytes for rec in result.history]
        assert drams[0] > 0
        assert all(d == drams[0] for d in drams)  # decode once, then cached
        vectors = [rec.vector_bytes for rec in result.history]
        per_iter = 8 * sum(plan.blocked.shape)
        assert vectors == [per_iter * (i + 1) for i in range(len(vectors))]
        assert result.total_bytes == drams[0] + vectors[-1]
        curve = result.convergence_curve()
        assert len(curve) == result.iterations
        assert curve[-1][0] == result.total_bytes

    def test_no_session_pays_every_iteration(self, spd):
        _m, plan, b, _x_ref, _ = spd
        with ExecutionSession(plan, reuse=False) as sess:
            result = cg(sess, b, max_iter=5)
        deltas = np.diff([rec.dram_bytes for rec in result.history])
        assert (deltas > 0).all()

    def test_degrade_faults_keep_per_iteration_accounting_honest(self, spd):
        """Armed fault plan + degraded block: the session never warms, so
        each iteration re-pays its stream — and results stay bit-exact
        because degrade substitutes the original block."""
        _m, plan, b, _x_ref, _ = spd
        x_trunc, _ = _cg_reference(plan, b, max_iter=4)
        chaos = FaultPlan(seed=3, bitflip_blocks=(0,))
        with ExecutionSession(plan, policy="degrade") as sess:
            with chaos.activate():
                result = cg(sess, b, max_iter=4)
                assert not sess.warm
            assert sess.warm_calls == 0
        assert result.x.tobytes() == x_trunc.tobytes()
        deltas = np.diff([rec.dram_bytes for rec in result.history])
        assert (deltas > 0).all()


class TestResultShape:
    def test_solver_result_fields(self, spd):
        _m, plan, b, _x_ref, iters_ref = spd
        with ExecutionSession(plan) as sess:
            result = cg(sess, b)
        assert isinstance(result, SolverResult)
        assert result.iterations == iters_ref == len(result.history)
        records = result.history
        assert all(rec.iteration == i + 1 for i, rec in enumerate(records))
        assert all(rec.seconds >= 0.0 for rec in records)

    def test_pagerank_rejects_rectangular(self):
        m = generators.banded(40, bandwidth=2, seed=1)
        rect = COOMatrix(
            (m.nrows + 8, m.ncols),
            np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.ones(1),
        ).to_csr()
        with pytest.raises(ValueError, match="square"):
            pagerank(dsh_plan(rect))

    def test_power_rejects_zero_start(self, spd):
        _m, plan, _b, _x_ref, _ = spd
        with pytest.raises(ValueError, match="nonzero"):
            power_iteration(plan, x0=np.zeros(plan.blocked.shape[1]))

    def test_plain_plan_accepted_without_session(self, spd):
        """Solvers build (and close) a temporary session for raw plans."""
        _m, plan, b, x_ref, iters_ref = spd
        result = cg(plan, b)
        assert result.iterations == iters_ref
        assert result.x.tobytes() == x_ref
