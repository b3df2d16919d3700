"""Iterative solvers over session-backed recoded SpMV.

The drivers here run *entirely* over one
:class:`~repro.core.session.ExecutionSession`: the first iteration pays
the decode-once cost, every later iteration multiplies out of the
session's decoded-block cache, and the per-iteration telemetry
(``solver.*``) plus :class:`SolverResult.convergence_curve` turn that
into the paper's real argument — residual reduction *per byte of DRAM
traffic*, not per wall-second.

The float-operation sequences are exactly those of the original
hand-rolled example loops (``examples/pde_heat_solver.py`` and
``examples/graph_pagerank.py``), so results are bit-identical to them —
and, because sessions are bit-identical to single-shot
:func:`~repro.core.recoded_spmv` across every executor and backend, to
any other configuration too.

Traffic accounting: ``dram_bytes`` is the matrix-side DRAM traffic the
executors actually logged (decode-once in steady state; per-iteration
re-streams under faults/degrade stay honestly accounted because the
session disables its warm path there). ``vector_bytes`` models the
unavoidable dense-operand traffic of each iteration — x streamed in, y
streamed out, ``8 * (ncols + nrows)`` bytes — the same model
:func:`repro.sparse.spmm.spmm_speedup_model` uses for its crossover.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.session import ExecutionSession
from repro.sparse.csr import VALUE_DTYPE


@dataclass(frozen=True)
class IterationRecord:
    """One solver iteration's telemetry snapshot (cumulative bytes)."""

    iteration: int
    residual: float
    #: Cumulative matrix-side DRAM bytes after this iteration.
    dram_bytes: int
    #: Cumulative modeled dense-vector bytes (8*(ncols+nrows) per SpMV).
    vector_bytes: int
    cache_hit_rate: float
    seconds: float


@dataclass
class SolverResult:
    """Outcome of one iterative solve."""

    x: np.ndarray
    converged: bool
    iterations: int
    residual: float
    history: tuple[IterationRecord, ...]
    #: Algorithm-specific extras (e.g. ``eigenvalue`` for power iteration).
    info: dict = field(default_factory=dict)

    @property
    def dram_bytes(self) -> int:
        return self.history[-1].dram_bytes if self.history else 0

    @property
    def vector_bytes(self) -> int:
        return self.history[-1].vector_bytes if self.history else 0

    @property
    def total_bytes(self) -> int:
        return self.dram_bytes + self.vector_bytes

    def convergence_curve(self) -> list[tuple[int, float]]:
        """``(cumulative_total_bytes, residual)`` per iteration — the
        convergence-vs-traffic curve. Plot residual (log) against bytes
        to compare codecs/configurations at equal data movement."""
        return [
            (rec.dram_bytes + rec.vector_bytes, rec.residual)
            for rec in self.history
        ]


@contextmanager
def _session_for(a, **kwargs):
    """Yield ``a`` if it already is a session, else a temporary one."""
    if isinstance(a, ExecutionSession):
        yield a
    else:
        sess = ExecutionSession(a, **kwargs)
        try:
            yield sess
        finally:
            sess.close()


class _Telemetry:
    """Per-iteration ``solver.*`` emission + history accumulation."""

    def __init__(self, alg: str, session: ExecutionSession):
        self.alg = alg
        self.session = session
        nrows, ncols = session.plan.blocked.shape
        self.vector_bytes_per_spmv = 8 * (ncols + nrows)
        self.dram_bytes = 0
        self.vector_bytes = 0
        self.history: list[IterationRecord] = []
        reg = obs.registry()  # handles resolved once per solve
        self._iterations = reg.counter("solver.iterations", solver=alg)
        self._traffic = reg.counter("solver.traffic_bytes", solver=alg)
        self._vector = reg.counter("solver.vector_bytes", solver=alg)
        self._residual = reg.gauge("solver.residual", solver=alg)
        self._hit_rate = reg.gauge("solver.cache_hit_rate", solver=alg)
        self._seconds = reg.histogram("solver.iteration_seconds", solver=alg)

    def record(self, iteration: int, residual: float, stats, seconds: float):
        self.dram_bytes += stats.dram_bytes
        self.vector_bytes += self.vector_bytes_per_spmv
        cache = self.session.engine.cache
        hit_rate = cache.stats.hit_rate if cache is not None else 0.0
        self._iterations.inc()
        self._traffic.inc(stats.dram_bytes)
        self._vector.inc(self.vector_bytes_per_spmv)
        self._residual.set(residual)
        self._hit_rate.set(hit_rate)
        self._seconds.observe(seconds)
        self.history.append(
            IterationRecord(
                iteration=iteration,
                residual=residual,
                dram_bytes=self.dram_bytes,
                vector_bytes=self.vector_bytes,
                cache_hit_rate=hit_rate,
                seconds=seconds,
            )
        )

    def result(self, x, converged, iterations, residual, **info) -> SolverResult:
        reg = obs.registry()
        reg.counter("solver.runs", solver=self.alg).inc()
        if converged:
            reg.counter("solver.converged", solver=self.alg).inc()
        return SolverResult(
            x=x,
            converged=converged,
            iterations=iterations,
            residual=residual,
            history=tuple(self.history),
            info=dict(info),
        )


def cg(
    a: "ExecutionSession | object",
    b: np.ndarray,
    *,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> SolverResult:
    """Conjugate gradient for SPD ``A x = b`` over session SpMV.

    Textbook CG, float-for-float the sequence of the original
    ``examples/pde_heat_solver.py`` hand-rolled loop (``alpha = rs /
    (p @ Ap)``; ``x += alpha p``; ``r -= alpha Ap``; Fletcher–Reeves
    ``beta = rs_new / rs``), so results are bit-identical to it.
    Converges when ``||r||_2 < tol``; for SPD A with condition number
    κ the iteration count is bounded by ~``sqrt(κ)/2 * ln(2/eps)``.

    ``a`` is an :class:`ExecutionSession` or anything one accepts (plan,
    reader, ``.dsh`` path).
    """
    b = np.ascontiguousarray(b, dtype=VALUE_DTYPE)
    with _session_for(a) as sess:
        tele = _Telemetry("cg", sess)
        x = np.zeros_like(b)
        y, stats = sess.spmv(x)
        tele.dram_bytes += stats.dram_bytes  # setup SpMV: traffic, no iter
        r = b - y
        p = r.copy()
        rs = float(r @ r)
        residual = math.sqrt(rs)
        if residual < tol:
            return tele.result(x, True, 0, residual)
        for iteration in range(1, max_iter + 1):
            start = time.perf_counter()
            ap, stats = sess.spmv(p)
            alpha = rs / float(p @ ap)
            x += alpha * p
            r -= alpha * ap
            rs_new = float(r @ r)
            residual = math.sqrt(rs_new)
            tele.record(iteration, residual, stats, time.perf_counter() - start)
            if residual < tol:
                return tele.result(x, True, iteration, residual)
            p = r + (rs_new / rs) * p
            rs = rs_new
        return tele.result(x, False, max_iter, residual)


def pagerank(
    a: "ExecutionSession | object",
    *,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> SolverResult:
    """PageRank by power iteration over a column-stochastic ``P^T``.

    ``a`` holds :math:`P^T` (see
    :func:`examples.graph_pagerank.row_normalize`); each iteration is
    ``y = d P^T x + (1-d)/n`` with residual leak redistributed
    uniformly, converging on L1 change — float-for-float the original
    ``examples/graph_pagerank.py`` loop, so ranks are bit-identical.
    """
    with _session_for(a) as sess:
        nrows, ncols = sess.plan.blocked.shape
        if nrows != ncols:
            raise ValueError(f"pagerank needs a square operator, got {nrows}x{ncols}")
        n = ncols
        tele = _Telemetry("pagerank", sess)
        x = np.full(n, 1.0 / n)
        y = x
        delta = float("inf")
        for iteration in range(1, max_iter + 1):
            start = time.perf_counter()
            y, stats = sess.spmv(x)
            y = damping * y + (1 - damping) / n
            y += (1.0 - y.sum()) / n  # redistribute dangling/leaked mass
            delta = float(np.abs(y - x).sum())
            tele.record(iteration, delta, stats, time.perf_counter() - start)
            if delta < tol:
                return tele.result(y, True, iteration, delta)
            x = y
        return tele.result(y, False, max_iter, delta)


def power_iteration(
    a: "ExecutionSession | object",
    *,
    tol: float = 1e-10,
    max_iter: int = 200,
    x0: np.ndarray | None = None,
) -> SolverResult:
    """Dominant eigenpair by normalized power iteration over session SpMV.

    Returns the unit eigenvector as ``x`` and the Rayleigh-quotient
    eigenvalue estimate in ``info["eigenvalue"]``; converges on the
    max-norm change of the iterate.
    """
    with _session_for(a) as sess:
        nrows, ncols = sess.plan.blocked.shape
        if nrows != ncols:
            raise ValueError(
                f"power iteration needs a square operator, got {nrows}x{ncols}"
            )
        tele = _Telemetry("power", sess)
        if x0 is None:
            x = np.full(ncols, 1.0 / math.sqrt(ncols))
        else:
            x = np.ascontiguousarray(x0, dtype=VALUE_DTYPE)
            norm = float(np.linalg.norm(x))
            if norm == 0.0:
                raise ValueError("x0 must be nonzero")
            x = x / norm
        eigenvalue = 0.0
        delta = float("inf")
        for iteration in range(1, max_iter + 1):
            start = time.perf_counter()
            y, stats = sess.spmv(x)
            eigenvalue = float(x @ y)
            norm = float(np.linalg.norm(y))
            if norm == 0.0:
                tele.record(iteration, 0.0, stats, time.perf_counter() - start)
                return tele.result(x, True, iteration, 0.0, eigenvalue=0.0)
            y = y / norm
            delta = float(np.abs(y - x).max())
            tele.record(iteration, delta, stats, time.perf_counter() - start)
            if delta < tol:
                return tele.result(y, True, iteration, delta, eigenvalue=eigenvalue)
            x = y.copy()
        return tele.result(y, False, max_iter, delta, eigenvalue=eigenvalue)
