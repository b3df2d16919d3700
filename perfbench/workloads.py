"""The benchmark's three workloads.

Each workload builds its inputs from the seed alone (``setup``), takes
its reference results outside the timed set-up (``prepare``), and then
runs its unit operations for a given number of seconds (``run``),
checking every output. README.md in this directory says why each one
exists and which layers it stresses.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import itertools
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.codecs import container, pipeline
from repro.codecs.engine import RecodeEngine
from repro.collection import generators, representative_suite
from repro.core import session as core_session
from repro.core import spmv_pipeline
from repro import solvers
from repro.serve import BlockingServeClient, ServeClient
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.spmv import spmv as csr_spmv


def nproc() -> int:
    return len(os.sched_getaffinity(0))


#: Fixed operands of the host-speed probe: a 700-entry gather and 100
#: row segments, the shape of one 8 KB block's multiply.
_PROBE_RNG = np.random.default_rng(0)
_PROBE_X = _PROBE_RNG.standard_normal(5000)
_PROBE_IDX = _PROBE_RNG.integers(0, 5000, 700)
_PROBE_SEG = np.arange(0, 700, 7)


def probe() -> float:
    """Seconds taken by a fixed mix of small numpy calls and interpreter
    work, like the benchmark's own operations (~1.4 ms)."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(300):
        acc += float(np.add.reduceat(_PROBE_X[_PROBE_IDX] * 1.5, _PROBE_SEG)[0])
    for i in range(5000):
        acc += i
    return time.perf_counter() - t0


#: Probes per host-speed reading; the reading is their median.
PROBES = 3


def host_probe() -> float:
    """One host-speed reading on the CPU the caller runs on.

    The reference host's two vCPUs each switch between a fast and a ~1.8x
    slower state every few seconds, each on its own (neighbours on the
    physical machine). Each timed operation is therefore followed by a
    reading, and reported scaled by it (see ``run.py``). The reading is
    taken when the operation has returned, so the program has no work
    left running, after an untimed collection of the young generations,
    so no garbage the program left behind is collected inside it (the
    probe allocates too little to start a collection itself; a full
    collection would take ~20 ms a reading); it is the median of
    ``PROBES`` probes, so a context switch in one does not count. The
    probe is benchmark code: a change to the program does not move it.
    """
    gc.collect(1)
    return statistics.median(probe() for _ in range(PROBES))


class Readings:
    """Host-speed readings between operations (or rounds of them): each is
    scaled by the mean of the readings just before and just after it,
    which also follows a CPU that changed state while it ran."""

    def __init__(self, take=None) -> None:
        self.take = take or host_probe
        self.last = self.take()

    def around(self) -> float:
        """Take the reading after an operation; the mean for it."""
        now = self.take()
        mean, self.last = (self.last + now) / 2, now
        return mean


def pinned_probe(cpu: int) -> float:
    """A host-speed reading on ``cpu``, whatever CPU the caller runs on."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return host_probe()
    finally:
        os.sched_setaffinity(0, cpus)


def sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@dataclass
class Op:
    """One timed unit operation and its verdict."""

    kind: str
    latency_s: float
    #: Non-zeros multiplied, times right-hand sides (0 when it failed).
    work: int
    ok: bool
    reason: str = ""
    dram_bytes: int = 0
    dma_s: float = 0.0
    nnz: int = 0
    #: Host-speed reading the latency is scaled by.
    probe_s: float = 0.0


@dataclass
class Window:
    """A whole pass of operations: every matrix and executor, every
    right-hand side, or one round of requests."""

    ops: range
    #: Seconds the operations took: their sum when they run one after
    #: another, the round's wall time when they overlap.
    busy_s: float


@dataclass
class RunResult:
    ops: list[Op]
    wall_s: float
    #: Whole passes, covering every op; throughput is reported as the
    #: median over them.
    windows: list[Window]
    #: Exact per-unit-of-work counts, identical at one seed.
    counts: dict = field(default_factory=dict)
    #: Per-layer figures the workload measures itself (cache, serve, ...).
    layers: dict = field(default_factory=dict)


def sequential_window(ops: list[Op], first: int) -> Window:
    """The pass of sequential ops ``ops[first:]``."""
    return Window(range(first, len(ops)), sum(op.latency_s for op in ops[first:]))


def _span(ledger, name):
    return ledger.span(name) if ledger is not None else nullcontext()


def _save(plan, workdir: str, name: str) -> str:
    path = os.path.join(workdir, f"{name}.dsh")
    container.save_plan(plan, path)
    return path


def files_sha(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# cold-stream
# ---------------------------------------------------------------------------


class ColdStream:
    """One-shot recoded SpMV/SpMM on ``.dsh`` paths of the seven paper
    representatives: serial SpMV, pipelined SpMV and fused SpMM (k=8),
    every call cold (no decoded-block cache)."""

    name = "cold-stream"
    NNZ = 25_000
    K = 8
    #: ~190-360 calls in 20 s; p90 has ~20-35 beyond it, where p96 (~10
    #: beyond) follows single slow passes rather than the program.
    TAIL_PCT = 90

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.engine: RecodeEngine | None = None
        self.mats: list[dict] = []

    def setup(self) -> None:
        self.close()
        self.mats = []
        for entry in representative_suite(target_nnz=self.NNZ, seed=self.seed):
            m = entry.build()
            plan = pipeline.compress_matrix(m)
            self.mats.append(
                {"name": entry.name, "m": m, "path": _save(plan, self.workdir, entry.name),
                 "nnz": m.nnz}
            )
        self.engine = RecodeEngine(workers=nproc())
        # First calls pay pool spawn and first-use costs, as a user would
        # once per process.
        first = self.mats[0]
        x = np.ones(first["m"].ncols)
        spmv_pipeline.recoded_spmv(first["path"], x)
        spmv_pipeline.recoded_spmv(first["path"], x, engine=self.engine, mode="pipelined")

    def prepare(self) -> dict:
        rng = np.random.default_rng([self.seed, 1])
        for mat in self.mats:
            m = mat.pop("m")
            x = rng.standard_normal(m.ncols)
            X = rng.standard_normal((m.ncols, self.K))
            y, _ = spmv_pipeline.recoded_spmv(mat["path"], x)
            Y, _ = spmv_pipeline.recoded_spmm(mat["path"], X)
            if not np.allclose(y, csr_spmv(m, x), rtol=1e-9, atol=1e-9):
                raise AssertionError(f"{mat['name']}: serial SpMV disagrees with CSR spmv")
            for j in range(self.K):
                if not np.allclose(Y[:, j], csr_spmv(m, X[:, j]), rtol=1e-9, atol=1e-9):
                    raise AssertionError(f"{mat['name']}: SpMM column {j} disagrees with CSR")
            mat.update(x=x, X=X, y_sha=sha(y), Y_sha=sha(Y))
        return {"inputs_sha256": files_sha(m["path"] for m in self.mats)}

    def run(self, seconds: float, ledger=None) -> RunResult:
        ops: list[Op] = []
        windows: list[Window] = []
        readings = Readings()
        start = time.perf_counter()
        n = 0
        # Whole passes only, so every (matrix, executor) pair is sampled
        # equally often and the percentiles come from a fixed mix.
        while time.perf_counter() - start < seconds:
            first = len(ops)
            for mat in self.mats:
                for kind in ("spmv_serial", "spmv_pipelined", "spmm8"):
                    n += 1
                    if ledger is not None:
                        ledger.request = f"op{n}"
                    t0 = time.perf_counter()
                    with _span(ledger, f"op.{kind}"):
                        if kind == "spmv_serial":
                            y, st = spmv_pipeline.recoded_spmv(mat["path"], mat["x"])
                        elif kind == "spmv_pipelined":
                            y, st = spmv_pipeline.recoded_spmv(
                                mat["path"], mat["x"], engine=self.engine, mode="pipelined"
                            )
                        else:
                            y, st = spmv_pipeline.recoded_spmm(mat["path"], mat["X"])
                    dt = time.perf_counter() - t0
                    ok = sha(y) == (mat["Y_sha"] if kind == "spmm8" else mat["y_sha"])
                    k = self.K if kind == "spmm8" else 1
                    ops.append(Op(kind, dt, mat["nnz"] * k if ok else 0, ok,
                                  "" if ok else "wrong_output", st.dram_bytes,
                                  st.dma_seconds, mat["nnz"], readings.around()))
            windows.append(sequential_window(ops, first))
        wall = time.perf_counter() - start
        # A's DRAM bytes per non-zero, computed from the executors' traffic
        # logs: each call streams A once, whatever its right-hand sides.
        a_bytes = sum(op.dram_bytes for op in ops) / sum(op.nnz for op in ops)
        return RunResult(ops, wall, windows, counts={"a_bytes_per_nnz": a_bytes})

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None


# ---------------------------------------------------------------------------
# solve-warm
# ---------------------------------------------------------------------------


def heat_operator(nx: int, dt: float) -> CSRMatrix:
    """Implicit heat step ``I + dt * L`` on an ``nx`` x ``nx`` grid: SPD."""
    lap = generators.mesh2d(nx, value_style="exact")
    rows = np.repeat(np.arange(lap.nrows), lap.row_nnz())
    val = lap.val * dt + (rows == lap.col_idx)
    return CSRMatrix(lap.shape, lap.row_ptr, lap.col_idx, val)


def transition_operator(adj: CSRMatrix) -> CSRMatrix:
    """Column-stochastic ``P^T`` of an adjacency matrix, stored transposed
    so PageRank iterates ``x <- P^T x``."""
    out_degree = np.maximum(adj.row_nnz(), 1)
    rows = np.repeat(np.arange(adj.nrows), adj.row_nnz())
    return COOMatrix(
        (adj.ncols, adj.nrows), adj.col_idx.astype(np.int64), rows,
        adj.val / out_degree[rows],
    ).to_csr()


class SolveWarm:
    """CG heat steps and PageRank over warm ``ExecutionSession`` s. The
    timed region decodes nothing: session fast path, blocked multiply and
    solver vector operations are all of it."""

    name = "solve-warm"
    HEAT_NX = 70
    HEAT_DT = 4.0
    GRAPH_N = 2500
    GRAPH_ATTACH = 5
    RHS = 4
    #: Direct warm SpMVs per step on the heat operator.
    WARM_SPMVS = 8
    CG_TOL = 1e-8
    PR_TOL = 1e-10
    #: ~170-380 steps in 20 s; p90 has ~20-40 beyond it, p96 only ~10 and
    #: follows the host's hiccups rather than the program.
    TAIL_PCT = 90

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.heat = self.graph = None

    def setup(self) -> None:
        self.close()
        rng = np.random.default_rng([self.seed, 2])
        heat = heat_operator(self.HEAT_NX, self.HEAT_DT)
        graph = transition_operator(
            generators.powerlaw_graph(self.GRAPH_N, attach=self.GRAPH_ATTACH,
                                      seed=int(rng.integers(2**31)))
        )
        plans = [pipeline.compress_matrix(heat), pipeline.compress_matrix(graph)]
        self.paths = [_save(plans[0], self.workdir, "heat"),
                      _save(plans[1], self.workdir, "graph")]
        self.a_bytes_per_nnz = sum(p.compressed_bytes for p in plans) / (heat.nnz + graph.nnz)
        self.heat_m, self.graph_m = heat, graph
        self.heat = core_session.ExecutionSession(self.paths[0], matrix_id="heat")
        self.graph = core_session.ExecutionSession(self.paths[1], matrix_id="graph")
        # Warm-up: one SpMV decodes every block into each session cache.
        self.heat.spmv(np.ones(heat.ncols))
        self.graph.spmv(np.ones(graph.ncols))

    def prepare(self) -> dict:
        rng = np.random.default_rng([self.seed, 3])
        n = self.heat_m.ncols
        self.bs = [rng.standard_normal(n) for _ in range(self.RHS)]
        self.x_warm = rng.standard_normal(n)
        self.cg_ref = []
        for b in self.bs:
            res = solvers.cg(self.heat, b, tol=self.CG_TOL)
            if not res.converged:
                raise AssertionError("reference CG solve did not converge")
            resid = np.linalg.norm(csr_spmv(self.heat_m, res.x) - b)
            if resid > 1e3 * self.CG_TOL * max(1.0, np.linalg.norm(b)):
                raise AssertionError(f"reference CG true residual {resid:.3e} too large")
            self.cg_ref.append((res.iterations, sha(res.x)))
        pr = solvers.pagerank(self.graph, tol=self.PR_TOL)
        if not pr.converged or abs(pr.x.sum() - 1.0) > 1e-9:
            raise AssertionError("reference PageRank did not converge to a distribution")
        self.pr_ref = (pr.iterations, sha(pr.x))
        y, _ = self.heat.spmv(self.x_warm)
        if not np.allclose(y, csr_spmv(self.heat_m, self.x_warm), rtol=1e-9, atol=1e-9):
            raise AssertionError("warm session SpMV disagrees with CSR spmv")
        self.warm_sha = sha(y)
        return {"inputs_sha256": files_sha(self.paths)}

    def _stats(self) -> dict:
        out = {"calls": 0, "warm_calls": 0, "hits": 0, "misses": 0, "evictions": 0}
        for sess in (self.heat, self.graph):
            st = sess.stats()
            out["calls"] += st["calls"]
            out["warm_calls"] += st["warm_calls"]
            out["hits"] += st["cache_hits"]
            out["misses"] += st["cache_misses"]
            out["evictions"] += sess.engine.cache.stats.evictions
        return out

    def run(self, seconds: float, ledger=None) -> RunResult:
        ops: list[Op] = []
        windows: list[Window] = []
        before = self._stats()
        heat_nnz, graph_nnz = self.heat_m.nnz, self.graph_m.nnz
        warm_s = 0.0
        readings = Readings()
        start = time.perf_counter()
        step = 0
        # Whole cycles over the right-hand sides only, so every run solves
        # the same mix of systems.
        while step % self.RHS or time.perf_counter() - start < seconds:
            i = step % self.RHS
            step += 1
            if ledger is not None:
                ledger.request = f"step{step}"
            ok = True
            t0 = time.perf_counter()
            with _span(ledger, "op.step"):
                with _span(ledger, "solvers.cg"):
                    cg = solvers.cg(self.heat, self.bs[i], tol=self.CG_TOL)
                with _span(ledger, "solvers.pagerank"):
                    pr = solvers.pagerank(self.graph, tol=self.PR_TOL)
                ok &= cg.converged and (cg.iterations, sha(cg.x)) == self.cg_ref[i]
                ok &= pr.converged and (pr.iterations, sha(pr.x)) == self.pr_ref
                tw = time.perf_counter()
                for _ in range(self.WARM_SPMVS):
                    y, _ = self.heat.spmv(self.x_warm)
                    ok &= sha(y) == self.warm_sha
                warm_s += time.perf_counter() - tw
            dt = time.perf_counter() - t0
            spmvs_heat = cg.iterations + 1 + self.WARM_SPMVS
            work = spmvs_heat * heat_nnz + pr.iterations * graph_nnz
            ops.append(Op("step", dt, work if ok else 0, bool(ok),
                          "" if ok else "wrong_output", nnz=heat_nnz + graph_nnz,
                          probe_s=readings.around()))
            if step % self.RHS == 0:
                windows.append(sequential_window(ops, len(ops) - self.RHS))
        wall = time.perf_counter() - start
        after = self._stats()
        d = {k: after[k] - before[k] for k in before}
        lookups = d["hits"] + d["misses"]
        nsteps = len(ops)
        return RunResult(
            ops,
            wall,
            windows,
            counts={
                "a_bytes_per_nnz": self.a_bytes_per_nnz,
                "cg.iterations": sum(it for it, _ in self.cg_ref),
                "pagerank.iterations": self.pr_ref[0],
            },
            layers={
                "session.warm_ratio": d["warm_calls"] / d["calls"] if d["calls"] else 0.0,
                "engine.cache_hit_ratio": d["hits"] / lookups if lookups else 0.0,
                "engine.cache_evictions": d["evictions"],
                "warm_spmv_mnnz_s": (nsteps * self.WARM_SPMVS * heat_nnz / warm_s / 1e6
                                     if warm_s else 0.0),
            },
        )

    def close(self) -> None:
        for sess in (self.heat, self.graph):
            if sess is not None:
                sess.close()
        self.heat = self.graph = None


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------


class ServeMixed:
    """Closed loop of ``nproc`` clients on a ``repro serve`` subprocess over
    the seven representatives: Zipf-skewed matrix choice, SpMV:SpMM(k=4) =
    3:1, a fixed deadline, and a decoded-block cache of half the working
    set, so requests hit, miss and evict."""

    name = "serve-mixed"
    NNZ = 24_000
    K = 4
    DEADLINE_MS = 3000.0
    ZIPF_S = 1.5
    #: Requests per round: 15/5/3/2/1/1/1 per matrix at ZIPF_S=1.5, a
    #: quarter of them SpMMs, in a seeded order.
    ROUND = 28
    SPMV_SHARE = 0.75
    XS_PER_MATRIX = 3
    #: ~400-980 requests in 20 s, ~70% of them served from the cache in
    #: under 30 ms: the median is a hit, p90 a miss.
    TAIL_PCT = 90

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def setup(self) -> None:
        self.close()
        self.mats = []
        total_nnz = a_bytes = 0
        for entry in representative_suite(target_nnz=self.NNZ, seed=self.seed):
            m = entry.build()
            plan = pipeline.compress_matrix(m)
            path = _save(plan, self.workdir, entry.name)
            self.mats.append({"name": entry.name, "m": m, "path": path, "nnz": m.nnz})
            total_nnz += m.nnz
            a_bytes += plan.compressed_bytes
        self.a_bytes_per_nnz = a_bytes / total_nnz
        # Half the decoded working set (12 B/nnz), whole MiB as the CLI takes.
        self.cache_mb = max(1, round(12 * total_nnz / 2 / 2**20))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        # The server runs on a CPU of its own, so that the reading taken on
        # that CPU is its speed; the client runs on the others. Decode is
        # serial, on the request's compute thread.
        cpus = sorted(os.sched_getaffinity(0))
        self.server_cpu = cpus[-1]
        self.client_cpus = set(cpus[:-1] or cpus)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", self.workdir,
             "--port", "0", "--cache-mb", str(self.cache_mb),
             "--compute-threads", str(nproc())],
            stdout=subprocess.PIPE, env=env, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {self.server_cpu}),
        )
        line = self.proc.stdout.readline()
        match = re.search(r":(\d+) \[", line)
        if match is None:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))
        # First calls, one at a time: the server's kernel registry is not
        # safe to fill from two compute threads at once (a concurrent first
        # call can find no implementation).
        first = self.mats[0]
        with BlockingServeClient("127.0.0.1", self.port, tenant="setup") as client:
            client.spmv(first["name"], np.ones(first["m"].ncols))
            client.spmm(first["name"], np.ones((first["m"].ncols, self.K)))

    def prepare(self) -> dict:
        rng = np.random.default_rng([self.seed, 4])
        for mat in self.mats:
            m = mat.pop("m")
            xs = [rng.standard_normal(m.ncols) for _ in range(self.XS_PER_MATRIX)]
            X = rng.standard_normal((m.ncols, self.K))
            # Served results must be bit-equal to a direct run.
            with core_session.ExecutionSession(mat["path"], matrix_id=mat["name"]) as sess:
                shas = []
                for x in xs:
                    y, _ = sess.spmv(x)
                    if not np.allclose(y, csr_spmv(m, x), rtol=1e-9, atol=1e-9):
                        raise AssertionError(f"{mat['name']}: direct SpMV disagrees with CSR")
                    shas.append(sha(y))
                Y, _ = sess.spmm(X)
                mat.update(xs=xs, X=X, y_shas=shas, Y_sha=sha(Y))
        # One untimed round fills the cache, as a long-running server's is.
        # A missed deadline there is the program's to report, in the run.
        warm = asyncio.run(self._drive(0.0, None, max_rounds=1))
        if any(op.reason in ("wrong_output", "error") for op in warm.ops):
            raise AssertionError("warm-up round through the server failed")
        first = list(itertools.islice(self.rounds(), 10))
        return {"inputs_sha256": files_sha(m["path"] for m in self.mats),
                "rounds_sha256": hashlib.sha256(repr(first).encode()).hexdigest()}

    def rounds(self):
        """Rounds of requests ``(matrix, op, x)``, from the seed alone.

        Every round holds the Zipf share of every matrix and a quarter
        SpMMs, so neither the work per round nor its hit/miss mix varies
        from seed to seed; the order within a round does.
        """
        rng = np.random.default_rng([self.seed, 5])
        p = np.arange(1, len(self.mats) + 1, dtype=float) ** -self.ZIPF_S
        share = p / p.sum() * self.ROUND
        counts = np.floor(share).astype(int)
        # Largest remainders fill the round; every matrix is asked for.
        counts = np.maximum(counts, 1)
        for i in np.argsort(counts - share)[: self.ROUND - counts.sum()]:
            counts[i] += 1
        round_mats = np.repeat(np.arange(len(self.mats)), counts)
        nspmm = round(self.ROUND * (1 - self.SPMV_SHARE))
        round_ops = np.array(["spmm"] * nspmm + ["spmv"] * (self.ROUND - nspmm))
        while True:
            mats = rng.permutation(round_mats)
            ops = rng.permutation(round_ops)
            xs = rng.integers(self.XS_PER_MATRIX, size=self.ROUND)
            yield [(int(m), str(o), int(x)) for m, o, x in zip(mats, ops, xs)]

    def run(self, seconds: float, ledger=None) -> RunResult:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self.client_cpus)
        try:
            return asyncio.run(self._drive(seconds, ledger))
        finally:
            os.sched_setaffinity(0, cpus)

    async def _request(self, client, mi: int, op: str, xi: int) -> tuple[Op, int]:
        mat = self.mats[mi]
        t0 = time.perf_counter()
        if op == "spmv":
            resp = await client.spmv(mat["name"], mat["xs"][xi],
                                     deadline_ms=self.DEADLINE_MS, raise_on_error=False)
            ref, k = mat["y_shas"][xi], 1
        else:
            resp = await client.spmm(mat["name"], mat["X"],
                                     deadline_ms=self.DEADLINE_MS, raise_on_error=False)
            ref, k = mat["Y_sha"], self.K
        lat = time.perf_counter() - t0
        # A request that fails counts as missing the deadline.
        missed = max(lat, self.DEADLINE_MS / 1e3)
        if resp.get("ok"):
            if sha(resp["y"]) != ref:
                return Op(op, missed, 0, False, "wrong_output"), 0
            if lat * 1e3 > self.DEADLINE_MS:
                return Op(op, lat, 0, False, "deadline"), 0
            return Op(op, lat, mat["nnz"] * k, True, nnz=mat["nnz"]), resp.get("fused", 1)
        status = resp.get("status")
        if status in (429, 503):
            reason = f"shed.{resp.get('shed') or 'unknown'}"
        elif status == 408:
            reason = "deadline"
        else:
            reason = "error"
        return Op(op, missed, 0, False, reason), 0

    async def _drive(self, seconds: float, ledger, max_rounds: int | None = None) -> RunResult:
        nconn = nproc()
        clients = [
            await ServeClient("127.0.0.1", self.port, tenant=f"tenant-{i}").connect()
            for i in range(nconn)
        ]
        before = (await clients[0].stats())["cache"]
        depths: list[int] = []
        stop = asyncio.Event()

        async def watch_queue():
            while not stop.is_set():
                depths.append((await clients[0].stats())["queue_depth"])
                await asyncio.sleep(0.05)

        async def client_loop(i, requests, round_no):
            # Each client sends its next request when the last one is done.
            out = []
            for j, (mi, op, xi) in enumerate(requests):
                if ledger is not None:
                    ledger.request = f"r{round_no}c{i}q{j}"
                out.append(await self._request(clients[i], mi, op, xi))
            return out

        # Queue depth is sampled only when traced: stats requests are load.
        watch_task = asyncio.ensure_future(watch_queue()) if ledger is not None else None
        ops: list[Op] = []
        windows: list[Window] = []
        widths: list[int] = []
        readings = Readings(lambda: pinned_probe(self.server_cpu))
        start = time.perf_counter()
        for rnd in self.rounds():
            if (len(windows) >= max_rounds if max_rounds is not None
                    else time.perf_counter() - start >= seconds):
                break
            t0 = time.perf_counter()
            per_client = await asyncio.gather(
                *(client_loop(i, rnd[i::nconn], len(windows)) for i in range(nconn)))
            busy = time.perf_counter() - t0
            first = len(ops)
            for results in per_client:
                for op, width in results:
                    ops.append(op)
                    if width:
                        widths.append(width)
            windows.append(Window(range(first, len(ops)), busy))
            # Every request is answered, so the server is idle here. The
            # requests overlap, so the whole round is scaled by the
            # readings on the server's CPU around it.
            reading = readings.around()
            for op in ops[first:]:
                op.probe_s = reading
        wall = time.perf_counter() - start
        stop.set()
        if watch_task is not None:
            await watch_task
        after = (await clients[0].stats())["cache"]
        for c in clients:
            await c.close()
        hits = after["hits"] - before["hits"]
        lookups = hits + after["misses"] - before["misses"]
        layers = {
            "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "serve.cache_evictions": after["evictions"] - before["evictions"],
            "serve.fused_width_mean": float(np.mean(widths)) if widths else 0.0,
            "serve.queue_depth_max": max(depths, default=0),
        }
        return RunResult(ops, wall, windows, layers=layers,
                         counts={"a_bytes_per_nnz": self.a_bytes_per_nnz})

    def kernel_fallbacks(self) -> float:
        """``kernels.fallback`` total from the server's ``/metrics``."""
        import urllib.request

        url = f"http://127.0.0.1:{self.port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as resp:
            text = resp.read().decode()
        return sum(
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if re.match(r"repro_kernels_fallback[{ ]", line)
        )

    def close(self) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
        proc.stdout.close()


WORKLOADS = {w.name: w for w in (ColdStream, SolveWarm, ServeMixed)}
