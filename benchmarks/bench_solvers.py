"""Bench: steady-state solver sessions — warm reuse, decode-once traffic.

Gates (ISSUE acceptance; mirrored in docs/SOLVERS.md):

* a warm per-iteration session SpMV must cost <= 1.5x a plain CSR SpMV
  (:func:`repro.sparse.spmv.spmv`) of the same matrix (geomean over the
  suite) — the steady state has to cost a CSR SpMV, not a block walk. It
  measures ~1.0-1.2; a warm session forced through the per-block hooked
  loop reads ~2.3, and fails. (The gate used to divide by a cold
  single-shot recoded SpMV, which decode speedups kept moving.)
* CG end-to-end matrix traffic must stay within one decode plus the
  modeled per-iteration vector traffic — steady state decodes the
  matrix exactly once;
* CG and PageRank results must be sha256-identical across
  serial/pipelined executors x session reuse on/off.

Writes a ``BENCH_solvers.json`` artifact (per-matrix warm/CSR split,
solver traffic accounting, parity hashes) for CI to upload; set
``BENCH_SOLVERS_OUT`` to redirect.
"""

import hashlib
import json
import math
import os
import time

import numpy as np

from benchmarks.conftest import run_once
from repro.codecs.pipeline import compress_matrix
from repro.collection import generators
from repro.core import ExecutionSession, recoded_spmv
from repro.solvers import cg, pagerank
from repro.sparse.coo import COOMatrix
from repro.sparse.spmv import spmv
from repro.util import BENCH_SCHEMAS, check_schema

#: Matrix / vector seed.
SEED = 7
#: Container block size for every plan in the suite.
BLOCK_BYTES = 8192
#: Best-of repeats for the warm-phase timing.
WARM_REPEATS = 5
#: Gate on the warm-session / plain-CSR per-SpMV geomean ratio.
WARM_OVER_CSR_MAX = 1.5
#: The cross-config identity grid: executor mode x session reuse.
PARITY_CONFIGS = tuple(
    (mode, reuse) for mode in ("serial", "pipelined") for reuse in (True, False)
)


def _suite():
    return (
        ("banded-3000", generators.banded(3000, bandwidth=5, seed=SEED)),
        ("unstructured-1500", generators.unstructured(1500, density=0.01, seed=SEED)),
        ("mesh2d-24", generators.mesh2d(24, value_style="exact")),
    )


def _stochastic(adj):
    """Column-stochastic P^T, same construction as examples/graph_pagerank."""
    out_degree = np.maximum(adj.row_nnz(), 1)
    rows = np.repeat(np.arange(adj.nrows), adj.row_nnz())
    vals = adj.val / out_degree[rows]
    return COOMatrix(
        (adj.ncols, adj.nrows), adj.col_idx.astype(np.int64), rows, vals
    ).to_csr()


def _best_of(n, fn):
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _sha(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def _warm_vs_csr():
    """Per-matrix warm session SpMV vs plain CSR SpMV, plus geomean."""
    rows = []
    for name, m in _suite():
        plan = compress_matrix(m, block_bytes=BLOCK_BYTES)
        x = np.random.default_rng(SEED).standard_normal(plan.blocked.shape[1])
        with ExecutionSession(plan, matrix_id=name) as sess:
            sess.spmv(x)  # decode once; the session goes warm
            assert sess.warm, f"{name}: session failed to warm"
            t_warm = _best_of(WARM_REPEATS, lambda: sess.spmv(x))
        # The same product on the uncompressed matrix: what no decode
        # work can move.
        t_csr = _best_of(WARM_REPEATS, lambda: spmv(m, x))
        rows.append(
            {
                "name": name,
                "nblocks": plan.nblocks,
                "nnz": plan.nnz,
                "csr_seconds": t_csr,
                "warm_seconds": t_warm,
                "warm_over_csr_ratio": t_warm / t_csr,
            }
        )
    geomean = math.exp(
        sum(math.log(r["warm_over_csr_ratio"]) for r in rows) / len(rows)
    )
    return rows, geomean


def _cg_traffic():
    """End-to-end CG over one session: matrix traffic vs decode-once."""
    m = generators.mesh2d(20, value_style="exact")
    plan = compress_matrix(m, block_bytes=4096)
    b = np.random.default_rng(SEED).normal(size=m.nrows)
    # What one full decode of this matrix costs in logged DRAM traffic.
    decode_once = recoded_spmv(plan, b, mode="serial")[1].dram_bytes
    with ExecutionSession(plan, matrix_id="cg-spd") as sess:
        res = cg(sess, b, tol=1e-8, max_iter=500)
    return {
        "iterations": res.iterations,
        "converged": res.converged,
        "residual": res.residual,
        "dram_bytes": res.dram_bytes,
        "decode_once_bytes": decode_once,
        "vector_bytes": res.vector_bytes,
        "traffic_budget_bytes": decode_once + res.vector_bytes,
        "sha256": _sha(res.x),
    }


def _parity():
    """CG + PageRank over serial/pipelined x session on/off; all hashes
    must collapse to one per solver."""
    spd = generators.mesh2d(16, value_style="exact")
    plan_spd = compress_matrix(spd, block_bytes=4096)
    b = np.random.default_rng(SEED + 1).normal(size=spd.nrows)
    pt = _stochastic(generators.powerlaw_graph(400, attach=3, seed=SEED))
    plan_pr = compress_matrix(pt, block_bytes=4096)

    cg_hashes, pr_hashes = {}, {}
    pr_canonical = None
    for mode, reuse in PARITY_CONFIGS:
        label = f"{mode}/{'session' if reuse else 'no-session'}"
        with ExecutionSession(plan_spd, mode=mode, reuse=reuse) as sess:
            cg_hashes[label] = _sha(cg(sess, b, tol=1e-8, max_iter=400).x)
        with ExecutionSession(plan_pr, mode=mode, reuse=reuse) as sess:
            res = pagerank(sess)
            pr_hashes[label] = _sha(res.x)
            if pr_canonical is None:
                pr_canonical = res
    mismatches = []
    for algo, hashes in (("cg", cg_hashes), ("pagerank", pr_hashes)):
        if len(set(hashes.values())) != 1:
            mismatches.extend(f"{algo}:{k}={v}" for k, v in sorted(hashes.items()))
    parity = {
        "configs_checked": len(PARITY_CONFIGS),
        "bit_identical": not mismatches,
        "mismatches": mismatches,
    }
    pagerank_block = {
        "iterations": pr_canonical.iterations,
        "converged": pr_canonical.converged,
        "residual": pr_canonical.residual,
        "sha256": next(iter(pr_hashes.values())),
    }
    return parity, pagerank_block


def _measure() -> dict:
    matrices, geomean = _warm_vs_csr()
    cg_block = _cg_traffic()
    parity, pagerank_block = _parity()
    traffic_ok = cg_block["dram_bytes"] <= cg_block["decode_once_bytes"]
    gates = {
        "warm_over_csr_max": WARM_OVER_CSR_MAX,
        "traffic_within_budget": traffic_ok,
        "bit_identical": parity["bit_identical"],
        "passed": (
            geomean <= WARM_OVER_CSR_MAX and traffic_ok and parity["bit_identical"]
        ),
    }
    return {
        "exp_id": "solvers",
        "context": {
            "seed": SEED,
            "block_bytes": BLOCK_BYTES,
            "warm_repeats": WARM_REPEATS,
        },
        "matrices": matrices,
        "warm_over_csr_geomean_ratio": geomean,
        "cg": cg_block,
        "pagerank": pagerank_block,
        "parity": parity,
        "gates": gates,
    }


def _write_artifact(res) -> str:
    check_schema(res, BENCH_SCHEMAS["solvers"], "BENCH_solvers.json")
    path = os.environ.get("BENCH_SOLVERS_OUT", "BENCH_solvers.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def test_solver_gates(benchmark):
    res = run_once(benchmark, _measure)
    path = _write_artifact(res)

    # Gate 1: the warm fast path costs a CSR SpMV — steady-state
    # iterations must not walk the blocks.
    assert res["warm_over_csr_geomean_ratio"] <= WARM_OVER_CSR_MAX, (
        f"warm/CSR geomean {res['warm_over_csr_geomean_ratio']:.3f} > "
        f"{WARM_OVER_CSR_MAX} gate: {[(r['name'], round(r['warm_over_csr_ratio'], 3)) for r in res['matrices']]}"
    )
    # Gate 2: decode-once traffic — a whole CG solve moves no more
    # matrix bytes than a single cold SpMV.
    assert res["cg"]["converged"], "CG failed to converge on the SPD stencil"
    assert res["gates"]["traffic_within_budget"], (
        f"CG matrix traffic {res['cg']['dram_bytes']} B exceeds one decode "
        f"({res['cg']['decode_once_bytes']} B) over "
        f"{res['cg']['iterations']} iterations"
    )
    # Gate 3: cross-config identity.
    assert res["parity"]["bit_identical"], res["parity"]["mismatches"]
    assert res["pagerank"]["converged"]
    assert res["gates"]["passed"]
    with open(path, "r", encoding="utf-8") as fh:
        artifact = json.load(fh)
    assert artifact["warm_over_csr_geomean_ratio"] == res["warm_over_csr_geomean_ratio"]
