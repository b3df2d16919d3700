"""Bench: the engine-backed executor vs the engine-less path, and fused
SpMM vs k SpMVs.

Gates:

* engine-backed SpMV (cold engine, no cache, default ``mode``: the path
  the server and sessions run) must cost at most 1.5x of an engine-less
  ``recoded_spmv(plan, x)`` on the same plan, best of 5 each — the
  engine's one decode handle per run must add no more than bookkeeping
  on top of the plain decode. On a 2-vCPU host the 2-process decode
  pool this replaced measured 1.6-1.75x and 3.9-4.8x with one pool
  round-trip per block, and the per-block engine calls that default-mode
  runs made before every engine-backed run read one handle measured
  1.67-1.78x on this bench's plan, so the gate can fail;
* fused SpMM at k right-hand sides must cost <= 0.5x per RHS of k
  independent SpMVs — decoding each block once has to actually fuse.

Writes a ``BENCH_pipeline.json`` artifact (timings, the two ratios, the
pipeline idle split) for CI to upload; set ``BENCH_PIPELINE_OUT`` to
redirect.
"""

import json
import os
import time

import numpy as np

from benchmarks.conftest import run_once
from repro import obs
from repro.codecs.engine import RecodeEngine
from repro.codecs.pipeline import compress_matrix
from repro.collection import generators
from repro.core import recoded_spmm, recoded_spmv
from repro.util import BENCH_SCHEMAS, check_schema

#: Right-hand sides for the fusion gate.
NRHS = 8
#: Matrix / vector seed.
SEED = 17
#: Runs per side of the engine gate; each side keeps its best.
REPEATS = 5
#: Most the engine-backed run may cost over the engine-less one.
MAX_ENGINE_RATIO = 1.5


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _best_of(n, fn):
    return min(_seconds(fn) for _ in range(n))


def _measure() -> dict:
    m = generators.unstructured(2000, density=0.01, seed=SEED)
    plan = compress_matrix(m, block_bytes=8192)
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal(plan.blocked.shape[1])
    X = rng.standard_normal((plan.blocked.shape[1], NRHS))

    # No cache: every engine-backed run decodes cold, as the engine-less
    # one does. The two sides alternate so a load trend hits both alike.
    engine = RecodeEngine(retry_base_s=0.0)
    recoded_spmv(plan, x)
    recoded_spmv(plan, x, engine=engine)
    t_plain = t_pipe = float("inf")
    with obs.scoped_registry() as reg:
        for _ in range(REPEATS):
            t_plain = min(t_plain, _seconds(lambda: recoded_spmv(plan, x)))
            t_pipe = min(t_pipe, _seconds(lambda: recoded_spmv(plan, x, engine=engine)))
        agg = obs.aggregate_by_name(reg.snapshot())

    # Fusion gate: k RHS through the fused SpMM vs k independent SpMVs,
    # both decode-bound (no cache, in-process decode).
    t_spmv_k = _best_of(
        2, lambda: [recoded_spmv(plan, X[:, j]) for j in range(NRHS)]
    )
    t_spmm = _best_of(2, lambda: recoded_spmm(plan, X))
    per_rhs_ratio = (t_spmm / NRHS) / (t_spmv_k / NRHS)

    def _val(name):
        entry = agg.get(name)
        return entry["value"] if entry else 0.0

    return {
        "exp_id": "bench_pipeline",
        "context": {
            "seed": SEED,
            "nrhs": NRHS,
        },
        "nblocks": plan.nblocks,
        "nnz": plan.nnz,
        "engineless_seconds": t_plain,
        "pipelined_seconds": t_pipe,
        "pipelined_over_engineless_ratio": t_pipe / t_plain,
        "spmm_seconds": t_spmm,
        "k_spmv_seconds": t_spmv_k,
        "spmm_per_rhs_ratio": per_rhs_ratio,
        "multiply_idle_seconds": _val("spmv.pipeline.multiply_idle_seconds"),
        "decode_idle_seconds": _val("spmv.pipeline.decode_idle_seconds"),
    }


def _write_artifact(res) -> str:
    check_schema(res, BENCH_SCHEMAS["bench_pipeline"], "BENCH_pipeline.json")
    path = os.environ.get("BENCH_PIPELINE_OUT", "BENCH_pipeline.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def test_pipeline_gates(benchmark):
    res = run_once(benchmark, _measure)
    path = _write_artifact(res)

    # Gate 1: the engine's decode handle costs bookkeeping, not a pool.
    ratio = res["pipelined_over_engineless_ratio"]
    assert ratio <= MAX_ENGINE_RATIO, (
        f"engine-backed SpMV {ratio:.2f}x of engine-less > {MAX_ENGINE_RATIO}x gate "
        f"(engine-less {res['engineless_seconds']:.4f}s, "
        f"engine-backed {res['pipelined_seconds']:.4f}s)"
    )
    # Gate 2: fused SpMM decodes once for all RHS.
    assert res["spmm_per_rhs_ratio"] <= 0.5, (
        f"SpMM per-RHS cost {res['spmm_per_rhs_ratio']:.2f}x of an "
        f"independent SpMV > 0.5x gate"
    )
    with open(path, "r", encoding="utf-8") as fh:
        artifact = json.load(fh)
    assert artifact["pipelined_over_engineless_ratio"] == ratio
