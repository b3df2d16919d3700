"""Repository benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload cold-stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the package is imported from ``src/``).
``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures the first half of the run untraced and the second
half traced, reports the per-layer ledger of the traced half, and the
tracing overhead as the traced over the untraced median latency, minus 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the host, the workload's own named figures and, when traced, the
ledger. A result file and, when traced, the span list are written under
``.perfbench/`` in the checkout. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5

#: Median of ``workloads.host_probe`` on the reference host (2-core
#: x86-64 VM) in its fast state. Times are reported scaled by
#: PROBE_REF_S / the reading taken after the pass they belong to: the time
#: they would have taken on the reference host at that speed. The raw
#: figures and the scale are printed with each run.
PROBE_REF_S = 0.0014

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_mnnz_s", "Mnnz/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("a_bytes_per_nnz", "B"),
)

PER_LAYER = (
    ("container.open_s", "s"),
    ("container.record_s", "s"),
    ("huffman.decode_s", "s"),
    ("huffman.decode_mb_s", "MB/s"),
    ("snappy.decode_s", "s"),
    ("snappy.decode_mb_s", "MB/s"),
    ("delta.decode_s", "s"),
    ("decode_record.self_s", "s"),
    ("pipeline.assemble_s", "s"),
    ("decode.records", "count"),
    ("huffman.encode_s", "s"),
    ("snappy.encode_s", "s"),
    ("pipeline.encode_self_s", "s"),
    ("engine.decode_block_s", "s"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.cache_evictions", "count"),
    ("multiply.self_s", "s"),
    ("executor.self_s", "s"),
    ("pipeline.multiply_idle_s", "s"),
    ("pipeline.decode_idle_s", "s"),
    ("session.spmv_s", "s"),
    ("session.self_s", "s"),
    ("session.warm_ratio", "ratio"),
    ("cg.iterations", "count"),
    ("pagerank.iterations", "count"),
    ("solver.vector_s", "s"),
    ("serve.client_codec_s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.fused_width_mean", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.shed.queue", "count"),
    ("serve.shed.inflight_bytes", "count"),
    ("serve.shed.tenant_rate", "count"),
    ("serve.shed.draining", "count"),
    ("serve.error_rate", "ratio"),
    ("memsys.model_s", "s"),
    ("modeled.dram_bytes", "B"),
    ("modeled.dma_s", "s"),
    ("unattributed_s", "s"),
    ("ledger.closure_err_s", "s"),
    ("codec.share", "ratio"),
    ("multiply_solver.share", "ratio"),
    ("trace.overhead", "ratio"),
    ("host.probe_ms", "ms"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def host_block() -> dict:
    import numpy

    from repro import kernels

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.backend(),
        "git_sha": sha,
        "machine": platform.machine(),
    }


def counter(name: str) -> float:
    """Total of an existing ``obs`` counter over all its labels."""
    from repro import obs

    return sum(
        rec["value"] for rec in obs.registry().snapshot().values() if rec["name"] == name
    )


def percentile(values, pct: float) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[pct - 1]) \
        if len(values) > 1 else float(values[0])


def scaled(result, ref_s: float | None = PROBE_REF_S):
    """Per-op latencies (ms) and per-pass throughputs (M nnz/s), in
    reference-host time by each op's host-speed reading (as measured when
    ``ref_s`` is None)."""
    ops = result.ops
    lat_ms = [op.latency_s * (ref_s / op.probe_s if ref_s else 1.0) * 1e3 for op in ops]
    rates = []
    for w in result.windows:
        raw = sum(ops[i].latency_s for i in w.ops)
        busy_ms = w.busy_s * sum(lat_ms[i] for i in w.ops) / raw
        rates.append(sum(ops[i].work for i in w.ops) / busy_ms / 1e3)
    return lat_ms, rates


def end_to_end(setup_times, result, tail_pct, ref_s=PROBE_REF_S) -> dict:
    lat_ms, rates = scaled(result, ref_s)
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_mnnz_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": percentile(lat_ms, tail_pct),
        "a_bytes_per_nnz": result.counts["a_bytes_per_nnz"],
    }


def host_scale(result) -> float:
    return statistics.median(PROBE_REF_S / op.probe_s for op in result.ops)


def named_figures(workload: str, result) -> dict:
    """The workload's own figures, by the names its README uses (times in
    reference-host units, like the metrics)."""
    ops = result.ops
    lat_ms, _ = scaled(result)
    out: dict = {}
    if workload == "cold-stream":
        for kind, name in (("spmv_serial", "cold_spmv_mnnz_s"),
                           ("spmv_pipelined", "cold_pipelined_mnnz_s"),
                           ("spmm8", "cold_spmm8_mnnz_s")):
            rates = [op.work / ms / 1e3 for op, ms in zip(ops, lat_ms)
                     if op.kind == kind and op.ok]
            out[name] = statistics.median(rates) if rates else 0.0
    elif workload == "solve-warm":
        out["step_s"] = statistics.median(lat_ms) / 1e3
        out["warm_spmv_mnnz_s"] = result.layers["warm_spmv_mnnz_s"] / host_scale(result)
    else:
        good = sum(1 for op in ops if op.ok)
        out["serve_goodput_rps"] = good / result.wall_s
        out["serve_error_rate"] = 1 - good / len(ops)
        out["serve_p50_ms"] = statistics.median(lat_ms)
    out["samples"] = len(ops)
    out["passes"] = len(result.windows)
    return out


#: Per-layer metrics taken over the traced set-up instead of the run.
SETUP_LAYERS = ("huffman.encode_s", "snappy.encode_s", "pipeline.encode_self_s")


def per_layer(workload, ledger, setup_root, run_root, result, counts_delta,
              base_p50_ms, traced_p50_ms) -> dict:
    from perfbench.ledger import CODEC_LAYERS, LAYER_OF, layer_ledger

    run = layer_ledger(ledger, run_root)
    setup = layer_ledger(ledger, setup_root)
    spans = ledger.subtree(run_root)
    selfs = ledger.self_times()
    m = {name: 0.0 for name, _ in PER_LAYER}
    for name in m:
        m[name] = float((setup if name in SETUP_LAYERS else run).get(name, 0.0))
    for stage in ("huffman", "snappy"):
        dec = [s for s in spans if s.name == f"{stage}.decode"]
        secs = sum(s.dur for s in dec)
        m[f"{stage}.decode_mb_s"] = sum(s.nbytes for s in dec) / secs / 1e6 if secs else 0.0
    m["session.spmv_s"] = sum(s.dur for s in spans if s.name in ("session.spmv", "session.spmm"))
    m["ledger.closure_err_s"] = ledger.closure_error()

    # Shares of the workload's own operations: codec self time against the
    # cold serial SpMV calls, multiply + solver against the solves.
    if workload == "cold-stream":
        ops = [s for s in spans if s.name == "op.spmv_serial"]
    else:
        ops = [s for s in spans if s.name in ("solvers.cg", "solvers.pagerank")]
    wall = sum(s.dur for s in ops)
    if wall:
        codec = mult = 0.0
        for op in ops:
            for s in ledger.subtree(op):
                layer = LAYER_OF.get(s.name)
                if layer in CODEC_LAYERS:
                    codec += selfs[s.sid]
                elif layer in ("multiply.self_s", "solver.vector_s"):
                    mult += selfs[s.sid]
        m["codec.share"] = codec / wall
        m["multiply_solver.share"] = mult / wall

    ops = result.ops
    m["decode.records"] = counts_delta["codecs.decode.records"] / len(result.windows)
    m["pipeline.multiply_idle_s"] = counts_delta["spmv.pipeline.multiply_idle_seconds"]
    m["pipeline.decode_idle_s"] = counts_delta["spmv.pipeline.decode_idle_seconds"]
    m["modeled.dram_bytes"] = sum(op.dram_bytes for op in ops)
    m["modeled.dma_s"] = sum(op.dma_s for op in ops)
    for key in ("cg.iterations", "pagerank.iterations"):
        if key in result.counts:
            m[key] = result.counts[key]
    for key, value in result.layers.items():
        if key in m:
            m[key] = value
    if workload == "serve-mixed":
        for op in ops:
            if op.reason.startswith("shed.") and op.reason in m:
                m[op.reason] += 1
        m["serve.error_rate"] = sum(1 for op in ops if not op.ok) / len(ops)
    m["trace.overhead"] = traced_p50_ms / base_p50_ms - 1.0
    m["host.probe_ms"] = statistics.median(op.probe_s for op in ops) * 1e3
    return m


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS, Readings

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; know {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    from perfbench.ledger import Ledger, instrument, layer_ledger

    host = host_block()
    print("host " + json.dumps(host, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    ledger = Ledger() if args.trace else None
    fallbacks0 = counter("kernels.fallback")
    try:
        setup_times, setup_times_raw = [], []
        setup_root = None
        readings = Readings()
        for rep in range(SETUP_REPS):
            # The first set-up is the traced one: the last one's process
            # pools must not inherit the wrappers.
            traced = ledger is not None and rep == 0
            patch = instrument(ledger) if traced else None
            t0 = time.perf_counter()
            try:
                if traced:
                    with ledger.span("setup") as setup_root:
                        wl.setup()
                else:
                    wl.setup()
            finally:
                if patch is not None:
                    patch.undo()
            dt = time.perf_counter() - t0
            setup_times_raw.append(dt)
            setup_times.append(dt * PROBE_REF_S / readings.around())
        info = wl.prepare()
        print("inputs " + json.dumps(info, sort_keys=True))

        names = ("codecs.decode.records", "spmv.pipeline.multiply_idle_seconds",
                 "spmv.pipeline.decode_idle_seconds")
        if ledger is None:
            result = wl.run(args.seconds)
        else:
            base = wl.run(args.seconds / 2)
            before = {n: counter(n) for n in names}
            patch = instrument(ledger)
            try:
                with ledger.span("run") as run_root:
                    result = wl.run(args.seconds / 2, ledger)
            finally:
                patch.undo()
            counts_delta = {n: counter(n) - before[n] for n in names}
        fallbacks = counter("kernels.fallback") - fallbacks0
        if hasattr(wl, "kernel_fallbacks"):
            fallbacks += wl.kernel_fallbacks()
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if fallbacks:
        # A silent fallback to the python kernels measures a different,
        # several-times slower program: refuse to report it.
        print(f"kernels.fallback moved by {fallbacks:g} during the run; "
              "refusing to report", file=sys.stderr)
        return 3

    # Every op is checked, the untraced half of a traced run too.
    ops = result.ops + (base.ops if ledger is not None else [])
    failed = sum(1 for op in ops if not op.ok)
    wrong = sum(1 for op in ops if op.reason in ("wrong_output", "error"))
    figures = named_figures(args.workload, result)
    print("figures " + json.dumps(figures, sort_keys=True))
    print("counts " + json.dumps(result.counts, sort_keys=True))
    scale = host_scale(result)
    raw = end_to_end(setup_times_raw, result, wl.TAIL_PCT, ref_s=None)
    print(f"host_scale {scale:.4f} (reported times = measured x scale); as measured: "
          + json.dumps({k: round(v, 6) for k, v in raw.items()}, sort_keys=True))
    record = {"workload": args.workload, "seed": args.seed, "host": host,
              "inputs": info, "figures": figures, "counts": result.counts,
              "setup_times_s": setup_times, "setup_times_raw_s": setup_times_raw,
              "host_scale": scale, "as_measured": raw,
              "ops": [[op.kind, op.latency_s, op.probe_s, op.ok] for op in result.ops],
              "passes": [[w.ops.start, w.ops.stop, w.busy_s] for w in result.windows]}
    if ledger is None:
        e2e = end_to_end(setup_times, result, wl.TAIL_PCT)
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        base_p50 = statistics.median(scaled(base)[0])
        traced_p50 = statistics.median(scaled(result)[0])
        layers = per_layer(args.workload, ledger, setup_root, run_root, result,
                           counts_delta, base_p50, traced_p50)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        buckets = layer_ledger(ledger, run_root)
        print(f"ledger traced_run_s={run_root.dur:.6f} "
              f"sum_of_layer_self_times_s={sum(buckets.values()):.6f} "
              f"closure_err_s={layers['ledger.closure_err_s']:.3g} "
              f"untraced_p50_ms={base_p50:.4f} traced_p50_ms={traced_p50:.4f}")
        for name, unit in PER_LAYER:
            print(f"  {name:28s} {layers[name]:14.6g} {unit}")
        trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        write_json(trace_path, [dataclasses.asdict(s) for s in ledger.spans])
        record["trace_file"] = os.path.relpath(trace_path, ROOT)
    record["metrics"] = metrics
    write_json(os.path.join(OUT, f"result-{args.workload}-{args.seed}-t{args.trace}.json"),
               record)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
