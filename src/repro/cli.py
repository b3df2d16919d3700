"""Command-line interface.

Usage::

    python -m repro info   MATRIX
    python -m repro compress MATRIX [--scheme dsh|delta-snappy|snappy|auto]
                                     [--block-bytes N] [--verify] [--simulate]
                                     [--workers N]
    python -m repro spmv   MATRIX [--memory ddr4|hbm2]
                                   [--iterations N] [--metrics-out PATH]
                                   [--trace-out PATH] [--policy strict|degrade]
                                   [--fault-plan SPEC] [--mmap] [--nrhs K]
    python -m repro scrub  CONTAINER [--json] [--verbose]
    python -m repro serve  --root DIR [--host H] [--port N]
                            [--tenant-rate R] [--max-fuse K] [--inflight-budget-mb M]
                            [--cache-mb M] [--max-queue Q] [--drain-s S]
    python -m repro suite  [--count N] [--scale F]
    python -m repro metrics FILE [--diff OTHER] [--format table|prom|json]
    python -m repro ablate [--smoke] [--axes a,b,...] [--pairs a,b,...]
                            [--out PATH] [--repeats N] [--fail-harmful FRAC]
                            [--json]

``MATRIX`` is either a MatrixMarket path (``*.mtx``) or a synthetic spec
``synth:<kind>[:key=value,...]`` with kinds from
:mod:`repro.collection.generators`, e.g. ``synth:banded:n=4000,bandwidth=6``.
"""

from __future__ import annotations

import argparse
import sys

from repro import kernels, obs
from repro.codecs.autotune import autotune
from repro.codecs.pipeline import compress_matrix
from repro.collection import generators
from repro.collection.suite import SuiteConfig, build_suite
from repro.core.hetero import HeterogeneousSystem
from repro.cpu.recoder import CPURecoder
from repro.memsys.dram import DDR4_100GBS, HBM2_1TBS
from repro.sparse.csr import CSRMatrix
from repro.sparse.mmio import read_matrix_market
from repro.udp.runtime import simulate_plan
from repro.util.geomean import geomean
from repro.util.tables import Table
from repro.util.units import fmt_bytes, fmt_rate

_MEMORIES = {"ddr4": DDR4_100GBS, "hbm2": HBM2_1TBS}

_SYNTH_KINDS = {
    "banded": generators.banded,
    "diagonals": generators.diagonals,
    "mesh2d": generators.mesh2d,
    "mesh3d": generators.mesh3d,
    "unstructured": generators.unstructured,
    "graph": generators.powerlaw_graph,
    "fem": generators.fem_stencil,
    "symblocks": generators.symmetric_blocks,
}


def load_matrix(spec: str) -> CSRMatrix:
    """Load a matrix from an .mtx path or a ``synth:`` spec.

    Raises:
        ValueError: on unknown synthetic kinds or malformed parameters.
    """
    if not spec.startswith("synth:"):
        return read_matrix_market(spec)
    parts = spec.split(":", 2)
    kind = parts[1]
    if kind not in _SYNTH_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}; know {sorted(_SYNTH_KINDS)}")
    kwargs: dict[str, object] = {}
    if len(parts) == 3 and parts[2]:
        for pair in parts[2].split(","):
            if "=" not in pair:
                raise ValueError(f"bad parameter {pair!r} (expected key=value)")
            key, value = pair.split("=", 1)
            try:
                kwargs[key] = int(value)
            except ValueError:
                try:
                    kwargs[key] = float(value)
                except ValueError:
                    kwargs[key] = value
    # Positional size arguments differ per generator; pass everything by
    # keyword and let the generator validate.
    return _SYNTH_KINDS[kind](**kwargs)  # type: ignore[arg-type]


def cmd_info(args) -> int:
    m = load_matrix(args.matrix)
    print(f"shape:    {m.nrows} x {m.ncols}")
    print(f"nnz:      {m.nnz}")
    print(f"density:  {m.density:.3e}")
    nnz_per_row = m.row_nnz()
    if m.nrows:
        print(f"row nnz:  min={int(nnz_per_row.min())} "
              f"median={int(sorted(nnz_per_row)[len(nnz_per_row)//2])} "
              f"max={int(nnz_per_row.max())}")
    print(f"CSR size: {fmt_bytes(m.storage_bytes())} (12 B/nnz baseline)")
    return 0


def cmd_compress(args) -> int:
    m = load_matrix(args.matrix)
    if args.scheme == "auto":
        result = autotune(m)
        plan = result.best_plan
        print(f"autotune winner: {result.best_name}")
        for name, size in sorted(result.bytes_per_nnz.items(), key=lambda kv: kv[1]):
            print(f"  {name:<22s} {size:6.2f} B/nnz")
    else:
        flags = {
            "dsh": dict(use_delta=True, use_huffman=True),
            "delta-snappy": dict(use_delta=True, use_huffman=False),
            "snappy": dict(use_delta=False, use_huffman=False),
        }
        if args.scheme not in flags:
            raise ValueError(f"unknown scheme {args.scheme!r}")
        plan = compress_matrix(
            m, block_bytes=args.block_bytes, workers=args.workers, **flags[args.scheme]
        )
    idx = sum(r.stored_bytes for r in plan.index_records)
    val = sum(r.stored_bytes for r in plan.value_records)
    print(f"blocks:      {plan.nblocks} x {plan.block_bytes} B budget")
    print(f"compressed:  {fmt_bytes(plan.compressed_bytes)} "
          f"({plan.bytes_per_nnz:.2f} B/nnz, {plan.compression_ratio:.2f}x)")
    if plan.nnz:
        print(f"  index stream: {idx / plan.nnz:.2f} B/nnz")
        print(f"  value stream: {val / plan.nnz:.2f} B/nnz")
    if args.verify:
        ok = plan.verify()
        print(f"verify:      {'OK — bit-exact round trip' if ok else 'FAILED'}")
        if not ok:
            return 1
    if args.simulate:
        report = simulate_plan(plan, sample=args.sample_blocks)
        status = "verified" if report.all_verified else "FAILED"
        print(f"UDP (64-lane @1.6GHz): {fmt_rate(report.throughput_bytes_per_s)} "
              f"decompression, {status}")
    return 0


#: Metrics ``repro spmv`` reports per command from the global registry.
_RUN_COUNTERS = (
    "spmv.pipeline.multiply_idle_seconds",
    "spmv.pipeline.decode_idle_seconds",
    "faults.blocks_quarantined",
    "faults.retries",
    "spmv.degraded_blocks",
)


def cmd_spmv(args) -> int:
    if args.trace_out:
        obs.enable_tracing()
    m = load_matrix(args.matrix)
    memory = _MEMORIES[args.memory]
    plan = compress_matrix(m)
    udp = simulate_plan(plan, sample=args.sample_blocks)
    cpu = CPURecoder().simulate_plan(plan, sample=args.sample_blocks)
    cmp_ = HeterogeneousSystem(memory).compare("cli", plan, udp, cpu)
    table = Table(["scenario", "GFLOP/s"], formats=["{}", "{:.2f}"])
    table.add_row(cmp_.uncompressed.name, cmp_.uncompressed.gflops)
    table.add_row(cmp_.cpu_decomp.name, cmp_.cpu_decomp.gflops)
    table.add_row(cmp_.udp_cpu.name, cmp_.udp_cpu.gflops)
    print(f"memory system: {memory.name} ({fmt_rate(memory.peak_bw)})")
    print(table.render())
    print(f"speedup {cmp_.udp_speedup:.2f}x at {plan.bytes_per_nnz:.2f} B/nnz "
          f"with {cmp_.udp_cpu.n_udp} UDP(s)")
    fault_plan = None
    if args.fault_plan:
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.parse(args.fault_plan)
        print(f"fault plan armed: {fault_plan.describe()} (policy={args.policy})")
    if args.nrhs < 1:
        print("error: --nrhs must be >= 1", file=sys.stderr)
        return 2
    # A metrics snapshot should span all three layers (codecs, spmv,
    # memsys), which needs at least one functional pipeline iteration —
    # as do a chaos run and the --mmap / --nrhs executor knobs.
    iterations = args.iterations or (
        1
        if args.metrics_out or args.trace_out or fault_plan
        or args.nrhs > 1 or args.mmap
        else 0
    )
    if iterations:
        import contextlib
        import os
        import tempfile

        import numpy as np

        from repro.codecs.engine import DecodedBlockCache, RecodeEngine
        from repro.core import recoded_spmm, recoded_spmv

        engine = RecodeEngine(cache=DecodedBlockCache())
        x = (np.ones(m.ncols) if args.nrhs == 1
             else np.ones((m.ncols, args.nrhs)))
        reg = obs.registry()
        start = {name: reg.value(name) for name in _RUN_COUNTERS}
        ctx = fault_plan.activate() if fault_plan else contextlib.nullcontext()
        with contextlib.ExitStack() as stack:
            stack.enter_context(ctx)
            if args.mmap:
                from repro.codecs.container import save_plan

                tmpdir = stack.enter_context(tempfile.TemporaryDirectory())
                target = os.path.join(tmpdir, "matrix.dsh")
                save_plan(plan, target)
                print(f"streaming {fmt_bytes(os.path.getsize(target))} "
                      f"mmap-backed container")
            else:
                target = plan
            for _ in range(iterations):
                if args.nrhs == 1:
                    y, stats = recoded_spmv(
                        target, x, memory=memory, engine=engine,
                        matrix_id=args.matrix, policy=args.policy)
                else:
                    y, stats = recoded_spmm(
                        target, x, memory=memory, engine=engine,
                        matrix_id=args.matrix, policy=args.policy)
                scale = float(np.abs(y).max())
                x = y / scale if scale else y
        kind = "SpMV" if args.nrhs == 1 else f"SpMM k={args.nrhs}"
        s = stats.engine_stats
        cache = engine.cache.stats
        print(f"engine ({iterations} {kind} iterations): "
              f"{s['blocks_decoded']:.0f} blocks decoded, "
              f"{cache.hits} cache hits ({cache.hit_rate:.0%}), "
              f"{s['decode_mb_per_s']:.1f} MB/s")
        if stats.oocore is not None:
            oc = stats.oocore
            print(f"out-of-core: "
                  f"mapped={fmt_bytes(oc['mapped_bytes'])} "
                  f"pages_touched={oc['pages_touched']}")
        # The registry is process-global (--metrics-out reads it whole);
        # these lines report this command's share of it.
        ran = {name: reg.value(name) - before for name, before in start.items()}
        print(f"pipeline: "
              f"multiply_idle={ran['spmv.pipeline.multiply_idle_seconds']:.3f}s "
              f"decode_idle={ran['spmv.pipeline.decode_idle_seconds']:.3f}s")
        if fault_plan is not None:
            print(f"chaos: quarantined={ran['faults.blocks_quarantined']:.0f} "
                  f"retries={ran['faults.retries']:.0f} "
                  f"degraded_blocks={ran['spmv.degraded_blocks']:.0f}")
    if args.metrics_out:
        obs.write_metrics(args.metrics_out)
        print(f"wrote {args.metrics_out}")
    if args.trace_out:
        obs.write_trace(args.trace_out)
        print(f"wrote {args.trace_out}")
    return 0


def cmd_pack(args) -> int:
    from repro.codecs.container import save_plan

    m = load_matrix(args.matrix)
    plan = compress_matrix(m) if args.scheme == "dsh" else autotune(m).best_plan
    if not plan.verify():
        print("error: plan failed verification", file=sys.stderr)
        return 1
    save_plan(plan, args.output)
    import os

    print(f"packed {m.nnz} nnz -> {args.output} "
          f"({fmt_bytes(os.path.getsize(args.output))}, "
          f"{plan.bytes_per_nnz:.2f} B/nnz)")
    return 0


def cmd_unpack(args) -> int:
    from repro.codecs.container import load_csr
    from repro.sparse.mmio import write_matrix_market

    m = load_csr(args.container)
    write_matrix_market(m, args.output, comment=f"unpacked from {args.container}")
    print(f"unpacked {m.nrows}x{m.ncols}, nnz={m.nnz} -> {args.output}")
    return 0


def cmd_scrub(args) -> int:
    from repro.codecs.container import scrub_container

    report = scrub_container(args.container)
    if args.json:
        import json

        print(json.dumps(report.as_dict(), indent=2))
        return 0 if report.healthy else 1
    d = "OK" if report.healthy else "UNHEALTHY"
    print(f"{args.container}: {d} ({fmt_bytes(report.nbytes)})")
    print(f"  magic={'ok' if report.magic_ok else 'BAD'} "
          f"header={'ok' if report.header_ok else 'BAD'} "
          f"trailer={'ok' if report.trailer_ok else 'BAD'}")
    print(f"  blocks: {report.blocks_ok}/{report.nblocks} healthy "
          f"({len(report.blocks)} walkable)")
    if report.fatal:
        print(f"  fatal: {report.fatal}")
    for b in report.blocks:
        if b.ok and not args.verbose:
            continue
        parts = [f"meta={'ok' if b.meta_ok else 'BAD'}"]
        for rec in (b.index, b.value):
            if rec is None:
                continue
            state = "ok" if rec.ok else (
                "crc BAD" if not rec.crc_ok else f"decode BAD ({rec.error})"
            )
            parts.append(f"{rec.stream}[{rec.payload_bytes}B]={state}")
        parts.extend(b.errors)
        marker = " " if b.ok else "!"
        print(f"  {marker} block {b.block_id:>5d} @0x{b.offset:08x}  "
              + "  ".join(parts))
    return 0 if report.healthy else 1


def _sigterm_as_interrupt() -> None:
    """Route SIGTERM through KeyboardInterrupt so ``finally`` blocks run
    (pool teardown, engine close) instead of dying mid-fork."""
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return  # pragma: no cover - signal API is main-thread-only

    def _raise(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _raise)


def cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.serve import ServeConfig, run_server

    mb = 1024 * 1024
    config = ServeConfig(
        root=args.root,
        host=args.host,
        port=args.port,
        cache_bytes=args.cache_mb * mb,
        max_matrix_frac=args.max_matrix_frac,
        inflight_budget_bytes=args.inflight_budget_mb * mb,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        max_fuse=args.max_fuse,
        max_queue=args.max_queue,
        compute_threads=args.compute_threads,
        residency_budget=args.residency_mb * mb if args.residency_mb else None,
        drain_s=args.drain_s,
    )

    async def _main() -> int:
        stop = asyncio.Event()
        caught: dict[str, int] = {}
        loop = asyncio.get_running_loop()

        def _stop(signum: int) -> None:
            if not stop.is_set():
                print(
                    f"received {signal.Signals(signum).name}; draining...",
                    file=sys.stderr,
                    flush=True,
                )
            caught.setdefault("signum", signum)
            stop.set()

        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, _stop, sig)

        def ready(server) -> None:
            print(
                f"serving {len(server.library)} matrices "
                f"({', '.join(server.library.names())}) on "
                f"{config.host}:{server.port} "
                f"[max_fuse={config.max_fuse}]",
                flush=True,
            )

        await run_server(config, ready=ready, stop_event=stop)
        if "signum" in caught:
            print("drained; shut down cleanly", file=sys.stderr)
            return 128 + caught["signum"]
        return 0

    return asyncio.run(_main())


def cmd_metrics(args) -> int:
    snapshot = obs.load_metrics(args.file)
    if args.diff:
        other = obs.load_metrics(args.diff)
        if args.format == "json":
            import json

            rows = obs.diff_snapshots(snapshot, other)
            print(json.dumps(
                [{"metric": k, "a": va, "b": vb, "delta": d} for k, va, vb, d in rows],
                indent=2,
            ))
        else:
            print(obs.render_diff_table(snapshot, other))
        return 0
    if args.format == "json":
        import json

        print(json.dumps(snapshot, indent=2, sort_keys=True))
    elif args.format == "prom":
        print(obs.to_prometheus(snapshot))
    else:
        print(obs.render_table(snapshot))
    return 0


def cmd_suite(args) -> int:
    entries = build_suite(SuiteConfig(count=args.count, scale=args.scale))
    sizes = []
    table = Table(["name", "kind", "target nnz"], formats=["{}", "{}", "{}"])
    for entry in entries[: args.show]:
        table.add_row(entry.name, entry.kind, entry.target_nnz)
    print(table.render())
    if args.compress:
        for entry in entries[: args.compress]:
            plan = compress_matrix(entry.build())
            if plan.nnz:
                sizes.append(plan.bytes_per_nnz)
        print(f"\nDSH geomean over first {len(sizes)}: {geomean(sizes):.2f} B/nnz")
    return 0


def cmd_ablate(args) -> int:
    import dataclasses
    import json

    from repro.ablation import (
        AblationRunner,
        RunnerSettings,
        build_artifact,
        enumerate_configs,
        enumerate_pair_configs,
        render_interactions,
        render_ranking,
    )

    settings = RunnerSettings.smoke() if args.smoke else RunnerSettings.default()
    overrides = {}
    if args.repeats:
        overrides["repeats"] = args.repeats
    if args.warm_iters:
        overrides["warm_iters"] = args.warm_iters
    if args.nrhs:
        overrides["nrhs"] = args.nrhs
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.fail_harmful is not None:
        overrides["harmful_threshold"] = args.fail_harmful
    if overrides:
        settings = dataclasses.replace(settings, **overrides)

    axes = tuple(args.axes.split(",")) if args.axes else None
    pair_axes = tuple(args.pairs.split(",")) if args.pairs else ()
    if pair_axes and axes is not None:
        # The interaction null model divides by the one-off contributions,
        # so every paired axis must also run alone.
        axes = tuple(dict.fromkeys((*axes, *pair_axes)))
    try:
        configs = enumerate_configs(axes)
        if pair_axes:
            configs = (*configs, *enumerate_pair_configs(pair_axes))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Progress goes to stderr so `--json` leaves stdout pipeable.
    print(
        f"ablating {len(configs) - 1} configurations over "
        f"{len(settings.cases)} matrices ({settings.profile} profile, "
        f"repeats={settings.repeats})...",
        file=sys.stderr,
    )
    _sigterm_as_interrupt()
    try:
        report = AblationRunner(settings).run(configs)
    except KeyboardInterrupt:
        # The runner's ``finally`` already closed its engine; exit with
        # the conventional interrupt status, no traceback spam.
        print("interrupted", file=sys.stderr)
        return 130
    artifact = build_artifact(report)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if args.json:
        print(json.dumps(artifact, indent=2, sort_keys=True))
    else:
        print(render_ranking(report))
        if pair_axes:
            print()
            print(render_interactions(report))
        gates = artifact["gates"]
        conf = artifact["conformance"]
        print(
            f"conformance: {conf['configs_checked']} configs "
            f"{'bit-identical' if conf['bit_identical'] else 'DIVERGED'}; "
            f"worst removal gain {gates['worst_removal_gain']:.3f}x"
        )
        print(f"wrote {args.out}")

    if not report.bit_identical:
        for mismatch in report.mismatches:
            print(f"error: conformance: {mismatch}", file=sys.stderr)
        return 1
    if args.fail_harmful is not None and artifact["gates"]["num_harmful"]:
        harmful = [r["run_id"] for r in artifact["ranking"] if r["harmful"]]
        print(
            f"error: component removal helps by more than "
            f"{settings.harmful_threshold:.0%}: {', '.join(harmful)}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_solve(args) -> int:
    import numpy as np

    from repro.core import ExecutionSession
    from repro.solvers import cg, pagerank, power_iteration

    if args.matrix.endswith(".dsh"):
        source = args.matrix
        shape_hint = None
    else:
        m = load_matrix(args.matrix)
        if args.normalize:
            # Column-stochastic P^T for random-walk iterations.
            out_degree = np.maximum(m.row_nnz(), 1)
            rows = np.repeat(np.arange(m.nrows), m.row_nnz())
            vals = m.val / out_degree[rows]
            from repro.sparse.coo import COOMatrix

            m = COOMatrix(
                (m.ncols, m.nrows), m.col_idx.astype(np.int64), rows, vals
            ).to_csr()
        source = compress_matrix(m, block_bytes=args.block_bytes)
        shape_hint = (m.nrows, m.ncols)

    _sigterm_as_interrupt()
    session = ExecutionSession(
        source,
        matrix_id=f"solve-{args.algorithm}",
        policy=args.policy,
        reuse=not args.no_session,
    )
    try:
        nrows, ncols = session.plan.blocked.shape
        if shape_hint is None:
            shape_hint = (nrows, ncols)
        print(f"operator: {nrows} x {ncols}, nnz={session.plan.nnz}, "
              f"{session.plan.bytes_per_nnz:.2f} B/nnz "
              f"({'session reuse' if not args.no_session else 'cold per call'})")
        defaults = {"cg": (1e-8, 500), "pagerank": (1e-10, 200), "power": (1e-10, 200)}
        tol, max_iter = defaults[args.algorithm]
        if args.tol is not None:
            tol = args.tol
        if args.max_iter is not None:
            max_iter = args.max_iter
        if args.algorithm == "cg":
            rng = np.random.default_rng(args.seed)
            b = rng.normal(size=ncols)
            result = cg(session, b, tol=tol, max_iter=max_iter)
        elif args.algorithm == "pagerank":
            result = pagerank(
                session, damping=args.damping, tol=tol, max_iter=max_iter
            )
        else:
            result = power_iteration(session, tol=tol, max_iter=max_iter)

        status = "converged" if result.converged else "NOT converged"
        print(f"{args.algorithm}: {status} in {result.iterations} iterations, "
              f"residual {result.residual:.3e}")
        print(f"traffic: {fmt_bytes(result.dram_bytes)} matrix DRAM + "
              f"{fmt_bytes(result.vector_bytes)} modeled vector "
              f"({fmt_bytes(result.total_bytes)} total)")
        if result.info:
            for key, value in sorted(result.info.items()):
                print(f"  {key}: {value:.6g}")
        st = session.stats()
        print(f"session: {st['cold_calls']} cold / {st['warm_calls']} warm "
              f"calls, cache hit rate {st['cache_hit_rate']:.0%}, "
              f"{st['crc_skips']} record-CRC checks skipped")
        if args.curve:
            table = Table(("iteration", "residual", "cum_bytes", "hit_rate"))
            step = max(1, len(result.history) // args.curve)
            picked = result.history[::step]
            if result.history and result.history[-1] is not picked[-1]:
                picked = (*picked, result.history[-1])
            for rec in picked:
                table.add_row(
                    str(rec.iteration),
                    f"{rec.residual:.3e}",
                    fmt_bytes(rec.dram_bytes + rec.vector_bytes),
                    f"{rec.cache_hit_rate:.0%}",
                )
            print(table.render())
        if args.metrics_out:
            obs.write_metrics(args.metrics_out)
            print(f"wrote {args.metrics_out}")
        return 0 if result.converged else 3
    finally:
        session.close()


def _add_kernel_backend_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel-backend", default=None,
                   choices=["auto", *kernels.KNOWN_BACKENDS],
                   help="codec kernel backend (default: $REPRO_KERNEL_BACKEND, "
                        "else autodetect: 'native' C decode loops when a C "
                        "compiler is present, else 'numpy'; 'python' forces "
                        "the reference loops)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="matrix statistics")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("compress", help="compress and report bytes/nnz")
    p.add_argument("matrix")
    p.add_argument("--scheme", default="dsh", choices=["dsh", "delta-snappy", "snappy", "auto"])
    p.add_argument("--block-bytes", type=int, default=8192)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--sample-blocks", type=int, default=2)
    p.add_argument("--workers", type=int, default=0,
                   help="encode pool width in processes (0 = serial)")
    _add_kernel_backend_arg(p)
    p.set_defaults(fn=cmd_compress)

    p = sub.add_parser("spmv", help="model the three SpMV scenarios")
    p.add_argument("matrix")
    p.add_argument("--memory", default="ddr4", choices=sorted(_MEMORIES))
    p.add_argument("--sample-blocks", type=int, default=2)
    p.add_argument("--iterations", type=int, default=0, metavar="N",
                   help="also run N functional SpMV iterations through the "
                        "engine's decoded-block cache and report its stats")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write a metrics JSON snapshot here (forces one "
                        "functional iteration if --iterations is 0)")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write a Chrome-trace-format JSON timeline here")
    p.add_argument("--policy", default="strict", choices=["strict", "degrade"],
                   help="block-decode failure policy for the functional "
                        "iterations (degrade substitutes raw CSR, bit-exact)")
    p.add_argument("--fault-plan", metavar="SPEC",
                   help="arm a deterministic chaos plan around the functional "
                        "iterations, e.g. 'seed=7,bitflip=0.05' "
                        "(forces one iteration if --iterations is 0)")
    p.add_argument("--mmap", action="store_true",
                   help="stream the compressed matrix from an mmap-backed "
                        ".dsh container instead of holding it in memory")
    p.add_argument("--nrhs", type=int, default=1, metavar="K",
                   help="right-hand sides: 1 runs SpMV, K>1 runs fused SpMM "
                        "decoding each block once for all K columns")
    _add_kernel_backend_arg(p)
    p.set_defaults(fn=cmd_spmv)

    p = sub.add_parser("scrub", help="walk a .dsh container and report per-block health")
    p.add_argument("container")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    p.add_argument("--verbose", action="store_true",
                   help="list healthy blocks too, not just sick ones")
    p.set_defaults(fn=cmd_scrub)

    p = sub.add_parser("pack", help="compress a matrix into a .dsh container")
    p.add_argument("matrix")
    p.add_argument("output")
    p.add_argument("--scheme", default="dsh", choices=["dsh", "auto"])
    p.set_defaults(fn=cmd_pack)

    p = sub.add_parser("unpack", help="expand a .dsh container to MatrixMarket")
    p.add_argument("container")
    p.add_argument("output")
    p.set_defaults(fn=cmd_unpack)

    p = sub.add_parser("suite", help="inspect the synthetic suite")
    p.add_argument("--count", type=int, default=369)
    p.add_argument("--scale", type=float, default=0.004)
    p.add_argument("--show", type=int, default=10)
    p.add_argument("--compress", type=int, default=0, metavar="N",
                   help="also DSH-compress the first N entries")
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser(
        "solve",
        help="run an iterative solver over a persistent execution session",
    )
    p.add_argument("algorithm", choices=["cg", "pagerank", "power"],
                   help="cg (SPD systems), pagerank (column-stochastic "
                        "P^T), or power (dominant eigenpair)")
    p.add_argument("matrix",
                   help="MatrixMarket path, synth: spec, or .dsh container")
    p.add_argument("--tol", type=float, default=None,
                   help="convergence tolerance (default: per-algorithm)")
    p.add_argument("--max-iter", type=int, default=None, metavar="N",
                   help="iteration cap (default: per-algorithm)")
    p.add_argument("--damping", type=float, default=0.85,
                   help="PageRank damping factor (default %(default)s)")
    p.add_argument("--seed", type=int, default=7,
                   help="RNG seed for CG's right-hand side (default %(default)s)")
    p.add_argument("--normalize", action="store_true",
                   help="row-normalize + transpose into a column-stochastic "
                        "P^T first (graph adjacency -> random-walk operator)")
    p.add_argument("--block-bytes", type=int, default=8192)
    p.add_argument("--policy", default="strict", choices=["strict", "degrade"])
    p.add_argument("--no-session", action="store_true",
                   help="disable steady-state reuse: every iteration pays "
                        "cold decode (the ablation baseline)")
    p.add_argument("--curve", type=int, default=0, metavar="N",
                   help="print ~N rows of the convergence-vs-traffic curve")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write a metrics JSON snapshot (solver.*, session.*)")
    _add_kernel_backend_arg(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser(
        "ablate",
        help="rank component importance via baseline-plus-one-off ablations",
    )
    p.add_argument("--smoke", action="store_true",
                   help="reduced grid (CI): smaller matrices, fewer repeats")
    p.add_argument("--axes", metavar="LIST",
                   help="comma-separated axis subset, e.g. 'cache,policy' "
                        "(default: every switchable axis)")
    p.add_argument("--pairs", metavar="LIST",
                   help="also run pairwise ablations over these axes, e.g. "
                        "'cache,policy' (every pair among the listed "
                        "axes; their one-off runs are added if --axes "
                        "omitted them) and report interaction ratios")
    p.add_argument("--out", default="BENCH_ablation.json", metavar="PATH",
                   help="artifact path (default: %(default)s)")
    p.add_argument("--repeats", type=int, default=0, metavar="N",
                   help="best-of repeats per timed phase (default: profile's)")
    p.add_argument("--warm-iters", type=int, default=0, metavar="N",
                   help="warm iterations weighted into the headline metric")
    p.add_argument("--nrhs", type=int, default=0, metavar="K",
                   help="right-hand sides for the SpMM burst")
    p.add_argument("--seed", type=int, default=None,
                   help="suite seed (default: profile's)")
    p.add_argument("--fail-harmful", type=float, default=None, metavar="FRAC",
                   help="exit 1 if removing any component improves the "
                        "headline geomean by more than FRAC (e.g. 0.05); "
                        "host-dependent knobs (kernel_backend) are ranked "
                        "but never gate")
    p.add_argument("--json", action="store_true",
                   help="print the artifact JSON instead of the table")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser(
        "serve",
        help="serve .dsh containers over TCP (NDJSON protocol + /metrics)",
    )
    p.add_argument("--root", required=True,
                   help="directory of .dsh containers (name = file stem)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7077,
                   help="TCP port (0 = ephemeral; default %(default)s)")
    p.add_argument("--cache-mb", type=int, default=256, metavar="M",
                   help="shared decoded-block cache budget (default %(default)s)")
    p.add_argument("--max-matrix-frac", type=float, default=0.5, metavar="F",
                   help="one matrix's max share of the cache (default %(default)s)")
    p.add_argument("--inflight-budget-mb", type=int, default=1024, metavar="M",
                   help="global admission budget in estimated decode-traffic "
                        "bytes (default %(default)s)")
    p.add_argument("--tenant-rate", type=float, default=None, metavar="R",
                   help="per-tenant admission rate, requests/s (default: off)")
    p.add_argument("--tenant-burst", type=float, default=8.0, metavar="B")
    p.add_argument("--max-fuse", type=int, default=8, metavar="K",
                   help="max SpMVs fused into one SpMM; 1 disables fusion "
                        "(default %(default)s)")
    p.add_argument("--max-queue", type=int, default=64, metavar="Q",
                   help="bounded scheduler queue; overflow sheds (default "
                        "%(default)s)")
    p.add_argument("--compute-threads", type=int, default=2, metavar="N")
    p.add_argument("--residency-mb", type=int, default=0, metavar="M",
                   help="mmap residency budget per container (0 = unbounded)")
    p.add_argument("--drain-s", type=float, default=5.0, metavar="S",
                   help="shutdown drain timeout (default %(default)s)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("metrics", help="inspect or diff a metrics JSON snapshot")
    p.add_argument("file", help="metrics JSON written by --metrics-out")
    p.add_argument("--diff", metavar="OTHER",
                   help="show OTHER minus FILE instead of the snapshot itself")
    p.add_argument("--format", default="table", choices=["table", "prom", "json"])
    p.set_defaults(fn=cmd_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "kernel_backend", None):
            kernels.set_backend(args.kernel_backend)
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
