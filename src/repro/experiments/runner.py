"""Experiment runner: regenerate every figure and (optionally) EXPERIMENTS.md.

Usage::

    python -m repro.experiments.runner --all            # quick profile
    python -m repro.experiments.runner --all --full     # paper-scale suite
    python -m repro.experiments.runner --exp fig10 fig12
    python -m repro.experiments.runner --all --write-md EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import obs
from repro.experiments import (
    ablations,
    fig03_cpu_spmv,
    fig10_compressed_size,
    fig11_size_scatter,
    fig12_decomp_throughput,
    fig13_udp_scatter,
    fig14_spmv_ddr4,
    fig15_spmv_hbm2,
    fig16_power_ddr4,
    fig17_power_hbm2,
    headline,
)
from repro.experiments.common import ExperimentContext, ExperimentResult, MatrixLab

ALL_EXPERIMENTS = {
    "fig03": fig03_cpu_spmv,
    "fig10": fig10_compressed_size,
    "fig11": fig11_size_scatter,
    "fig12": fig12_decomp_throughput,
    "fig13": fig13_udp_scatter,
    "fig14": fig14_spmv_ddr4,
    "fig15": fig15_spmv_hbm2,
    "fig16": fig16_power_ddr4,
    "fig17": fig17_power_hbm2,
    "headline": headline,
}

#: Ablation sweeps (design choices + future-work demos; not paper figures).
ABLATIONS = {
    "abl_stages": ablations.run_stages,
    "abl_blocksize": ablations.run_blocksize,
    "abl_stride": ablations.run_stride,
    "abl_rle": ablations.run_rle,
    "abl_shuffle": ablations.run_shuffle,
    "abl_attach": ablations.run_attach,
    "abl_reorder": ablations.run_reorder,
    "abl_spmm": ablations.run_spmm,
    "abl_des": ablations.run_des,
}


def run_experiments(
    names: list[str], ctx: ExperimentContext, lab: MatrixLab | None = None
) -> list[tuple[ExperimentResult, float]]:
    """Run the named experiments over one shared :class:`MatrixLab`."""
    lab = lab or MatrixLab(ctx)
    results = []
    for name in names:
        if name in ALL_EXPERIMENTS:
            fn = ALL_EXPERIMENTS[name].run
        elif name in ABLATIONS:
            fn = ABLATIONS[name]
        else:
            known = sorted(ALL_EXPERIMENTS) + sorted(ABLATIONS)
            raise ValueError(f"unknown experiment {name!r}; know {known}")
        start = time.perf_counter()
        with obs.trace("experiments.run", exp=name):
            result = fn(ctx, lab)
        elapsed = time.perf_counter() - start
        reg = obs.registry()
        reg.counter("experiments.runs").inc()
        reg.counter("experiments.seconds", exp=name).inc(elapsed)
        results.append((result, elapsed))
    return results


def render_markdown(results: list[tuple[ExperimentResult, float]], ctx: ExperimentContext) -> str:
    """EXPERIMENTS.md content: paper-vs-measured for every figure."""
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Regenerated with `python -m repro.experiments.runner --all"
        + (" --full" if ctx.suite_count >= 369 else "")
        + "`.",
        "",
        f"Profile: suite_count={ctx.suite_count}, suite_scale={ctx.suite_scale}, "
        f"rep_nnz={ctx.rep_nnz}, sample_blocks={ctx.sample_blocks}, seed={ctx.seed}.",
        "",
        "Absolute numbers come from a Python model of the authors' testbed "
        "(see DESIGN.md §3 for substitutions); the *shape* — who wins, by "
        "roughly what factor — is the reproduction target.",
        "",
    ]
    for result, elapsed in results:
        lines.append(f"## {result.exp_id} — {result.title}")
        lines.append("")
        summary = [
            "| metric | measured | paper |",
            "|---|---|---|",
        ]
        for key, measured in result.headline.items():
            ref = result.paper.get(key)
            summary.append(
                f"| {key} | {measured:.4g} | {'' if ref is None else f'{ref:g}'} |"
            )
        lines.extend(summary)
        lines.append("")
        lines.append(result.table.render_markdown())
        lines.append("")
        if result.notes:
            lines.append(f"*{result.notes}*")
            lines.append("")
        lines.append(f"*(regenerated in {elapsed:.1f}s)*")
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--all", action="store_true", help="run every paper figure")
    parser.add_argument("--exp", nargs="*", default=[], help="experiment ids to run")
    parser.add_argument(
        "--ablations", action="store_true", help="also run the ablation sweeps"
    )
    parser.add_argument("--full", action="store_true", help="paper-scale suite (slow)")
    parser.add_argument("--write-md", metavar="PATH", help="write EXPERIMENTS.md here")
    parser.add_argument("--suite-count", type=int, help="override suite size")
    parser.add_argument("--suite-scale", type=float, help="override suite nnz scale")
    parser.add_argument("--rep-nnz", type=int, help="override representative nnz")
    parser.add_argument("--samples", type=int, help="override cycle-simulated blocks/matrix")
    parser.add_argument(
        "--metrics-out", metavar="PATH", help="write a metrics JSON snapshot here"
    )
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help="write a Chrome-trace-format JSON timeline here",
    )
    args = parser.parse_args(argv)

    names = list(ALL_EXPERIMENTS) if args.all else list(args.exp)
    if args.ablations:
        names += [n for n in ABLATIONS if n not in names]
    if not names:
        parser.print_help()
        return 2
    ctx = ExperimentContext.full() if args.full else ExperimentContext.quick()
    overrides = {
        "suite_count": args.suite_count,
        "suite_scale": args.suite_scale,
        "rep_nnz": args.rep_nnz,
        "sample_blocks": args.samples,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        from dataclasses import replace

        ctx = replace(ctx, **overrides)

    if args.trace_out:
        obs.enable_tracing()

    lab = MatrixLab(ctx)
    results = run_experiments(names, ctx, lab)
    for result, elapsed in results:
        print(result.render())
        print(f"  ({elapsed:.1f}s)\n")
    print(lab.engine_summary())

    if args.write_md:
        with open(args.write_md, "w", encoding="utf-8") as fh:
            fh.write(render_markdown(results, ctx))
        print(f"wrote {args.write_md}")
    if args.metrics_out:
        obs.write_metrics(args.metrics_out)
        print(f"wrote {args.metrics_out}")
    if args.trace_out:
        obs.write_trace(args.trace_out)
        print(f"wrote {args.trace_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
