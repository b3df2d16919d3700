"""Fig. 12 — 32-thread CPU vs 64-lane UDP decompression throughput.

Per representative matrix, the paper shows the 64-lane UDP decompressing
its DSH-encoded blocks "between 2x and 5x [faster] to over 20 GB/s" than a
32-thread CPU running Snappy; across the 369-matrix suite the UDP's
geometric-mean advantage is 7x.
"""

from __future__ import annotations

import time

from repro import kernels
from repro.codecs.engine import DecodedBlockCache, RecodeEngine
from repro.experiments.common import ExperimentContext, ExperimentResult, MatrixLab
from repro.util.geomean import geomean, geomean_ratio
from repro.util.tables import Table

EXP_ID = "fig12"
TITLE = "Decompression throughput: 32-thread CPU (Snappy) vs 64-lane UDP (DSH)"

#: Decoded-byte budget for the Huffman-stage backend comparison; enough
#: records to dominate per-call overhead while keeping the (slow by
#: design) reference-backend passes to fractions of a second.
_HUFFMAN_STAGE_BUDGET_BYTES = 256 * 1024


def huffman_stage_mb_s(plans, backend: str, repeats: int = 2) -> float:
    """Measured Huffman-stage decode throughput on one kernel backend.

    Replays the Huffman stage alone — ``table.decode_bits(payload,
    snappy_len)`` per stored record, the exact call ``decode_record``
    makes — over the plans' records (subsampled to a fixed decoded-byte
    budget so the reference backend stays affordable) and reports MB/s of
    decoded output, min-of-``repeats``. An untimed warm-up pass first
    compiles/caches the decoder tables, matching the steady-state regime
    Fig. 12 is about.
    """
    work: list[tuple[bytes, int, object]] = []
    budget = _HUFFMAN_STAGE_BUDGET_BYTES
    for plan in plans:
        if not plan.use_huffman:
            continue
        for records, table in (
            (plan.index_records, plan.index_table),
            (plan.value_records, plan.value_table),
        ):
            for rec in records:
                if rec.snappy_len and budget > 0:
                    work.append((rec.payload, rec.snappy_len, table))
                    budget -= rec.snappy_len
    if not work:
        return 0.0
    total_bytes = sum(out_len for _, out_len, _ in work)
    with kernels.use_backend(backend):
        for payload, out_len, table in work:  # warm-up: compile tables
            table.decode_bits(payload, out_len)
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for payload, out_len, table in work:
                table.decode_bits(payload, out_len)
            best = min(best, time.perf_counter() - start)
    return total_bytes / best / 1e6


def run(ctx: ExperimentContext | None = None, lab: MatrixLab | None = None) -> ExperimentResult:
    ctx = ctx or ExperimentContext.quick()
    lab = lab or MatrixLab(ctx)

    table = Table(
        ["matrix", "CPU GB/s", "UDP GB/s", "UDP/CPU"],
        formats=["{}", "{:.2f}", "{:.2f}", "{:.2f}x"],
    )
    cpu_tputs, udp_tputs = [], []
    plans = []
    for rep in lab.representatives():
        m = lab.matrix(rep.name, rep.build)
        cpu = lab.cpu_report(rep.name, m, "cpu-snappy").throughput_bytes_per_s
        udp = lab.udp_report(rep.name, m).throughput_bytes_per_s
        cpu_tputs.append(cpu)
        udp_tputs.append(udp)
        plans.append(lab.plan(rep.name, m, "dsh"))
        table.add_row(rep.name, cpu / 1e9, udp / 1e9, udp / cpu)

    # Software recode engine over the same DSH plans: measured wall-clock,
    # cold (every block decompressed) vs steady-state (decoded-block cache
    # hot — the paper's repeated-SpMV reuse regime).
    sw = RecodeEngine(cache=DecodedBlockCache())
    for rep, plan in zip(lab.representatives(), plans):
        sw.decode_blocked(plan, matrix_id=rep.name)
    sw_cold = sw.stats.decode_mb_per_s
    sw.reset_stats()
    for rep, plan in zip(lab.representatives(), plans):
        sw.decode_blocked(plan, matrix_id=rep.name)
    sw_steady = sw.stats.decode_mb_per_s

    # Kernel-backend comparison on the Huffman stage (the decode
    # bottleneck): reference loops vs the vectorized DFA kernels.
    hf_python = huffman_stage_mb_s(plans, "python")
    hf_numpy = huffman_stage_mb_s(plans, "numpy")

    gm_speedup = geomean_ratio(udp_tputs, cpu_tputs)
    return ExperimentResult(
        exp_id=EXP_ID,
        title=TITLE,
        table=table,
        headline={
            "gm_udp_over_cpu": gm_speedup,
            "gm_udp_gbps": geomean(udp_tputs) / 1e9,
            "min_udp_gbps": min(udp_tputs) / 1e9,
            "sw_cold_mb_s": sw_cold,
            "sw_steady_mb_s": sw_steady,
            "sw_steady_over_cold": sw_steady / sw_cold if sw_cold else 0.0,
            "hf_python_mb_s": hf_python,
            "hf_numpy_mb_s": hf_numpy,
            "hf_numpy_over_python": hf_numpy / hf_python if hf_python else 0.0,
        },
        paper={
            "gm_udp_over_cpu": 3.2,  # paper: "speedups between 2x and 5x"
            "gm_udp_gbps": 20.0,  # paper: "to over 20GB/s"
        },
        notes=(
            "CPU runs Snappy-only on 32 KB blocks (its best case); UDP runs "
            "full DSH on 8 KB blocks. Shape check: every row >1x, UDP in "
            "the tens of GB/s. sw_* rows are the measured software recode "
            "engine (inline decode): cold decode vs "
            "steady-state over the decoded-block cache. hf_* rows compare "
            "the Huffman stage alone across kernel backends (reference "
            "loops vs vectorized DFA; see docs/PERFORMANCE.md). "
            + lab.engine_summary()
        ),
    )
