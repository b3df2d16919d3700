"""Shared experiment infrastructure: context, caching, result records."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.codecs.engine import DecodedBlockCache, RecodeEngine
from repro.codecs.pipeline import MatrixCompression, compress_matrix
from repro.collection.representative import RepresentativeEntry, representative_suite
from repro.collection.suite import SuiteConfig, SuiteEntry, build_suite
from repro.cpu.recoder import CPURecodeReport, CPURecoder
from repro.sparse.blocked import CPU_BLOCK_BYTES, UDP_BLOCK_BYTES
from repro.sparse.csr import CSRMatrix
from repro.udp.runtime import UDPDecodeReport, simulate_plan
from repro.util.tables import Table


@dataclass(frozen=True)
class ExperimentContext:
    """How heavy an experiment run should be.

    ``quick`` (the default used by tests and pytest benchmarks) uses a
    suite subset, small representative scale, and few cycle-simulated
    blocks per matrix; ``full()`` runs the whole 369-entry suite at the
    default scale. Neither changes *what* is computed, only sample sizes.
    """

    suite_count: int = 48
    suite_scale: float = 0.004
    rep_nnz: int = 40_000
    sample_blocks: int = 2
    seed: int = 2019

    @classmethod
    def quick(cls) -> "ExperimentContext":
        return cls()

    @classmethod
    def full(cls) -> "ExperimentContext":
        return cls(suite_count=369, suite_scale=0.01, rep_nnz=150_000, sample_blocks=4)


@dataclass
class ExperimentResult:
    """One reproduced figure/table.

    Attributes:
        exp_id: e.g. ``"fig10"``.
        title: what the paper's figure shows.
        table: the regenerated rows.
        headline: measured summary metrics.
        paper: the paper's reported values for the same metrics (NaN-free
            subset only; missing = not reported).
        notes: scope/substitution caveats for EXPERIMENTS.md.
    """

    exp_id: str
    title: str
    table: Table
    headline: dict[str, float]
    paper: dict[str, float]
    notes: str = ""

    def render(self) -> str:
        lines = [f"== {self.exp_id}: {self.title} ==", self.table.render(), ""]
        for key, measured in self.headline.items():
            ref = self.paper.get(key)
            ref_s = f" (paper: {ref:g})" if ref is not None else ""
            lines.append(f"  {key}: {measured:g}{ref_s}")
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)


def write_bench_artifact(artifact: dict, default_name: str, env_var: str) -> str:
    """Schema-validate ``artifact`` and write it as a ``BENCH_*.json``.

    The schema is looked up in :data:`repro.util.BENCH_SCHEMAS` by the
    artifact's ``exp_id`` — an unknown id or a shape mismatch raises
    before any file is touched, so gate fields cannot silently drift
    between writers and CI. ``env_var`` redirects the output path (the CI
    jobs use tmpdir copies); the default lands at the repo root where
    ``tests/test_bench_schemas.py`` re-validates the checked-in copy.
    """
    from repro.util import BENCH_SCHEMAS, check_schema

    check_schema(artifact, BENCH_SCHEMAS[artifact["exp_id"]], default_name)
    path = os.environ.get(env_var, default_name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


class MatrixLab:
    """Caches matrices, compression plans, and simulator reports across
    experiments (Fig. 10's plans feed Figs. 11/13/14/... unchanged)."""

    def __init__(self, ctx: ExperimentContext):
        self.ctx = ctx
        self._matrices: dict[str, CSRMatrix] = {}
        self._plans: dict[tuple[str, str], MatrixCompression] = {}
        self._udp_reports: dict[str, UDPDecodeReport] = {}
        self._cpu_reports: dict[tuple[str, str], CPURecodeReport] = {}
        self._recoder = CPURecoder()
        #: Shared software decode engine: functional decodes hit its
        #: block cache.
        self.engine = RecodeEngine(cache=DecodedBlockCache())

    # -- population ----------------------------------------------------------

    def suite_entries(self) -> tuple[SuiteEntry, ...]:
        return build_suite(
            SuiteConfig(
                count=self.ctx.suite_count,
                scale=self.ctx.suite_scale,
                seed=self.ctx.seed,
            )
        )

    def representatives(self) -> tuple[RepresentativeEntry, ...]:
        return representative_suite(seed=self.ctx.seed, target_nnz=self.ctx.rep_nnz)

    def matrix(self, name: str, builder) -> CSRMatrix:
        """Build-or-fetch a matrix by name."""
        if name not in self._matrices:
            self._matrices[name] = builder()
        return self._matrices[name]

    # -- plans ----------------------------------------------------------------

    def plan(self, name: str, matrix: CSRMatrix, scheme: str) -> MatrixCompression:
        """Build-or-fetch a compression plan.

        Schemes: ``dsh`` (UDP production), ``delta-snappy`` (Fig. 10's
        middle bar), ``cpu-snappy`` (32 KB Snappy baseline).
        """
        key = (name, scheme)
        if key not in self._plans:
            schemes = {
                "dsh": dict(block_bytes=UDP_BLOCK_BYTES, use_delta=True, use_huffman=True),
                "delta-snappy": dict(block_bytes=UDP_BLOCK_BYTES, use_delta=True, use_huffman=False),
                "cpu-snappy": dict(block_bytes=CPU_BLOCK_BYTES, use_delta=False, use_huffman=False),
            }
            if scheme not in schemes:
                raise ValueError(f"unknown scheme {scheme!r}")
            self._plans[key] = compress_matrix(matrix, seed=self.ctx.seed, **schemes[scheme])
        return self._plans[key]

    def engine_summary(self) -> str:
        """One-line engine report for runner output / EXPERIMENTS.md."""
        s = self.engine.stats
        cache = self.engine.cache.stats if self.engine.cache is not None else None
        parts = [f"blocks_decoded={s.blocks_decoded}"]
        if cache is not None:
            parts.append(f"cache_hits={cache.hits} ({cache.hit_rate:.0%})")
        if s.decode_seconds > 0:
            parts.append(f"decode={s.decode_mb_per_s:.1f} MB/s")
        return "engine: " + ", ".join(parts)

    # -- simulator reports -----------------------------------------------------

    def udp_report(self, name: str, matrix: CSRMatrix) -> UDPDecodeReport:
        """UDP decode simulation of the DSH plan (sampled)."""
        if name not in self._udp_reports:
            plan = self.plan(name, matrix, "dsh")
            self._udp_reports[name] = simulate_plan(
                plan, sample=self.ctx.sample_blocks, seed=self.ctx.seed
            )
        return self._udp_reports[name]

    def cpu_report(self, name: str, matrix: CSRMatrix, scheme: str) -> CPURecodeReport:
        """CPU decode simulation of a plan (sampled)."""
        key = (name, scheme)
        if key not in self._cpu_reports:
            plan = self.plan(name, matrix, scheme)
            self._cpu_reports[key] = self._recoder.simulate_plan(
                plan, sample=self.ctx.sample_blocks, seed=self.ctx.seed
            )
        return self._cpu_reports[key]
