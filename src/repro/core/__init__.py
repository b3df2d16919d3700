"""The paper's primary contribution: the CPU-UDP heterogeneous system model.

* :mod:`~repro.core.roofline` — memory-bandwidth-bound SpMV performance
  (paper Fig. 3: CPU SpMV saturates DRAM, so GFLOP/s = 2 x BW / 12).
* :mod:`~repro.core.hetero` — the three Fig. 14/15 scenarios: Max
  Uncompressed, Decomp(CPU)+SpMV, Decomp(UDP+CPU).
* :mod:`~repro.core.power` — Fig. 16/17 iso-performance memory power
  savings, net of UDP power.
* :mod:`~repro.core.spmv_pipeline` — the functional end-to-end executor of
  Figs. 6-7: stream compressed blocks, recode, multiply; verifies numerics
  and counts every byte of traffic.
"""

from repro.core.attach import AttachReport, on_die_udp, pcie_attached
from repro.core.executor import DEFAULT_DEPTH, RunCancelled, run_pipelined
from repro.core.hetero import HeterogeneousSystem, ScenarioResult, SpMVComparison
from repro.core.pipeline_timing import PipelineTiming, simulate_recoded_spmv_timing
from repro.core.power import PowerScenario, iso_performance_power
from repro.core.roofline import max_uncompressed_gflops, spmv_gflops, spmv_time_seconds
from repro.core.session import ExecutionSession
from repro.core.spmv_pipeline import PipelineStats, recoded_spmm, recoded_spmv

__all__ = [
    "AttachReport",
    "on_die_udp",
    "pcie_attached",
    "HeterogeneousSystem",
    "ScenarioResult",
    "SpMVComparison",
    "PowerScenario",
    "iso_performance_power",
    "PipelineTiming",
    "simulate_recoded_spmv_timing",
    "max_uncompressed_gflops",
    "spmv_gflops",
    "spmv_time_seconds",
    "ExecutionSession",
    "PipelineStats",
    "recoded_spmv",
    "recoded_spmm",
    "DEFAULT_DEPTH",
    "RunCancelled",
    "run_pipelined",
]
