"""Traffic accounting: who moved how many bytes to whom.

Used by the SpMV pipeline executor to check the paper's central claim in
byte terms: the compressed plan moves ~5/12ths of the baseline's DRAM
traffic for the matrix A.
"""

from __future__ import annotations

from collections import defaultdict

from repro import obs

#: ``memsys.traffic.bytes`` per edge, bound once per active registry.
_EDGE_BYTES = obs.BoundMetrics(
    lambda reg, edge: reg.counter("memsys.traffic.bytes", src=edge[0], dst=edge[1])
)


class TrafficLog:
    """Accumulates byte counts on (src, dst) edges.

    Every record also lands on the process-wide
    ``memsys.traffic.bytes{src=...,dst=...}`` counters, so the registry
    carries cross-run edge totals even though each pipeline run gets its
    own log instance.
    """

    def __init__(self) -> None:
        self._edges: dict[tuple[str, str], int] = defaultdict(int)

    def record(self, src: str, dst: str, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self._edges[(src, dst)] += nbytes
        _EDGE_BYTES[(src, dst)].inc(nbytes)

    def bytes_on(self, src: str, dst: str) -> int:
        """Total bytes moved on one edge."""
        return self._edges.get((src, dst), 0)

    def bytes_from(self, src: str) -> int:
        """Total bytes leaving ``src``."""
        return sum(v for (s, _), v in self._edges.items() if s == src)

    def bytes_into(self, dst: str) -> int:
        """Total bytes arriving at ``dst``."""
        return sum(v for (_, d), v in self._edges.items() if d == dst)

    @property
    def total_bytes(self) -> int:
        return sum(self._edges.values())

    def edges(self) -> dict[tuple[str, str], int]:
        """Snapshot of all edges."""
        return dict(self._edges)

    def clear(self) -> None:
        self._edges.clear()
