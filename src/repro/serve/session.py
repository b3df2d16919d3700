"""Server-side state: the resident matrix library, the shared decoded-block
cache's defaults, and per-tenant sessions.

The library holds one lazily-verified :class:`ContainerReader` per
``.dsh`` file under the serve root — pages fault in on demand and the
optional residency budget keeps each mapping O(budget) resident (PR 7),
so a library far larger than RAM stays servable. Per-matrix metadata
(container bytes, nnz) feeds the admission controller's cost model:
*estimated decode traffic*, the paper's data-movement currency.

The shared cache is the engine's
:class:`~repro.codecs.engine.DecodedBlockCache` with its **per-matrix
admission and eviction** switched on: one matrix may occupy at most
``max_matrix_frac`` of the budget, and pushing past that share evicts
that matrix's own oldest blocks first — a tenant hammering one huge
matrix cannot evict another tenant's resident working set (the
robustness headline of the serve layer, motivated by SMASH's
shared-operand serving model).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from repro.codecs.container import ContainerReader
from repro.codecs.pipeline import RECORD_HEADER_BYTES

#: Default shared-cache budget (decoded 12 B/nnz bytes).
DEFAULT_SERVE_CACHE_BYTES = 256 * 1024 * 1024
#: Default cap on one matrix's share of the shared cache.
DEFAULT_MAX_MATRIX_FRAC = 0.5


@dataclass(frozen=True)
class MatrixInfo:
    """Immutable per-matrix metadata the admission cost model reads."""

    name: str
    path: str
    container_bytes: int
    nnz: int
    nblocks: int
    shape: tuple[int, int]
    block_bytes: int
    #: Compressed record bytes that actually stream per decode, summed
    #: from the resident reader's record columns (0 = unknown, fall
    #: back to the whole-file size).
    record_bytes: int = 0
    #: Exact decoded stream bytes (per-record ``orig_len`` sums; 0 =
    #: unknown, fall back to the flat 12 B/nnz estimate).
    decoded_record_bytes: int = 0

    @property
    def decoded_bytes(self) -> int:
        """Decoded stream size: exact per-record sum when the reader's
        columns have been consulted, the flat 12 B/nnz baseline otherwise."""
        if self.decoded_record_bytes:
            return self.decoded_record_bytes
        return 12 * self.nnz

    @property
    def compressed_stream_bytes(self) -> int:
        """Compressed bytes a full decode streams: the per-record sizes
        when known, else the container file size (which also
        counts framing/tables and so over-charges small matrices)."""
        return self.record_bytes or self.container_bytes

    @property
    def bytes_per_nnz(self) -> float:
        return self.container_bytes / self.nnz if self.nnz else 0.0

    def estimated_cost_bytes(self, nrhs: int = 1) -> int:
        """Estimated data movement of one request against this matrix.

        Compressed stream in (``dram -> udp``) + decoded stream out
        (``udp -> cpu``) — paid once regardless of ``nrhs`` thanks to
        fused SpMM — plus the dense input/output vectors per RHS. Both
        stream terms come from the resident reader's per-record columns
        when available (mixed plans make per-block sizes uneven,
        so a flat estimate drifts), falling back to the flat model.
        """
        vectors = 8 * (self.shape[0] + self.shape[1]) * max(1, nrhs)
        return self.compressed_stream_bytes + self.decoded_bytes + vectors


class MatrixLibrary:
    """The set of ``.dsh`` containers a server exposes, readers held open.

    Names are file stems (``web-graph.dsh`` serves as ``web-graph``).
    Readers open lazily on first use (verify="lazy": structural walk up
    front, payload CRCs at access — corruption surfaces as the same typed
    errors the batch path raises, each record's once) and stay open for
    the server's life; with a ``residency_budget`` each mapping stays
    O(budget) resident.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        residency_budget: int | None = None,
    ):
        self.root = os.fspath(root)
        if not os.path.isdir(self.root):
            raise FileNotFoundError(f"serve root is not a directory: {self.root}")
        self.residency_budget = residency_budget
        self._paths: dict[str, str] = {}
        self._readers: dict[str, ContainerReader] = {}
        self._infos: dict[str, MatrixInfo] = {}
        self._lock = threading.Lock()
        for entry in sorted(os.listdir(self.root)):
            if entry.endswith(".dsh"):
                self._paths[entry[: -len(".dsh")]] = os.path.join(self.root, entry)
        if not self._paths:
            raise FileNotFoundError(f"no .dsh containers under {self.root}")

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._paths))

    def __contains__(self, name: str) -> bool:
        return name in self._paths

    def __len__(self) -> int:
        return len(self._paths)

    def reader(self, name: str) -> ContainerReader:
        """The (lazily opened, long-lived) reader for one matrix."""
        with self._lock:
            reader = self._readers.get(name)
            if reader is None:
                path = self._paths.get(name)
                if path is None:
                    raise KeyError(name)
                reader = ContainerReader(
                    path, verify="lazy", residency_budget=self.residency_budget
                )
                reader.enable_crc_memo()
                self._readers[name] = reader
            return reader

    def info(self, name: str) -> MatrixInfo:
        with self._lock:
            cached = self._infos.get(name)
            if cached is not None:
                return cached
        reader = self.reader(name)
        record_bytes = RECORD_HEADER_BYTES * len(reader.payload_len) + sum(reader.payload_len)
        decoded_record_bytes = sum(reader.orig_len)
        info = MatrixInfo(
            name=name,
            path=reader.path,
            container_bytes=reader.nbytes,
            nnz=reader.nnz,
            nblocks=reader.nblocks,
            shape=tuple(reader.shape),
            block_bytes=reader.block_bytes,
            record_bytes=record_bytes,
            decoded_record_bytes=decoded_record_bytes,
        )
        with self._lock:
            self._infos[name] = info
        return info

    def close(self) -> None:
        with self._lock:
            for reader in self._readers.values():
                reader.close()
            self._readers.clear()

    def __enter__(self) -> "MatrixLibrary":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class TenantSession:
    """Mutable per-tenant accounting (the ``stats`` op reports these)."""

    tenant: str
    created_at: float = field(default_factory=time.time)
    requests: int = 0
    admitted: int = 0
    shed: int = 0
    completed: int = 0
    failed: int = 0
    deadline_missed: int = 0
    degraded_requests: int = 0

    def as_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "requests": self.requests,
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "failed": self.failed,
            "deadline_missed": self.deadline_missed,
            "degraded_requests": self.degraded_requests,
        }


class TenantRegistry:
    """Thread-safe map of tenant name -> :class:`TenantSession`."""

    def __init__(self) -> None:
        self._sessions: dict[str, TenantSession] = {}
        self._lock = threading.Lock()

    def get(self, tenant: str) -> TenantSession:
        with self._lock:
            s = self._sessions.get(tenant)
            if s is None:
                s = TenantSession(tenant)
                self._sessions[tenant] = s
            return s

    def all(self) -> list[TenantSession]:
        with self._lock:
            return [self._sessions[t] for t in sorted(self._sessions)]
