"""Server-side state: the resident matrix library, the shared decoded-block
cache with per-matrix admission, and per-tenant sessions.

The library holds one lazily-verified :class:`ContainerReader` per
``.dsh`` file under the serve root — pages fault in on demand and the
optional residency budget keeps each mapping O(budget) resident (PR 7),
so a library far larger than RAM stays servable. Per-matrix metadata
(container bytes, nnz) feeds the admission controller's cost model:
*estimated decode traffic*, the paper's data-movement currency.

The shared cache extends the engine's LRU with **per-matrix admission and
eviction**: one matrix may occupy at most ``max_matrix_frac`` of the
budget, and pushing past that share evicts that matrix's own oldest
blocks first — a tenant hammering one huge matrix cannot evict another
tenant's resident working set (the robustness headline of the serve
layer, motivated by SMASH's shared-operand serving model).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from repro.codecs.container import ContainerReader
from repro.codecs.engine import DecodedBlockCache
from repro.codecs.pipeline import RECORD_HEADER_BYTES
from repro.sparse.blocked import CSRBlock

#: Default shared-cache budget (decoded 12 B/nnz bytes).
DEFAULT_SERVE_CACHE_BYTES = 256 * 1024 * 1024
#: Default cap on one matrix's share of the shared cache.
DEFAULT_MAX_MATRIX_FRAC = 0.5


class SharedDecodedCache(DecodedBlockCache):
    """Server-wide decoded-block LRU with a per-matrix share cap.

    Keys follow the engine convention ``(matrix_id, block_id,
    fingerprint)``. A ``put`` that would lift the block's matrix over
    ``max_matrix_frac * max_bytes`` evicts that matrix's own LRU entries
    first; only then does the global LRU bound apply. Blocks bigger than
    the whole share are refused outright (``rejected`` counts them).
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_SERVE_CACHE_BYTES,
        max_matrix_frac: float = DEFAULT_MAX_MATRIX_FRAC,
        max_blocks: int | None = None,
    ):
        if not 0.0 < max_matrix_frac <= 1.0:
            raise ValueError(
                f"max_matrix_frac must be in (0, 1], got {max_matrix_frac}"
            )
        super().__init__(max_bytes=max_bytes, max_blocks=max_blocks)
        self.max_matrix_frac = max_matrix_frac
        self.rejected = 0
        self.matrix_evictions = 0
        self._matrix_bytes: dict[str, int] = {}

    @property
    def matrix_share_bytes(self) -> int:
        """The per-matrix byte cap."""
        return int(self.max_bytes * self.max_matrix_frac)

    def matrix_bytes(self, matrix_id: str) -> int:
        """Resident decoded bytes attributed to one matrix."""
        with self._lock:
            return self._matrix_bytes.get(matrix_id, 0)

    def _drop(self, key: tuple) -> None:
        """Remove one entry, maintaining both byte ledgers (lock held)."""
        _, nbytes = self._entries.pop(key)
        self.stats.current_bytes -= nbytes
        mid = key[0]
        left = self._matrix_bytes.get(mid, 0) - nbytes
        if left > 0:
            self._matrix_bytes[mid] = left
        else:
            self._matrix_bytes.pop(mid, None)

    def put(self, key: tuple, block: CSRBlock) -> None:
        matrix_id = key[0]
        nbytes = 12 * block.nnz
        share = self.matrix_share_bytes
        with self._lock:
            if nbytes > share:
                self.rejected += 1
                return
            if key in self._entries:
                self._drop(key)
            self._entries[key] = (block, nbytes)
            self.stats.current_bytes += nbytes
            self._matrix_bytes[matrix_id] = (
                self._matrix_bytes.get(matrix_id, 0) + nbytes
            )
            # Per-matrix eviction first: this matrix pays for its own
            # overshoot before any global pressure lands on others.
            while self._matrix_bytes.get(matrix_id, 0) > share:
                victim = next(
                    k for k in self._entries if k[0] == matrix_id
                )
                self._drop(victim)
                self.stats.evictions += 1
                self.matrix_evictions += 1
            while self._entries and (
                self.stats.current_bytes > self.max_bytes
                or (self.max_blocks is not None and len(self._entries) > self.max_blocks)
            ):
                self._drop(next(iter(self._entries)))
                self.stats.evictions += 1

    def evict_matrix(self, matrix_id: str) -> int:
        """Drop every resident block of one matrix; returns bytes freed."""
        with self._lock:
            victims = [k for k in self._entries if k[0] == matrix_id]
            freed = self._matrix_bytes.get(matrix_id, 0)
            for key in victims:
                self._drop(key)
                self.stats.evictions += 1
                self.matrix_evictions += 1
            return freed

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._matrix_bytes.clear()
            self.stats.current_bytes = 0


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
    errors the batch path raises) and stay open for the server's life;
    with a ``residency_budget`` each mapping stays O(budget) resident.
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
