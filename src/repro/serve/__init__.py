"""repro.serve — SpMV-as-a-service: a resilient multi-tenant matrix server.

The serving layer turns the repo's recoded-SpMV executor into a daemon
(``repro serve --root <dir> --port N``) with the robustness properties a
shared accelerator front-end needs (see docs/SERVING.md):

* :mod:`~repro.serve.protocol` — newline-delimited JSON wire format with
  base64 vector payloads (bit-exact round trips);
* :mod:`~repro.serve.admission` — per-tenant token buckets + a global
  inflight-bytes budget in *estimated decode traffic*; overload sheds
  with explicit 429s, never unbounded queues;
* :mod:`~repro.serve.session` — the resident matrix library (long-lived
  lazy mmap readers) and the shared decoded-block cache with per-matrix
  admission/eviction;
* :mod:`~repro.serve.scheduler` — deadline tracking, cooperative
  cancellation, and same-matrix batch fusion into one
  :func:`~repro.core.recoded_spmm` (bit-identical per column);
* :mod:`~repro.serve.server` / :mod:`~repro.serve.client` — the asyncio
  daemon (with a Prometheus ``GET /metrics`` endpoint on the same port)
  and a pipelining client.
"""

from repro.serve.admission import (
    Admission,
    AdmissionController,
    SHED_DRAINING,
    SHED_INFLIGHT_BYTES,
    SHED_QUEUE,
    SHED_TENANT_RATE,
    TokenBucket,
)
from repro.serve.client import BlockingServeClient, ServeClient, ServeError
from repro.serve.protocol import (
    POLICIES,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    decode_array,
    encode_array,
)
from repro.serve.scheduler import FusionScheduler, WorkItem, select_batch
from repro.serve.server import MatrixServer, ServeConfig, ServerThread, run_server
from repro.serve.session import (
    MatrixInfo,
    MatrixLibrary,
    TenantRegistry,
    TenantSession,
)

__all__ = [
    "Admission",
    "AdmissionController",
    "SHED_DRAINING",
    "SHED_INFLIGHT_BYTES",
    "SHED_QUEUE",
    "SHED_TENANT_RATE",
    "TokenBucket",
    "BlockingServeClient",
    "ServeClient",
    "ServeError",
    "POLICIES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "decode_array",
    "encode_array",
    "FusionScheduler",
    "WorkItem",
    "select_batch",
    "MatrixServer",
    "ServeConfig",
    "ServerThread",
    "run_server",
    "MatrixInfo",
    "MatrixLibrary",
    "TenantRegistry",
    "TenantSession",
]
