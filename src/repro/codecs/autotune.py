"""Per-matrix encoding selection.

The related-work section notes that auto-tuners "pick the best [format]
for execution" per matrix; on the CPU-UDP architecture this is nearly free,
because switching format only swaps the UDP program. :func:`autotune` tries
a candidate set of whole-matrix encodings and returns the smallest plan —
the knob a deployment would actually turn.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codecs.pipeline import MatrixCompression, compress_matrix
from repro.sparse.blocked import CPU_BLOCK_BYTES, UDP_BLOCK_BYTES
from repro.sparse.csr import CSRMatrix


@dataclass(frozen=True)
class CandidateSpec:
    """One encoding candidate."""

    name: str
    block_bytes: int
    use_delta: bool
    use_huffman: bool


#: Default candidate set: the paper's production encoding plus its
#: ablations and a large-block variant.
DEFAULT_CANDIDATES: tuple[CandidateSpec, ...] = (
    CandidateSpec("dsh-8k", UDP_BLOCK_BYTES, True, True),
    CandidateSpec("delta-snappy-8k", UDP_BLOCK_BYTES, True, False),
    CandidateSpec("snappy-8k", UDP_BLOCK_BYTES, False, False),
    CandidateSpec("snappy-huffman-8k", UDP_BLOCK_BYTES, False, True),
    CandidateSpec("dsh-32k", CPU_BLOCK_BYTES, True, True),
)


@dataclass(frozen=True)
class AutotuneResult:
    """Outcome of a per-matrix tuning pass."""

    best_name: str
    best_plan: MatrixCompression
    bytes_per_nnz: dict[str, float]

    @property
    def win_over_dsh(self) -> float:
        """Bytes/nnz ratio of the default DSH encoding over the winner
        (>1 means tuning helped)."""
        dsh = self.bytes_per_nnz.get("dsh-8k")
        if dsh is None or self.best_plan.bytes_per_nnz == 0:
            return 1.0
        return dsh / self.best_plan.bytes_per_nnz


def autotune(
    matrix: CSRMatrix,
    candidates: tuple[CandidateSpec, ...] = DEFAULT_CANDIDATES,
    seed: int = 0,
) -> AutotuneResult:
    """Compress under every candidate and keep the smallest.

    Raises:
        ValueError: with an empty candidate set.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    plans: dict[str, MatrixCompression] = {}
    sizes: dict[str, float] = {}
    for cand in candidates:
        plan = compress_matrix(
            matrix,
            block_bytes=cand.block_bytes,
            use_delta=cand.use_delta,
            use_huffman=cand.use_huffman,
            seed=seed,
        )
        plans[cand.name] = plan
        sizes[cand.name] = plan.bytes_per_nnz
    best_name = min(sizes, key=sizes.__getitem__)
    return AutotuneResult(
        best_name=best_name, best_plan=plans[best_name], bytes_per_nnz=sizes
    )

