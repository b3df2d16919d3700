"""Block-CSR partitioner.

The paper streams the matrix as fixed-budget blocks: the UDP decompresses
8 KB blocks (one per lane-iteration, sized to the lane scratchpad), while
the CPU Snappy baseline uses 32 KB blocks. A block covers a contiguous run
of rows whose combined index+value payload fits the byte budget; a single
row larger than the budget is split across blocks at non-zero granularity.

Each block carries two byte streams — the column-index stream (4 B/entry)
and the value stream (8 B/entry) — which are what the codecs compress
(paper Fig. 7 decompresses ``ccol_idx`` and ``cvalues`` separately).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.sparse.csr import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE

#: UDP scratchpad-sized block (paper Section V-A).
UDP_BLOCK_BYTES = 8 * 1024
#: CPU Snappy baseline block size (paper Section V-A).
CPU_BLOCK_BYTES = 32 * 1024

_BYTES_PER_ENTRY = 4 + 8  # int32 col index + float64 value


@dataclass(frozen=True)
class CSRBlock:
    """A slice of a CSR matrix covering rows [row_start, row_end).

    ``row_ptr`` is local (length ``row_end - row_start + 1``, starting at 0).
    ``nnz_start`` locates the block's first entry in the parent matrix's
    global ``col_idx``/``val`` arrays. For split rows, ``leading_partial``
    marks that the block's first row continues a row begun in the previous
    block.
    """

    row_start: int
    row_end: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    val: np.ndarray
    nnz_start: int
    leading_partial: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_ptr", np.ascontiguousarray(self.row_ptr, dtype=np.int64))
        object.__setattr__(self, "col_idx", np.ascontiguousarray(self.col_idx, dtype=INDEX_DTYPE))
        object.__setattr__(self, "val", np.ascontiguousarray(self.val, dtype=VALUE_DTYPE))
        nrows = self.row_end - self.row_start
        if nrows < 1:
            raise ValueError("block must cover at least one row")
        if self.row_ptr.shape != (nrows + 1,):
            raise ValueError("local row_ptr length must be nrows+1")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != len(self.col_idx):
            raise ValueError("local row_ptr must span the block payload")
        if len(self.col_idx) != len(self.val):
            raise ValueError("col_idx/val length mismatch")

    @property
    def nnz(self) -> int:
        return int(len(self.val))

    def row_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, seg_starts)`` for this block's non-empty rows, cached.

        ``rows`` holds the *global* indices of rows with at least one
        stored entry; ``seg_starts`` the matching ``np.add.reduceat``
        segment starts (clipped to ``nnz - 1`` so empty trailing rows
        cannot push a start past the payload). Both depend only on the
        block's structure, so they are computed once and memoized — the
        blocked SpMV/SpMM kernels used to rebuild them per block per
        iteration.
        """
        cached = self.__dict__.get("_row_segments")
        if cached is None:
            ptr = self.row_ptr
            nonempty = ptr[1:] > ptr[:-1]
            cached = (
                nonempty.nonzero()[0] + self.row_start,
                np.minimum(ptr[:-1][nonempty], max(int(ptr[-1]) - 1, 0)),
            )
            object.__setattr__(self, "_row_segments", cached)
        return cached

    def with_payload(self, col_idx: np.ndarray, val: np.ndarray) -> "CSRBlock":
        """This block's structure over another payload of the same length
        (a decode of its records): ``row_ptr`` and the memoized
        :meth:`row_segments` are shared, not rebuilt or re-validated."""
        if len(col_idx) != self.nnz:
            raise ValueError("local row_ptr must span the block payload")
        if len(val) != len(col_idx):
            raise ValueError("col_idx/val length mismatch")
        block = object.__new__(CSRBlock)
        block.__dict__.update(
            self.__dict__,
            col_idx=np.ascontiguousarray(col_idx, dtype=INDEX_DTYPE),
            val=np.ascontiguousarray(val, dtype=VALUE_DTYPE),
            _row_segments=self.row_segments(),
        )
        return block

    def index_bytes(self) -> bytes:
        """Raw little-endian column-index stream (codec input)."""
        return self.col_idx.astype("<i4").tobytes()

    def value_bytes(self) -> bytes:
        """Raw little-endian value stream (codec input)."""
        return self.val.astype("<f8").tobytes()

    def payload_bytes(self) -> int:
        """Uncompressed payload size: 12 bytes per stored entry."""
        return _BYTES_PER_ENTRY * self.nnz


@dataclass(frozen=True)
class BlockedCSR:
    """A CSR matrix partitioned into byte-budgeted row-range blocks."""

    shape: tuple[int, int]
    blocks: tuple[CSRBlock, ...]
    block_bytes: int

    @cached_property
    def nnz(self) -> int:
        return sum(b.nnz for b in self.blocks)

    @property
    def nblocks(self) -> int:
        return len(self.blocks)

    @cached_property
    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """Every block's ``(col_idx, val)`` concatenated in block order."""
        return (
            np.concatenate([b.col_idx for b in self.blocks] or [np.empty(0, INDEX_DTYPE)]),
            np.concatenate([b.val for b in self.blocks] or [np.empty(0, VALUE_DTYPE)]),
        )

    @cached_property
    def row_layout(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ptr, blk)``: every block's local ``row_ptr`` concatenated, and
        per block its offset into ``ptr``, its row count and its first row."""
        ptrs = [b.row_ptr for b in self.blocks]
        sizes = np.array([p.size for p in ptrs], np.int64)
        blk = np.column_stack((np.cumsum(sizes) - sizes, sizes - 1,
                               [b.row_start for b in self.blocks])).astype(np.int64)
        return np.concatenate([np.empty(0, np.int64), *ptrs]), blk

    def consolidated(self) -> "BlockedCSR":
        """An equal matrix whose blocks are read-only views into its
        :attr:`flat` pair, costing no memory beyond it."""
        col, val = self.flat
        col.flags.writeable = val.flags.writeable = False
        cuts = np.cumsum([b.nnz for b in self.blocks[:-1]], dtype=np.int64)
        blocks = zip(self.blocks, np.split(col, cuts), np.split(val, cuts))
        out = BlockedCSR(
            self.shape, tuple(replace(b, col_idx=c, val=v) for b, c, v in blocks), self.block_bytes
        )
        out.__dict__["flat"] = (col, val)
        return out


def partition_csr(a: CSRMatrix, block_bytes: int = UDP_BLOCK_BYTES) -> BlockedCSR:
    """Partition ``a`` into blocks whose payload is <= ``block_bytes``.

    Greedy row packing; a row whose remaining entries exceed the budget is
    split, with continuation blocks flagged ``leading_partial``. Every
    stored entry lands in exactly one block, in order.
    """
    if block_bytes < _BYTES_PER_ENTRY:
        raise ValueError(f"block_bytes must be >= {_BYTES_PER_ENTRY}")
    entries_per_block = block_bytes // _BYTES_PER_ENTRY
    blocks: list[CSRBlock] = []
    m = a.nrows
    if m == 0:
        return BlockedCSR(a.shape, (), block_bytes)

    row_nnz = np.diff(a.row_ptr)
    i = 0
    # Offset into row i already emitted (for split rows).
    row_offset = 0
    while i < m:
        start_row = i
        leading_partial = row_offset > 0
        budget = entries_per_block
        local_counts: list[int] = []
        nnz_start = int(a.row_ptr[i]) + row_offset
        while i < m and budget > 0:
            remaining = int(row_nnz[i]) - row_offset
            if remaining <= budget:
                local_counts.append(remaining)
                budget -= remaining
                i += 1
                row_offset = 0
            else:
                local_counts.append(budget)
                row_offset += budget
                budget = 0
        # If budget>0 and i==m we just ran out of rows.
        end_row = i if row_offset == 0 else i + 1
        if end_row == start_row:  # a zero-budget corner: force progress
            end_row = start_row + 1
        local_ptr = np.zeros(len(local_counts) + 1, dtype=np.int64)
        np.cumsum(local_counts, out=local_ptr[1:])
        total = int(local_ptr[-1])
        sl = slice(nnz_start, nnz_start + total)
        blocks.append(
            CSRBlock(
                row_start=start_row,
                row_end=start_row + len(local_counts),
                row_ptr=local_ptr,
                col_idx=a.col_idx[sl],
                val=a.val[sl],
                nnz_start=nnz_start,
                leading_partial=leading_partial,
            )
        )
        # Guard: all-empty trailing rows with zero entries still need blocks
        # only if they exist; the loop above consumes them (remaining==0).
    return BlockedCSR(a.shape, tuple(blocks), block_bytes)
