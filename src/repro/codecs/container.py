"""On-disk container for compressed matrix plans (``.dsh`` files).

The architecture's whole premise is that matrices *live* in their
compressed form; this container makes that durable. Layout (little-endian):

.. code-block:: text

    magic   8s   b"RPRODSH2"
    flags   u8   bit0 = delta, bit1 = huffman / index table,
                 bit2 = tagged records, bit3 = value table (tagged only)
    u32     block_bytes
    u32     nrows, u32 ncols, u32 nblocks
    u64     nnz
    [tables]  256 B index lengths iff bit1, 256 B value lengths iff
              bit3 (tagged) / bit1 (legacy: both tables or neither)
    u32     crc32 of everything from magic through the tables (header CRC)
    per block:
      u32 row_start, u32 row_end, u8 leading_partial, u64 nnz_start
      u32 x (row_end - row_start + 1)   local row_ptr
      u32 crc32 of the block meta above (meta CRC)
      2 records (index, value):
        [u8 codec tag]  only when flags bit2 (tagged) is set
        u32 orig_len, u32 snappy_len, u32 bit_len, u32 payload_len,
        u32 crc32(tag byte if tagged + record header + payload),
        payload bytes
    u32     crc32 of every preceding byte (stream trailer)

Untagged containers (flags bit2 clear) are the legacy layout, bit-for-bit:
every record follows the header's delta/huffman flags. Tagged containers
(mixed plans) prefix every record with a one-byte codec tag — an OR of
``STAGE_DELTA``/``STAGE_SNAPPY``/``STAGE_HUFFMAN`` naming exactly the
stages that record's payload went through — covered by the record CRC so a
flipped tag is caught before it can misroute a decoder. Tagged containers
also persist each side's Huffman table independently (bit1 index, bit3
value): a stream side whose records are all huffman-free drops its
256-byte table from the file. Bit3 without bit2, or a huffman-tagged
record in a container missing its side's table, is rejected as
corruption.

Corruption is detected in layers, every layer raising a typed
:class:`~repro.codecs.errors.ContainerError` (a ``CodecError``, which
subclasses ``ValueError``):

* the stream trailer CRC rejects any byte flip or truncation up front;
* every region carries a local CRC — the header (flags, shape, tables),
  each block's row metadata, and each record (header *and* payload) — so a
  single flipped byte is caught even if the trailer were recomputed to
  match, and a bad stream never reaches a decoder;
* the parser validates structure independently of every CRC — block row
  ranges must chain contiguously and cover ``nrows``, local ``row_ptr``
  must be monotone and fit the block's byte budget, record ``orig_len``
  must match the row_ptr entry count, and decoded column indices must fall
  inside ``ncols`` — so even a wholly forged stream cannot make the
  loader allocate unbounded memory or return silently wrong data.
"""

from __future__ import annotations

import io
import mmap
import os
import struct
import zlib
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import accumulate
from os import PathLike

import numpy as np

from repro.codecs.errors import (
    CodecError,
    ContainerError,
    TruncatedContainerError,
)
from repro.codecs.huffman import HuffmanTable
from repro.codecs.pipeline import (
    RECORD_HEADER_BYTES,
    STAGE_HUFFMAN,
    STAGE_SNAPPY,
    STAGE_TAGGED,
    TAG_MASK,
    BlockRecord,
    MatrixCompression,
    decode_record,
    record_stages,
)
from repro.sparse.blocked import BlockedCSR, CSRBlock
from repro.sparse.csr import CSRMatrix
from repro import faults

MAGIC = b"RPRODSH2"

_FLAG_DELTA = 1
_FLAG_HUFFMAN = 2
_FLAG_TAGGED = 4
#: Tagged containers carry tables per stream side: ``_FLAG_HUFFMAN`` means
#: the *index* table is present and ``_FLAG_VTABLE`` the *value* table —
#: a mixed plan that huffmans only one side doesn't pay for the other
#: side's 256-byte table. Untagged (legacy) containers keep the original
#: all-or-nothing meaning of ``_FLAG_HUFFMAN``; ``_FLAG_VTABLE`` is only
#: valid alongside ``_FLAG_TAGGED``.
_FLAG_VTABLE = 8

#: Upper bound accepted for the per-block byte budget: real plans use 8 KB
#: (UDP) or 32 KB (CPU); anything above this is a corrupt header, and the
#: cap keeps a forged budget from licensing huge per-block allocations.
MAX_BLOCK_BYTES = 1 << 30


def _write_record(out: io.BufferedIOBase, record: BlockRecord, tagged: bool) -> None:
    header = struct.pack(
        "<IIII",
        record.orig_len,
        record.snappy_len,
        record.bit_len,
        len(record.payload),
    )
    if tagged:
        # The tag byte rides under the record CRC: a flipped tag fails the
        # CRC check instead of silently rerouting the decoder.
        header = struct.pack("<B", record.tag) + header
    out.write(header)
    out.write(struct.pack("<I", zlib.crc32(record.payload, zlib.crc32(header))))
    out.write(record.payload)


def _plan_tagged(plan: MatrixCompression) -> bool:
    """Whether a plan serializes with per-record codec tags.

    All-or-nothing: a plan whose records mix tagged and untagged entries
    has no consistent wire form and is rejected.
    """
    tags = [r.tag for r in plan.index_records] + [r.tag for r in plan.value_records]
    if not tags:
        return False
    n_tagged = sum(1 for t in tags if t is not None)
    if n_tagged == 0:
        return False
    if n_tagged != len(tags):
        raise ValueError(
            "cannot serialize a plan mixing tagged and untagged records"
        )
    return True


def save_plan(plan: MatrixCompression, dest: str | PathLike | io.BufferedIOBase) -> None:
    """Serialize a plan to a ``.dsh`` container (stream-CRC trailed)."""
    if isinstance(dest, (str, PathLike)):
        with open(dest, "wb") as fh:
            save_plan(plan, fh)
            return
    buf = io.BytesIO()
    buf.write(MAGIC)
    tagged = _plan_tagged(plan)
    flags = _FLAG_DELTA if plan.use_delta else 0
    if tagged:
        # Tables travel per stream side: pay only for the sides that
        # actually huffman (table amortization is the point of a mixed
        # plan on small matrices).
        has_itab = plan.index_table is not None
        has_vtab = plan.value_table is not None
        for rec, present in (
            *((r, has_itab) for r in plan.index_records),
            *((r, has_vtab) for r in plan.value_records),
        ):
            if rec.tag & STAGE_HUFFMAN and not present:
                raise ValueError(
                    "cannot serialize huffman-tagged records without tables"
                )
        flags |= _FLAG_TAGGED
        flags |= _FLAG_HUFFMAN if has_itab else 0
        flags |= _FLAG_VTABLE if has_vtab else 0
    else:
        # A blockless plan has nothing to Huffman-decode, hence no tables.
        has_itab = has_vtab = plan.use_huffman and plan.nblocks > 0
        if has_itab and (plan.index_table is None or plan.value_table is None):
            raise ValueError("cannot serialize huffman records without tables")
        flags |= _FLAG_HUFFMAN if has_itab else 0
    m, n = plan.blocked.shape
    buf.write(struct.pack("<BIIIIQ", flags, plan.block_bytes, m, n, plan.nblocks, plan.nnz))
    if has_itab:
        buf.write(plan.index_table.serialize())
    if has_vtab:
        buf.write(plan.value_table.serialize())
    buf.write(struct.pack("<I", zlib.crc32(buf.getvalue())))
    for block, irec, vrec in zip(
        plan.blocked.blocks, plan.index_records, plan.value_records
    ):
        meta = struct.pack(
            "<IIBQ", block.row_start, block.row_end, int(block.leading_partial),
            block.nnz_start,
        ) + block.row_ptr.astype("<u4").tobytes()
        buf.write(meta)
        buf.write(struct.pack("<I", zlib.crc32(meta)))
        _write_record(buf, irec, tagged)
        _write_record(buf, vrec, tagged)
    body = buf.getvalue()
    dest.write(body)
    dest.write(struct.pack("<I", zlib.crc32(body)))


def load_plan(source: str | PathLike | io.BufferedIOBase | bytes) -> MatrixCompression:
    """Load a container and reconstruct a fully-functional plan.

    Blocks are decompressed once at load to rebuild the in-memory
    :class:`~repro.sparse.blocked.BlockedCSR` (so SpMV and re-verification
    work immediately); the records themselves are kept verbatim.

    Raises:
        ContainerError: bad magic, CRC mismatch, or inconsistent structure
            (:class:`TruncatedContainerError` when the stream ends early).
    """
    if isinstance(source, (str, PathLike)):
        with open(source, "rb") as fh:
            return load_plan(fh.read())
    if not isinstance(source, bytes):
        source = source.read()
    fault_plan = faults.active()
    if fault_plan is not None:
        source = fault_plan.mutate_container(source)
    return ContainerReader(memoryview(source), verify="eager").materialize()


# ---------------------------------------------------------------------------
# Format parsing, shared by the strict reader and the tolerant scrubber.
# The helpers only frame: they return fields and positions and check
# nothing, so each caller applies its own policy (raise, or report).
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<BIIIIQ")
_META = struct.Struct("<IIBQ")
_RECORD = struct.Struct("<IIIII")  # orig, snappy, bit, payload lengths; CRC
_TAGGED_RECORD = struct.Struct("<BIIIII")  # the codec tag, then as above
_U32 = struct.Struct("<I")
_NNZ_CRC = struct.Struct("<II")  # a block's last row_ptr entry, then its meta CRC
_TABLE_POS = len(MAGIC) + _HEADER.size

#: Any untagged record: :func:`record_stages` gives it the plan's stages.
_UNTAGGED = BlockRecord(0, 0, 0, b"")

#: Record columns hold both streams interleaved: block ``k``'s index record
#: at ``2 * k``, its value record at ``2 * k + 1``.
_STREAM_SLOT = {"index": 0, "value": 1}


def _frame_header(data: memoryview) -> tuple:
    """Parse the fixed header: ``(flags, block_bytes, nrows, ncols,
    nblocks, nnz, tables, crc_pos)``. ``tables`` says which stream sides
    (index, value) carry a Huffman table; ``crc_pos`` is the offset of the
    header CRC, right after them. ``struct.error`` on a stream shorter
    than the fixed header."""
    flags, *fields = _HEADER.unpack_from(data, len(MAGIC))
    has_itab = bool(flags & _FLAG_HUFFMAN)
    tables = (has_itab, bool(flags & _FLAG_VTABLE) if flags & _FLAG_TAGGED else has_itab)
    return (flags, *fields, tables, _TABLE_POS + 256 * sum(tables))


def _read_table(data: memoryview, tables: tuple[bool, bool], slot: int) -> HuffmanTable | None:
    """Stream ``slot``'s Huffman table, ``None`` when the header has none
    (a :class:`CodecError` when the stored table is malformed)."""
    if not tables[slot]:
        return None
    pos = _TABLE_POS + 256 * (slot and tables[0])
    return HuffmanTable.deserialize(bytes(data[pos : pos + 256]))


def _crc_ok(data: memoryview, start: int, crc_pos: int) -> bool:
    """Whether ``data[start:crc_pos]`` matches the CRC stored at ``crc_pos``."""
    return zlib.crc32(data[start:crc_pos]) == _U32.unpack_from(data, crc_pos)[0]


def _frame_block(data: memoryview, pos: int, tagged: bool) -> tuple:
    """Frame the block whose meta starts at ``pos``.

    Returns ``(row_start, row_end, leading_partial, nnz_start, crc_pos,
    records)``: the meta fields, the offset of the meta CRC (the local
    row_ptr spans ``[pos + _META.size, crc_pos)``), and the frames of the
    index then the value record, each ``(offset, tag, orig_len,
    snappy_len, bit_len, payload_len, crc, payload_offset)``. ``records``
    stops short where a record header would run past the end of ``data``
    (or the row range is empty); only the fixed meta raises
    ``struct.error``.
    """
    row_start, row_end, leading, nnz_start = _META.unpack_from(data, pos)
    crc_pos = pos + _META.size + 4 * (row_end - row_start + 1)
    header = _TAGGED_RECORD if tagged else _RECORD
    records = []
    rpos = crc_pos + 4
    while len(records) < 2 and row_end > row_start and rpos + header.size <= len(data):
        fields = header.unpack_from(data, rpos)
        if not tagged:
            fields = (None, *fields)
        payload_pos = rpos + header.size
        records.append((rpos, *fields, payload_pos))
        rpos = payload_pos + fields[4]
    return row_start, row_end, leading, nnz_start, crc_pos, records


def _row_index(row_ptrs: list[bytes], row_starts: Sequence[int] | None) -> tuple | None:
    """One numpy pass over every block's raw ``<u4`` row_ptr (each known to
    start at 0) that raises the walk's monotone error if one decreases.
    Given each block's first global row, it also returns ``(row_ptr,
    ptr_ends, rows, seg_starts, seg_ends)``: block ``k``'s int64 row_ptr
    and :meth:`CSRBlock.row_segments` are the ``[ptr_ends[k-1],
    ptr_ends[k])`` and ``[seg_ends[k-1], seg_ends[k])`` slices."""
    flat = np.frombuffer(b"".join(row_ptrs), "<u4").astype(np.int64)
    lens = [len(p) // 4 for p in row_ptrs]
    ptr_ends = list(accumulate(lens))
    steps = flat[1:] - flat[:-1]
    # Where one block's row_ptr meets the next, the step is no row.
    steps[[e - 1 for e in ptr_ends[:-1]]] = 0
    if steps.size and steps.min() < 0:
        raise ContainerError("container corruption: row_ptr not monotone from 0")
    if row_starts is None:
        return None
    # A non-empty row's segment starts at its row_ptr entry, which
    # monotony keeps below the block's nnz: no clipping needed. The
    # arrays are tiny, so the per-block bookkeeping is in Python.
    nonempty = steps.nonzero()[0]
    seg_ends = nonempty.searchsorted(ptr_ends).tolist()
    shift = np.array([r - e + n for r, e, n in zip(row_starts, ptr_ends, lens)], np.int64)
    rows = nonempty + shift.repeat([b - a for a, b in zip([0, *seg_ends], seg_ends)])
    return flat, ptr_ends, rows, flat[nonempty], seg_ends


# ---------------------------------------------------------------------------
# Lazily-addressable container access (``ContainerReader``)
# ---------------------------------------------------------------------------

#: Page size used for the ``pages_touched`` accounting (fixed, not the
#: host's, so the metric is comparable across machines).
PAGE_BYTES = 4096

#: How many materialized records each lazy record sequence memoizes. The
#: window only needs to outlive one block's stream→compare→decode span;
#: keeping it small is what bounds resident payload bytes to O(depth × block).
_LAZY_RECORD_MEMO = 32


def _page_span(start: int, end: int) -> int:
    """Number of PAGE_BYTES pages the byte range [start, end) touches."""
    if end <= start:
        return 0
    return (end - 1) // PAGE_BYTES - start // PAGE_BYTES + 1


class _LazyRecords(Sequence):
    """Sequence view over one stream's records, materialized on access.

    ``__getitem__`` slices header+payload out of the reader's mapping via
    the reader's record columns and verifies the record CRC — so a lazy
    reader raises the exact same record-layer errors eager loading would,
    just at access time. A small LRU memo keeps the *same object* coming
    back for repeated accesses within a working window (the executor
    compares streamed records by identity to detect DRAM-side faults)
    without retaining every payload.
    """

    def __init__(self, reader: "ContainerReader", stream: str):
        self.reader = reader  # a DecodeRun reads spans in place through it
        self._stream = stream
        # ``None``: read in place (check()), not yet materialized.
        self._memo: OrderedDict[int, BlockRecord | None] = OrderedDict()

    def __len__(self) -> int:
        return self.reader.nblocks

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        memo = self._memo
        if i in memo:
            memo.move_to_end(i)
            rec = memo[i]
            if rec is None:  # read in place by check(): copied out, not counted again
                rec = memo[i] = self.reader.record(i, self._stream, counted=False)
            return rec
        rec = self.reader.record(i, self._stream)
        self._remember(i, rec)
        return rec

    def check(self, i: int, release: bool = True) -> bool:
        """Read record ``i`` in place where :meth:`__getitem__` would read
        it, and remember that it was; ``False`` when it fails its check."""
        if i in self._memo:
            self._memo.move_to_end(i)
            return True
        if not self.reader.check(i, self._stream, release):
            return False
        self._remember(i, None)
        return True

    def _remember(self, i: int, rec: BlockRecord | None) -> None:
        self._memo[i] = rec
        while len(self._memo) > _LAZY_RECORD_MEMO:
            self._memo.popitem(last=False)

    def stored_sizes(self) -> np.ndarray:
        """Each record's stored bytes, from the columns: no payload read."""
        lengths = self.reader.payload_len[_STREAM_SLOT[self._stream] :: 2]
        return RECORD_HEADER_BYTES + np.array(lengths, dtype=np.int64)

    def __reduce__(self):
        # The mmap behind this view cannot cross a process boundary, so a
        # pickled plan ships materialized records instead (loses laziness,
        # keeps correctness).
        return (tuple, (tuple(self),))


class ContainerReader:
    """Lazily-addressable view of a ``.dsh`` container.

    Maps the file with ``mmap`` (or wraps an in-memory buffer) and walks
    the block metadata once into columns, without materializing payload
    bytes. Per record (``2 * nblocks`` entries, block ``k``'s index record
    at ``2k`` and its value record at ``2k + 1``): ``record_offset`` (the
    first byte on the wire: the codec tag in tagged containers, else the
    record header), ``payload_offset``, ``payload_len``, ``orig_len``,
    ``snappy_len``, ``bit_len``, ``record_crc`` and ``record_tag``. Per
    block: ``block_offset`` (its meta), ``row_start``, ``row_end``,
    ``leading_partial`` and ``nnz_start``.

    Structural validation — magic, header fields and CRC, table
    deserialization, block row-range chaining, row_ptr monotonicity, byte
    budgets, nnz chaining, record framing and truncation, row coverage,
    trailing bytes — always runs at construction, with the exact error
    types and messages of :func:`load_plan`. What ``verify`` controls is
    the CRC layers over *payload bytes*:

    * ``verify="eager"`` — the stream trailer CRC is checked up front and
      every record CRC is checked during the walk, reproducing
      :func:`load_plan`'s behavior (and check *order*) exactly.
    * ``verify="lazy"`` — the trailer check is skipped (call
      :meth:`verify_stream` to run it on demand) and record CRCs are
      checked when a record is materialized by :meth:`record`, raising the
      identical ``ContainerError("container corruption: record CRC
      mismatch")`` eager loading would have raised.

    Unlike :func:`load_plan`, the reader never routes the stream through
    the container-site fault hook (mutating the whole stream would defeat
    the zero-copy mapping); record-site and DRAM-site fault injection still
    apply downstream, and file-level corruption tests simply corrupt the
    file. Decode-layer checks (column bounds, header-nnz agreement) happen
    where decode happens: at :meth:`materialize` for eager loads, in the
    executor for streamed runs.
    """

    def __init__(
        self,
        source: "str | PathLike | bytes | bytearray | memoryview | io.BufferedIOBase",
        *,
        verify: str = "eager",
        residency_budget: int | None = None,
    ):
        if verify not in ("eager", "lazy"):
            raise ValueError(f"verify must be 'eager' or 'lazy', got {verify!r}")
        if residency_budget is not None and residency_budget < PAGE_BYTES:
            raise ValueError(
                f"residency_budget must be >= {PAGE_BYTES} bytes, got {residency_budget}"
            )
        self.verify = verify
        self.residency_budget = residency_budget
        self._release_frontier = 0
        self.path: str | None = None
        self._file = None
        self._mm = None
        self._buf = None
        self._closed = False
        self.pages_touched = 0
        self._crc_memo: dict[tuple[int, str], int] | None = None
        self.crc_skips = 0
        if isinstance(source, (str, PathLike)):
            self.path = os.fspath(source)
            self._file = open(self.path, "rb")
            try:
                self._mm = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError:
                # Zero-length files cannot be mapped; an empty buffer walks
                # to the same TruncatedContainerError load_plan raises.
                self._buf = self._file.read()
        elif isinstance(source, (bytes, bytearray, memoryview)):
            self._buf = source
        elif hasattr(source, "read"):
            self._buf = source.read()
        else:
            raise TypeError(f"unsupported container source: {type(source).__name__}")
        self._data = memoryview(self._mm if self._mm is not None else self._buf)
        self._plan: MatrixCompression | None = None
        try:
            self._walk()
        except struct.error as exc:
            self.close()
            raise TruncatedContainerError(f"truncated container: {exc}") from exc
        except Exception:
            self.close()
            raise
        if self.residency_budget is not None and self._mm is not None:
            # The walk released pages behind its cursor as it went; drop the
            # final in-budget window too, and rewind the release frontier so
            # record streaming (which restarts at the file head) can release
            # behind its own cursor.
            try:
                self._mm.madvise(mmap.MADV_DONTNEED)
            except (AttributeError, ValueError, OSError):  # pragma: no cover
                pass
            self._release_frontier = 0

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release the mapping and file handle (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.__dict__.pop("_rows", None)
        data = self.__dict__.pop("_data", None)
        if data is not None:
            data.release()
        if self._mm is not None:
            self._mm.close()
            self._mm = None
        if self._file is not None:
            self._file.close()
            self._file = None
        self._buf = None

    def __enter__(self) -> "ContainerReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    @property
    def _view(self) -> memoryview:
        if self._closed:
            raise ValueError("ContainerReader is closed")
        return self._data

    # -- structural walk ----------------------------------------------------

    def _walk(self) -> None:
        data = self._data
        size = len(data)
        if size < len(MAGIC) + 4:
            raise TruncatedContainerError(
                "truncated container: shorter than magic + trailer"
            )
        if bytes(data[:8]) != MAGIC:
            raise ContainerError("not a repro DSH container (bad magic)")
        if self.verify == "eager":
            self.verify_stream()
        end = size - 4
        flags, block_bytes, m, n, nblocks, nnz, tables, crc_pos = _frame_header(data)
        tagged = bool(flags & _FLAG_TAGGED)
        if flags & _FLAG_VTABLE and not tagged:
            raise ContainerError(
                "container corruption: value-table flag without codec tags"
            )
        if not 12 <= block_bytes <= MAX_BLOCK_BYTES:
            raise ContainerError(
                f"container corruption: implausible block_bytes {block_bytes}"
            )
        if nblocks == 0 and (m or nnz):
            raise ContainerError("container corruption: blockless container with rows/nnz")
        if crc_pos > _TABLE_POS and crc_pos + 4 > end:
            raise TruncatedContainerError("truncated container: huffman tables")
        # Header CRC is verified before the tables are even deserialized, so
        # a corrupt length byte can never reach the table constructor.
        if not _crc_ok(data, 0, crc_pos):
            raise ContainerError("container corruption: header CRC mismatch")
        self.index_table = _read_table(data, tables, 0)
        self.value_table = _read_table(data, tables, 1)
        self.shape = (m, n)
        self.nrows, self.ncols, self.nblocks, self.nnz = m, n, nblocks, nnz
        self.block_bytes = block_bytes
        self.use_delta = bool(flags & _FLAG_DELTA)
        self.use_huffman = any(tables)

        eager = self.verify == "eager"
        entries_cap = block_bytes // 12
        blocks: list[tuple] = []
        records: list[tuple] = []
        row_ptrs: list[bytes] = []
        pos = crc_pos + 4
        prev_row_end = 0
        running_nnz = 0
        try:
            for _ in range(nblocks):
                row_start, row_end, leading, nnz_start, crc_pos, frames = _frame_block(
                    data, pos, tagged
                )
                if row_end <= row_start:
                    raise ContainerError("container corruption: empty block row range")
                if row_end > m:
                    raise ContainerError("container corruption: block rows beyond nrows")
                # Blocks must chain contiguously: a continuation block
                # re-opens the previous block's last row (so cannot come
                # first), anything else starts right after it.
                if row_start != (prev_row_end - 1 if leading else prev_row_end):
                    raise ContainerError("container corruption: block row ranges do not chain")
                prev_row_end = row_end
                if crc_pos + 4 > end:
                    raise TruncatedContainerError("truncated container: row_ptr")
                block_nnz, meta_crc = _NNZ_CRC.unpack_from(data, crc_pos - 4)
                if zlib.crc32(data[pos:crc_pos]) != meta_crc:
                    raise ContainerError("container corruption: block meta CRC mismatch")
                # The row_ptr is copied out here and checked for monotony
                # after the loop, in one numpy pass over every block.
                row_ptrs.append(bytes(data[pos + _META.size : crc_pos]))
                if row_ptrs[-1][:4] != b"\0\0\0\0":
                    raise ContainerError("container corruption: row_ptr not monotone from 0")
                if block_nnz > entries_cap:
                    raise ContainerError("container corruption: block exceeds its byte budget")
                if nnz_start != running_nnz:
                    raise ContainerError("container corruption: nnz_start does not chain")
                running_nnz += block_nnz
                for slot in (0, 1):
                    if slot == len(frames):
                        raise TruncatedContainerError("truncated container: record header")
                    offset, tag, orig_len, snappy_len, _, payload_len, crc, payload_pos = (
                        frames[slot]
                    )
                    if tag is not None:
                        if tag > TAG_MASK:
                            raise ContainerError("container corruption: invalid codec tag")
                        if (tag & STAGE_HUFFMAN) and not tables[slot]:
                            raise ContainerError(
                                "container corruption: huffman codec tag without tables"
                            )
                        if not (tag & STAGE_SNAPPY) and snappy_len != orig_len:
                            raise ContainerError(
                                "container corruption: snappy-less record lengths disagree"
                            )
                    record_end = payload_pos + payload_len
                    if record_end > size:
                        raise TruncatedContainerError("truncated container: record payload")
                    if eager and zlib.crc32(
                        data[payload_pos:record_end], zlib.crc32(data[offset : payload_pos - 4])
                    ) != crc:
                        raise ContainerError("container corruption: record CRC mismatch")
                if frames[0][2] != 4 * block_nnz or frames[1][2] != 8 * block_nnz:
                    raise ContainerError(
                        "container corruption: record lengths disagree with row_ptr"
                    )
                blocks.append((pos, row_start, row_end, bool(leading), nnz_start))
                records.extend(frames)
                pos = record_end
                # The walk itself faults in meta pages across the whole
                # file; under a residency budget, release behind the cursor
                # as we go so even construction peaks at O(budget). Safe:
                # the row_ptr was copied out of the mapping above.
                self._maybe_release(pos)
        except (ContainerError, struct.error):
            _row_index(row_ptrs, None)  # a non-monotone earlier block wins
            raise
        (self.block_offset, self.row_start, self.row_end, self.leading_partial,
         self.nnz_start) = zip(*blocks) if blocks else ((),) * 5
        self._structure = _row_index(row_ptrs, self.row_start)
        if nblocks and prev_row_end != m:
            raise ContainerError("container corruption: blocks do not cover all rows")
        if pos != end:
            raise ContainerError("container corruption: trailing bytes after last block")
        (self.record_offset, self.record_tag, self.orig_len, self.snappy_len,
         self.bit_len, self.payload_len, self.record_crc,
         self.payload_offset) = zip(*records) if records else ((),) * 8

    # -- accessors ----------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total mapped (or buffered) container size in bytes."""
        return len(self._view)

    def verify_stream(self) -> None:
        """Check the stream-trailer CRC (reads the whole mapping once).

        Runs automatically at construction under ``verify="eager"``; under
        ``verify="lazy"`` call it explicitly when a full-stream check is
        worth a sequential pass.
        """
        data = self._view
        if not _crc_ok(data, 0, len(data) - 4):
            raise ContainerError("container corruption: stream CRC mismatch")

    def enable_crc_memo(self) -> None:
        """Opt in to verified-once record CRCs.

        After a record's CRC passes once, later materializations of the
        same ``(block, stream)`` skip both the record-CRC check and the
        payload-CRC restamp (the memoized payload CRC is reused), so
        steady-state iteration over an immutable container pays the
        verification cost exactly once per record. First-touch semantics
        are unchanged — corruption present before the first access raises
        identically — and :func:`scrub_container` always re-checks.
        Off by default; :class:`~repro.core.session.ExecutionSession`
        enables it on its long-lived reader.
        """
        if self._crc_memo is None:
            self._crc_memo = {}

    def record(
        self, block_id: "int | slice", stream: str, *, counted: bool = True
    ) -> "BlockRecord | np.ndarray":
        """Materialize one record, verifying its CRC at access time.

        Raises the identical errors eager loading raises for the same
        corruption: ``TruncatedContainerError("truncated container: record
        payload")`` if the mapping no longer covers the payload, and
        ``ContainerError("container corruption: record CRC mismatch")`` on
        a CRC failure. With :meth:`enable_crc_memo`, accesses after the
        first verified one skip the redundant CRC passes. ``counted=False``
        copies a record out without checking or counting it.

        A slice of block ids reads that stream's records in place instead:
        an ``int64`` row each, as ``dsh_decode_span`` takes it (payload
        address in the mapping, payload_len, snappy_len, stages,
        orig_len), nothing checked or counted.

        Read in place, a record is CRC'd once, by :meth:`check`: that
        catches media damage as a typed :class:`ContainerError`, and the
        decoder reads the very bytes checked. A materialized record (one
        an armed :class:`~repro.faults.FaultPlan` may fault) is CRC'd here,
        and the ``payload_crc`` stamped here is what a record-site or
        DRAM-site fault, which mutates the streamed copy, leaves stale: the
        decoder's check of that stamp catches the fault.
        """
        slot = _STREAM_SLOT.get(stream)
        if slot is None:
            raise ValueError(f"stream must be 'index' or 'value', got {stream!r}")
        if isinstance(block_id, slice):
            self._view  # a closed reader's rows address an unmapped range
            return self._span_rows()[slot][block_id]
        r = 2 * block_id + slot
        payload = bytes(self._view[self.payload_offset[r] : self.payload_offset[r]
                                   + self.payload_len[r]])
        if len(payload) != self.payload_len[r]:
            raise TruncatedContainerError("truncated container: record payload")
        if counted and not self.check(block_id, stream):
            raise ContainerError("container corruption: record CRC mismatch")
        memo = self._crc_memo
        payload_crc = memo.get((block_id, stream)) if memo is not None else None
        return BlockRecord(
            self.orig_len[r],
            self.snappy_len[r],
            self.bit_len[r],
            payload,
            payload_crc=zlib.crc32(payload) if payload_crc is None else payload_crc,
            tag=self.record_tag[r],
        )

    def check(self, block_id: int, stream: str, release: bool = True) -> bool:
        """Verify one record in place and count it as read, as :meth:`record`
        does, without copying it; ``False`` (nothing counted) where
        :meth:`record` would raise. ``release=False`` leaves the pages
        behind it mapped, for a caller that reads them after the check
        (:meth:`release_behind` then releases them)."""
        r = 2 * block_id + _STREAM_SLOT[stream]
        offset, payload_pos = self.record_offset[r], self.payload_offset[r]
        end = payload_pos + self.payload_len[r]
        memo = self._crc_memo
        if memo is not None and (block_id, stream) in memo:
            self.crc_skips += 1
        else:
            data = self._view
            payload = data[payload_pos:end]
            if len(payload) != end - payload_pos or zlib.crc32(
                payload, zlib.crc32(data[offset : payload_pos - 4])
            ) != self.record_crc[r]:
                return False
            if memo is not None:
                memo[(block_id, stream)] = zlib.crc32(payload)
        self.pages_touched += _page_span(offset, end)
        if release:
            self._maybe_release(offset)
        return True

    def release_behind(self, block_id: int) -> None:
        """Release the mapping behind block ``block_id``'s records, as
        checking them would have."""
        self._maybe_release(self.record_offset[2 * block_id + 1])

    def _span_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Per stream, every record's ``dsh_decode_span`` row, built once.
        The numpy view that gives the mapping's address is dropped at once:
        no export of the mapping outlives this call."""
        rows = self.__dict__.get("_rows")
        if rows is None:
            if self.record_tag[:1] == (None,):  # untagged: the plan's stages
                stages = [record_stages(_UNTAGGED, self.use_huffman, delta)
                          for delta in (self.use_delta, False)] * self.nblocks
            else:
                stages = [tag & TAG_MASK | STAGE_TAGGED for tag in self.record_tag]
            cols = np.array([self.payload_offset, self.payload_len, self.snappy_len, stages,
                             self.orig_len], np.int64).reshape(5, -1, 2)
            cols[0] += np.frombuffer(self._view, np.uint8).ctypes.data
            self._rows = rows = (cols[:, :, 0].T.copy(), cols[:, :, 1].T.copy())
        return rows

    def _maybe_release(self, current_offset: int) -> None:
        """Drop mapped pages that fell more than ``residency_budget`` bytes
        behind the access cursor.

        The cursor is the record last checked (on a fused run, which
        checks a span before reading it, the last record read). Pages
        behind it hold nothing live: materialized records are copied out,
        and a span decode has read its payloads by then. A span decode
        reads up to :data:`~repro.codecs.pipeline.SPAN` blocks' payloads
        ahead of the cursor, so for the sequential block-order access of a
        streaming run peak mapped residency is ``residency_budget`` plus
        one span's payload bytes, no matter the container size. Released
        pages simply re-fault from the file if revisited.
        """
        if self.residency_budget is None or self._mm is None:
            return
        target = (
            (current_offset - self.residency_budget) // PAGE_BYTES
        ) * PAGE_BYTES
        if target <= self._release_frontier:
            return
        try:
            self._mm.madvise(
                mmap.MADV_DONTNEED, self._release_frontier, target - self._release_frontier
            )
        except (AttributeError, ValueError, OSError):  # pragma: no cover
            return
        self._release_frontier = target

    def shell_blocks(self) -> tuple[CSRBlock, ...]:
        """Structure-only CSR blocks: real row metadata, zero payloads.

        The payloads are read-only views of one zero buffer, so a shell of
        a multi-GB matrix costs O(rows), not O(nnz). Each shell's
        ``row_ptr`` and row segments are slices of the walk's flat arrays,
        which decoded blocks then share (:meth:`CSRBlock.with_payload`);
        like that method, shells skip ``CSRBlock`` re-validation.
        """
        row_ptr, ptr_ends, rows, seg_starts, seg_ends = self._structure
        nnzs = [n // 4 for n in self.orig_len[::2]]
        widest = max(nnzs, default=0)
        col_zeros, val_zeros = np.zeros(widest, np.int32), np.zeros(widest, np.float64)
        col_zeros.flags.writeable = val_zeros.flags.writeable = False
        shells = []
        ptr_start = seg_start = 0
        for row_start, row_end, leading, nnz_start, nnz, ptr_end, seg_end in zip(
            self.row_start, self.row_end, self.leading_partial, self.nnz_start, nnzs,
            ptr_ends, seg_ends,
        ):
            shell = object.__new__(CSRBlock)
            shell.__dict__.update(
                row_start=row_start,
                row_end=row_end,
                row_ptr=row_ptr[ptr_start:ptr_end],
                col_idx=col_zeros[:nnz],
                val=val_zeros[:nnz],
                nnz_start=nnz_start,
                leading_partial=leading,
                _row_segments=(rows[seg_start:seg_end], seg_starts[seg_start:seg_end]),
            )
            shells.append(shell)
            ptr_start, seg_start = ptr_end, seg_end
        return tuple(shells)

    def _compression(self, blocks, index_records, value_records) -> MatrixCompression:
        return MatrixCompression(
            blocked=BlockedCSR(self.shape, blocks, self.block_bytes),
            index_records=index_records,
            value_records=value_records,
            index_table=self.index_table,
            value_table=self.value_table,
            use_delta=self.use_delta,
            use_huffman=self.use_huffman,
            block_bytes=self.block_bytes,
        )

    def plan(self) -> MatrixCompression:
        """A streaming :class:`MatrixCompression` view over the mapping.

        The blocked structure holds shell blocks (row metadata only) and
        the record sequences are lazy: payload bytes are sliced out of the
        mapping when a record is accessed, with record CRCs checked at that
        moment. Memoized per reader.
        """
        if self._plan is None:
            self._plan = self._compression(
                self.shell_blocks(), _LazyRecords(self, "index"), _LazyRecords(self, "value")
            )
            # The shells' row_ptrs are slices of the walk's flat array.
            ptr, ends = self._structure[:2]
            sizes = np.diff(np.array(ends, np.int64), prepend=0)
            self._plan.blocked.__dict__["row_layout"] = (ptr, np.column_stack(
                (np.cumsum(sizes) - sizes, sizes - 1, np.array(self.row_start, np.int64))))
        return self._plan

    def materialize(self) -> MatrixCompression:
        """Fully materialize the plan (what :func:`load_plan` returns).

        Decodes every block to rebuild the raw :class:`BlockedCSR`, then
        runs the decode-layer checks in :func:`load_plan`'s order: column
        bounds per block, total nnz against the header.
        """
        shell = self._compression(
            self.shell_blocks(),
            *(tuple(self.record(i, s) for i in range(self.nblocks)) for s in _STREAM_SLOT),
        )
        blocks = tuple(shell.decompress_block(i) for i in range(self.nblocks))
        for block in blocks:
            if block.nnz and (block.col_idx.min() < 0 or block.col_idx.max() >= self.ncols):
                raise ContainerError("container corruption: column index outside ncols")
        plan = replace(shell, blocked=BlockedCSR(self.shape, blocks, self.block_bytes))
        if plan.nnz != self.nnz:
            raise ContainerError(
                f"container corruption: nnz {plan.nnz} != header {self.nnz}"
            )
        return plan


def load_csr(source: str | PathLike | io.BufferedIOBase | bytes) -> CSRMatrix:
    """Load a container straight into an uncompressed :class:`CSRMatrix`."""
    plan = load_plan(source)
    m, n = plan.blocked.shape
    col_idx = np.concatenate(
        [b.col_idx for b in plan.blocked.blocks]
    ) if plan.nblocks else np.zeros(0, dtype=np.int32)
    val = np.concatenate(
        [b.val for b in plan.blocked.blocks]
    ) if plan.nblocks else np.zeros(0, dtype=np.float64)
    # Global row_ptr from per-block local pointers (split rows merge).
    row_ptr = np.zeros(m + 1, dtype=np.int64)
    for block in plan.blocked.blocks:
        counts = np.diff(block.row_ptr)
        row_ptr[block.row_start + 1 : block.row_end + 1] += counts
    row_ptr = np.cumsum(row_ptr)
    return CSRMatrix((m, n), row_ptr, col_idx, val)



# ---------------------------------------------------------------------------
# Scrubbing (tolerant per-block health walk; the ``repro scrub`` command)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecordHealth:
    """Health of one stream record: CRC layer and decode layer."""

    stream: str
    crc_ok: bool
    decode_ok: bool
    payload_bytes: int
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.crc_ok and self.decode_ok

    def as_dict(self) -> dict:
        return {
            "crc_ok": self.crc_ok,
            "decode_ok": self.decode_ok,
            "payload_bytes": self.payload_bytes,
            "error": self.error,
        }


@dataclass(frozen=True)
class BlockHealth:
    """Health of one block: row-metadata CRC plus both stream records."""

    block_id: int
    offset: int
    meta_ok: bool
    index: RecordHealth | None
    value: RecordHealth | None
    errors: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return (
            self.meta_ok
            and not self.errors
            and self.index is not None
            and self.index.ok
            and self.value is not None
            and self.value.ok
        )


@dataclass(frozen=True)
class ScrubReport:
    """Per-block health of a ``.dsh`` container.

    Unlike :func:`load_plan` — which rejects the whole stream on the first
    CRC or structure failure — the scrubber keeps walking, so one flipped
    byte reports as one sick block instead of an opaque load error. The
    same layered CRCs drive both; scrub just refuses to give up early.
    """

    nbytes: int
    magic_ok: bool
    header_ok: bool
    trailer_ok: bool
    nblocks: int
    blocks: tuple[BlockHealth, ...] = ()
    fatal: str | None = None

    @property
    def blocks_ok(self) -> int:
        return sum(1 for b in self.blocks if b.ok)

    @property
    def blocks_bad(self) -> int:
        return len(self.blocks) - self.blocks_ok

    @property
    def healthy(self) -> bool:
        return (
            self.magic_ok
            and self.header_ok
            and self.trailer_ok
            and self.fatal is None
            and len(self.blocks) == self.nblocks
            and self.blocks_bad == 0
        )

    def as_dict(self) -> dict:
        return {
            "nbytes": self.nbytes,
            "magic_ok": self.magic_ok,
            "header_ok": self.header_ok,
            "trailer_ok": self.trailer_ok,
            "nblocks_declared": self.nblocks,
            "blocks_walked": len(self.blocks),
            "blocks_ok": self.blocks_ok,
            "blocks_bad": self.blocks_bad,
            "healthy": self.healthy,
            "fatal": self.fatal,
            "blocks": [
                {
                    "block": b.block_id,
                    "offset": b.offset,
                    "meta_ok": b.meta_ok,
                    "index": b.index and b.index.as_dict(),
                    "value": b.value and b.value.as_dict(),
                    "errors": list(b.errors),
                    "ok": b.ok,
                }
                for b in self.blocks
            ],
        }



def _record_health(
    data: memoryview, frame: tuple, stream: str, table: HuffmanTable | None,
    use_huffman: bool, apply_delta: bool,
) -> RecordHealth:
    """CRC and decode health of one framed record, never raising a codec
    error."""
    offset, tag, orig_len, snappy_len, bit_len, payload_len, crc, payload_pos = frame
    payload = bytes(data[payload_pos : payload_pos + payload_len])
    crc_ok = zlib.crc32(payload, zlib.crc32(data[offset : payload_pos - 4])) == crc
    # A flipped tag byte already fails the record CRC; decode what it names.
    record = BlockRecord(
        orig_len, snappy_len, bit_len, payload, tag=None if tag is None else tag & TAG_MASK
    )
    error = None
    if record_stages(record, use_huffman, apply_delta) & STAGE_HUFFMAN and table is None:
        error = "no usable huffman table"
    else:
        try:
            decode_record(record, table, use_huffman=use_huffman, apply_delta=apply_delta)
        except CodecError as exc:
            error = str(exc)
    return RecordHealth(stream, crc_ok, error is None, payload_len, error)


def scrub_container(source: "str | PathLike | io.BufferedIOBase | bytes") -> ScrubReport:
    """Walk a ``.dsh`` container and report per-block health.

    Never raises on corruption: every CRC layer (trailer, header, block
    meta, record) and every record decode is attempted independently and
    reported, so an operator can see *which* blocks a damaged file loses
    before deciding whether ``degrade``-mode SpMV or a re-encode is the
    right response. Only an unreadable source (OSError) propagates.

    The walk frames the stream with the same parsers as
    :class:`ContainerReader` (:func:`_frame_header`, :func:`_frame_block`),
    so scrub and reader agree on every block and record boundary; where
    the reader raises, scrub records the failure and walks on, stopping
    only where the framing itself is lost.
    """
    if isinstance(source, (str, PathLike)):
        with open(source, "rb") as fh:
            return scrub_container(fh.read())
    if not isinstance(source, bytes):
        source = source.read()
    data = memoryview(source)
    nbytes, end = len(data), len(data) - 4
    magic_ok = bytes(data[:8]) == MAGIC
    if nbytes < _TABLE_POS + 4:
        return ScrubReport(
            nbytes=nbytes, magic_ok=magic_ok, header_ok=False, trailer_ok=False,
            nblocks=0, fatal="container shorter than its fixed header",
        )
    trailer_ok = _crc_ok(data, 0, end)
    flags, _, m, _, nblocks, _, tables, crc_pos = _frame_header(data)
    tagged = bool(flags & _FLAG_TAGGED)
    if crc_pos + 4 > end:
        return ScrubReport(
            nbytes=nbytes, magic_ok=magic_ok, header_ok=False, trailer_ok=trailer_ok,
            nblocks=nblocks,
            fatal="truncated before " + ("huffman tables" if any(tables) else "header CRC"),
        )
    header_ok = magic_ok and _crc_ok(data, 0, crc_pos)
    streams = []
    for slot, stream in enumerate(_STREAM_SLOT):
        try:
            table = _read_table(data, tables, slot)
        except CodecError:
            table = None  # reported per record as "no usable huffman table"
        apply_delta = slot == 0 and bool(flags & _FLAG_DELTA)
        streams.append((stream, table, tables[slot], apply_delta))

    blocks: list[BlockHealth] = []
    fatal = None
    pos = crc_pos + 4
    for k in range(nblocks):
        if pos + _META.size > end:
            fatal = f"truncated at block {k} metadata (offset {pos})"
            break
        row_start, row_end, _, _, crc_pos, frames = _frame_block(data, pos, tagged)
        if not 1 <= row_end - row_start <= m or crc_pos + 4 > end:
            fatal = f"implausible row range at block {k} (offset {pos})"
            break
        health: list[RecordHealth | None] = [None, None]
        errors: tuple[str, ...] = ()
        rpos = crc_pos + 4
        for slot, (stream, *policy) in enumerate(streams):
            frame = frames[slot] if slot < len(frames) else None
            record_end = None if frame is None else frame[7] + frame[5]
            if record_end is None or record_end > end:
                fatal = f"unwalkable {stream} record at block {k} (offset {rpos})"
                errors = (f"{stream} record unwalkable",)
                break
            health[slot] = _record_health(data, frame, stream, *policy)
            rpos = record_end
        blocks.append(BlockHealth(k, pos, _crc_ok(data, pos, crc_pos), *health, errors))
        if fatal is not None:
            break
        pos = rpos
    else:
        if pos != end:
            fatal = f"{end - pos} trailing bytes after last block"
    return ScrubReport(
        nbytes=nbytes, magic_ok=magic_ok, header_ok=header_ok,
        trailer_ok=trailer_ok, nblocks=nblocks, blocks=tuple(blocks), fatal=fatal,
    )
