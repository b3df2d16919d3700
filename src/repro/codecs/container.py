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
from dataclasses import dataclass
from os import PathLike

import numpy as np

from repro.codecs.errors import (
    CodecError,
    ContainerError,
    TruncatedContainerError,
)
from repro.codecs.huffman import HuffmanTable
from repro.codecs.pipeline import (
    STAGE_HUFFMAN,
    STAGE_SNAPPY,
    TAG_MASK,
    BlockRecord,
    MatrixCompression,
)
from repro.sparse.blocked import BlockedCSR, CSRBlock, row_segments
from repro.sparse.csr import CSRMatrix
from repro import faults

MAGIC = b"RPRODSH2"

_FLAG_DELTA = 1
_FLAG_HUFFMAN = 2
_FLAG_TAGGED = 4
#: Tagged containers carry tables per stream side: ``_FLAG_HUFFMAN`` means
#: the *index* table is present and ``_FLAG_VTABLE`` the *value* table —
#: an adaptive plan that huffmans only one side doesn't pay for the other
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


def _read_record(
    data: memoryview, pos: int, tagged: bool = False
) -> tuple[BlockRecord, int]:
    tag: int | None = None
    if tagged:
        (tag,) = struct.unpack_from("<B", data, pos)
        if tag > TAG_MASK:
            raise ContainerError("container corruption: invalid codec tag")
    hdr_len = 17 if tagged else 16
    header = bytes(data[pos : pos + hdr_len])
    orig_len, snappy_len, bit_len, payload_len = struct.unpack_from(
        "<IIII", data, pos + (1 if tagged else 0)
    )
    (crc,) = struct.unpack_from("<I", data, pos + hdr_len)
    pos += hdr_len + 4
    payload = bytes(data[pos : pos + payload_len])
    if len(payload) != payload_len:
        raise TruncatedContainerError("truncated container: record payload")
    if zlib.crc32(payload, zlib.crc32(header)) != crc:
        raise ContainerError("container corruption: record CRC mismatch")
    pos += payload_len
    record = BlockRecord(
        orig_len, snappy_len, bit_len, payload,
        payload_crc=zlib.crc32(payload), tag=tag,
    )
    return record, pos


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
    try:
        return _parse_plan(memoryview(source))
    except struct.error as exc:
        # struct.unpack_from past the end of a truncated stream.
        raise TruncatedContainerError(f"truncated container: {exc}") from exc


def _parse_plan(data: memoryview) -> MatrixCompression:
    return ContainerReader(data, verify="eager").materialize()


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


@dataclass(frozen=True)
class RecordExtent:
    """Byte extent of one stream record inside the container.

    ``offset`` is the first byte of the record on the wire — the codec tag
    byte in tagged containers, the 16-byte record header otherwise; the
    payload spans ``[payload_offset, end)``. The header fields, the codec
    tag, and the record CRC are captured at walk time (cheap), the payload
    bytes are not.
    """

    offset: int
    orig_len: int
    snappy_len: int
    bit_len: int
    payload_len: int
    crc: int
    tag: int | None = None

    @property
    def payload_offset(self) -> int:
        return self.offset + (21 if self.tag is not None else 20)

    @property
    def end(self) -> int:
        return self.payload_offset + self.payload_len

    @property
    def stored_bytes(self) -> int:
        """Bytes the record occupies in DRAM once materialized (see
        :attr:`BlockRecord.stored_bytes`)."""
        return 12 + self.payload_len


@dataclass(frozen=True)
class BlockExtent:
    """Byte extents and row metadata of one block, payloads untouched."""

    block_id: int
    offset: int
    row_start: int
    row_end: int
    leading_partial: bool
    nnz_start: int
    index: RecordExtent
    value: RecordExtent

    @property
    def end(self) -> int:
        return self.value.end


def _page_span(start: int, end: int) -> int:
    """Number of PAGE_BYTES pages the byte range [start, end) touches."""
    if end <= start:
        return 0
    return (end - 1) // PAGE_BYTES - start // PAGE_BYTES + 1


class _LazyRecords(Sequence):
    """Sequence view over one stream's records, materialized on access.

    ``__getitem__`` resolves the record's extent, slices header+payload out
    of the reader's mapping, and verifies the record CRC — so a lazy reader
    raises the exact same record-layer errors eager loading would, just at
    access time. A small LRU memo keeps the *same object* coming back for
    repeated accesses within a working window (the executor compares
    streamed records by identity to detect DRAM-side faults) without
    retaining every payload.
    """

    def __init__(self, reader: "ContainerReader", stream: str):
        self._reader = reader
        self._stream = stream
        self._memo: OrderedDict[int, BlockRecord] = OrderedDict()

    def __len__(self) -> int:
        return self._reader.nblocks

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        rec = self._memo.get(i)
        if rec is not None:
            self._memo.move_to_end(i)
            return rec
        rec = self._reader.record(i, self._stream)
        self._memo[i] = rec
        while len(self._memo) > _LAZY_RECORD_MEMO:
            self._memo.popitem(last=False)
        return rec

    def stored_sizes(self) -> list[int]:
        """Each record's stored bytes, from the extents: no payload read."""
        return [getattr(ext, self._stream).stored_bytes for ext in self._reader.extents]

    def __reduce__(self):
        # The mmap behind this view cannot cross a process boundary, so a
        # pickled plan ships materialized records instead (loses laziness,
        # keeps correctness).
        return (tuple, (tuple(self),))


class ContainerReader:
    """Lazily-addressable view of a ``.dsh`` container.

    Maps the file with ``mmap`` (or wraps an in-memory buffer) and resolves
    per-block record *extents* from the block metadata without materializing
    payload bytes. Structural validation — magic, header fields and CRC,
    table deserialization, block row-range chaining, row_ptr monotonicity,
    byte budgets, nnz chaining, record framing and truncation, row
    coverage, trailing bytes — always runs at construction, with the exact
    error types and messages of :func:`load_plan`. What ``verify`` controls
    is the CRC layers over *payload bytes*:

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
        if len(data) < len(MAGIC) + 4:
            raise TruncatedContainerError(
                "truncated container: shorter than magic + trailer"
            )
        if bytes(data[:8]) != MAGIC:
            raise ContainerError("not a repro DSH container (bad magic)")
        if self.verify == "eager":
            self.verify_stream()
        end = len(data) - 4
        pos = 8
        flags, block_bytes, m, n, nblocks, nnz = struct.unpack_from("<BIIIIQ", data, pos)
        pos += struct.calcsize("<BIIIIQ")
        use_delta = bool(flags & _FLAG_DELTA)
        tagged = bool(flags & _FLAG_TAGGED)
        if flags & _FLAG_VTABLE and not tagged:
            raise ContainerError(
                "container corruption: value-table flag without codec tags"
            )
        has_itab = bool(flags & _FLAG_HUFFMAN)
        has_vtab = bool(flags & _FLAG_VTABLE) if tagged else has_itab
        use_huffman = has_itab or has_vtab
        if not 12 <= block_bytes <= MAX_BLOCK_BYTES:
            raise ContainerError(
                f"container corruption: implausible block_bytes {block_bytes}"
            )
        if nblocks == 0 and (m or nnz):
            raise ContainerError("container corruption: blockless container with rows/nnz")
        # _walk_record consults these while the walk is still in flight.
        self.tagged = tagged
        self.use_delta = use_delta
        self.use_huffman = use_huffman
        self._has_itab = has_itab
        self._has_vtab = has_vtab
        entries_cap = block_bytes // 12
        table_pos = pos
        table_bytes = 256 * (int(has_itab) + int(has_vtab))
        if table_bytes:
            if pos + table_bytes + 4 > end:
                raise TruncatedContainerError("truncated container: huffman tables")
            pos += table_bytes
        # Header CRC is verified before the tables are even deserialized, so
        # a corrupt length byte can never reach the table constructor.
        (header_crc,) = struct.unpack_from("<I", data, pos)
        if zlib.crc32(data[:pos]) != header_crc:
            raise ContainerError("container corruption: header CRC mismatch")
        pos += 4
        index_table = value_table = None
        if has_itab:
            index_table = HuffmanTable.deserialize(
                bytes(data[table_pos : table_pos + 256])
            )
        if has_vtab:
            voff = table_pos + (256 if has_itab else 0)
            value_table = HuffmanTable.deserialize(bytes(data[voff : voff + 256]))

        extents: list[BlockExtent] = []
        row_ptrs: list[np.ndarray] = []
        segments: list[tuple[np.ndarray, np.ndarray]] = []
        prev_row_end = 0
        running_nnz = 0
        for k in range(nblocks):
            meta_start = pos
            row_start, row_end, leading, nnz_start = struct.unpack_from("<IIBQ", data, pos)
            pos += struct.calcsize("<IIBQ")
            nrows_local = row_end - row_start
            if nrows_local < 1:
                raise ContainerError("container corruption: empty block row range")
            if row_end > m:
                raise ContainerError("container corruption: block rows beyond nrows")
            # Blocks must chain contiguously: a continuation block re-opens
            # the previous block's last row, anything else starts right
            # after it.
            expected_start = prev_row_end - 1 if leading else prev_row_end
            if row_start != max(expected_start, 0) or (leading and prev_row_end == 0):
                raise ContainerError("container corruption: block row ranges do not chain")
            prev_row_end = row_end
            ptr_bytes = 4 * (nrows_local + 1)
            if pos + ptr_bytes + 4 > end:
                raise TruncatedContainerError("truncated container: row_ptr")
            row_ptr = np.frombuffer(data[pos : pos + ptr_bytes], dtype="<u4").astype(
                np.int64
            )
            pos += ptr_bytes
            (meta_crc,) = struct.unpack_from("<I", data, pos)
            if zlib.crc32(data[meta_start:pos]) != meta_crc:
                raise ContainerError("container corruption: block meta CRC mismatch")
            pos += 4
            row_nnz = row_ptr[1:] - row_ptr[:-1]
            if row_ptr[0] != 0 or (row_nnz < 0).any():
                raise ContainerError("container corruption: row_ptr not monotone from 0")
            block_nnz = int(row_ptr[-1])
            if block_nnz > entries_cap:
                raise ContainerError("container corruption: block exceeds its byte budget")
            if nnz_start != running_nnz:
                raise ContainerError("container corruption: nnz_start does not chain")
            running_nnz += block_nnz
            iext, pos = self._walk_record(pos, self._has_itab)
            vext, pos = self._walk_record(pos, self._has_vtab)
            if iext.orig_len != 4 * block_nnz or vext.orig_len != 8 * block_nnz:
                raise ContainerError(
                    "container corruption: record lengths disagree with row_ptr"
                )
            extents.append(
                BlockExtent(
                    block_id=k,
                    offset=meta_start,
                    row_start=row_start,
                    row_end=row_end,
                    leading_partial=bool(leading),
                    nnz_start=nnz_start,
                    index=iext,
                    value=vext,
                )
            )
            row_ptrs.append(row_ptr)
            segments.append(row_segments(row_start, row_ptr, row_nnz))
            # The walk itself faults in meta pages across the whole file;
            # under a residency budget, release behind the cursor as we go
            # so even construction peaks at O(budget). Safe: row_ptr was
            # copied out of the mapping by .astype above.
            self._maybe_release(pos)
        if nblocks and prev_row_end != m:
            raise ContainerError("container corruption: blocks do not cover all rows")
        if pos != end:
            raise ContainerError("container corruption: trailing bytes after last block")

        self.shape = (m, n)
        self.nrows = m
        self.ncols = n
        self.nblocks = nblocks
        self.nnz = nnz
        self.block_bytes = block_bytes
        self.use_delta = use_delta
        self.use_huffman = use_huffman
        self.index_table = index_table
        self.value_table = value_table
        self.extents: tuple[BlockExtent, ...] = tuple(extents)
        self._row_ptrs = row_ptrs
        self._segments = segments

    def _walk_record(self, pos: int, table_present: bool) -> tuple[RecordExtent, int]:
        """Capture one record's extent; same framing checks (and, when
        eager, the same CRC check) as :func:`_read_record`, payload bytes
        untouched in lazy mode. ``table_present`` is this stream side's
        table flag — a huffman tag on a table-less side is corruption."""
        data = self._data
        tag: int | None = None
        hdr_pos = pos
        if self.tagged:
            (tag,) = struct.unpack_from("<B", data, pos)
            if tag > TAG_MASK:
                raise ContainerError("container corruption: invalid codec tag")
            if (tag & STAGE_HUFFMAN) and not table_present:
                raise ContainerError(
                    "container corruption: huffman codec tag without tables"
                )
            hdr_pos = pos + 1
        orig_len, snappy_len, bit_len, payload_len = struct.unpack_from(
            "<IIII", data, hdr_pos
        )
        (crc,) = struct.unpack_from("<I", data, hdr_pos + 16)
        if tag is not None and not (tag & STAGE_SNAPPY) and snappy_len != orig_len:
            raise ContainerError(
                "container corruption: snappy-less record lengths disagree"
            )
        ext = RecordExtent(pos, orig_len, snappy_len, bit_len, payload_len, crc, tag)
        if ext.end > len(data):
            raise TruncatedContainerError("truncated container: record payload")
        if self.verify == "eager":
            running = zlib.crc32(data[pos : ext.payload_offset - 4])
            if zlib.crc32(data[ext.payload_offset : ext.end], running) != crc:
                raise ContainerError("container corruption: record CRC mismatch")
        return ext, ext.end

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
        (trailer,) = struct.unpack_from("<I", data, len(data) - 4)
        if zlib.crc32(data[:-4]) != trailer:
            raise ContainerError("container corruption: stream CRC mismatch")

    def _extent(self, block_id: int, stream: str) -> RecordExtent:
        if stream == "index":
            return self.extents[block_id].index
        if stream == "value":
            return self.extents[block_id].value
        raise ValueError(f"stream must be 'index' or 'value', got {stream!r}")

    def enable_crc_memo(self) -> None:
        """Opt in to verified-once record CRCs.

        After a record's CRC passes once, later materializations of the
        same ``(block, stream)`` skip both the record-CRC check and the
        payload-CRC restamp (the memoized payload CRC is reused), so
        steady-state iteration over an immutable container pays the
        verification cost exactly once per record. First-touch semantics
        are unchanged — corruption present before the first access raises
        identically — and :meth:`record_health` (scrub) always re-checks.
        Off by default; :class:`~repro.core.session.ExecutionSession`
        enables it on its long-lived reader.
        """
        if self._crc_memo is None:
            self._crc_memo = {}

    def record(self, block_id: int, stream: str) -> BlockRecord:
        """Materialize one record, verifying its CRC at access time.

        Raises the identical errors eager loading raises for the same
        corruption: ``TruncatedContainerError("truncated container: record
        payload")`` if the mapping no longer covers the payload, and
        ``ContainerError("container corruption: record CRC mismatch")`` on
        a CRC failure. With :meth:`enable_crc_memo`, accesses after the
        first verified one skip the redundant CRC passes.
        """
        ext = self._extent(block_id, stream)
        data = self._view
        header = bytes(data[ext.offset : ext.payload_offset - 4])
        payload = bytes(data[ext.payload_offset : ext.end])
        if len(payload) != ext.payload_len:
            raise TruncatedContainerError("truncated container: record payload")
        memo = self._crc_memo
        payload_crc = memo.get((block_id, stream)) if memo is not None else None
        if payload_crc is None:
            if zlib.crc32(payload, zlib.crc32(header)) != ext.crc:
                raise ContainerError("container corruption: record CRC mismatch")
            payload_crc = zlib.crc32(payload)
            if memo is not None:
                memo[(block_id, stream)] = payload_crc
        else:
            self.crc_skips += 1
        self.pages_touched += _page_span(ext.offset, ext.end)
        self._maybe_release(ext.offset)
        return BlockRecord(
            ext.orig_len,
            ext.snappy_len,
            ext.bit_len,
            payload,
            payload_crc=payload_crc,
            tag=ext.tag,
        )

    def _maybe_release(self, current_offset: int) -> None:
        """Drop mapped pages that fell more than ``residency_budget`` bytes
        behind the access cursor.

        Records are copied out of the mapping on materialization, so pages
        behind the cursor hold nothing live; for the sequential block-order
        access pattern of a streaming run this keeps peak mapped residency
        at O(residency_budget) no matter the container size. Released pages
        simply re-fault from the file if revisited.
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

    def record_health(self, block_id: int, stream: str) -> tuple[BlockRecord, bool]:
        """Tolerant variant of :meth:`record` for scrubbing: always returns
        the record, plus whether its CRC matched."""
        ext = self._extent(block_id, stream)
        data = self._view
        header = bytes(data[ext.offset : ext.payload_offset - 4])
        payload = bytes(data[ext.payload_offset : ext.end])
        crc_ok = zlib.crc32(payload, zlib.crc32(header)) == ext.crc
        record = BlockRecord(
            ext.orig_len,
            ext.snappy_len,
            ext.bit_len,
            payload,
            payload_crc=zlib.crc32(payload),
            tag=ext.tag,
        )
        return record, crc_ok

    def shell_blocks(self) -> tuple[CSRBlock, ...]:
        """Structure-only CSR blocks: real row metadata, zero payloads.

        The payloads are read-only views of one zero buffer, so a shell of
        a multi-GB matrix costs O(rows), not O(nnz). Each shell's row
        segments come from the walk, which decoded blocks then share
        (:meth:`CSRBlock.with_payload`).
        """
        widest = max((int(ptr[-1]) for ptr in self._row_ptrs), default=0)
        col_zeros, val_zeros = np.zeros(widest, np.int32), np.zeros(widest, np.float64)
        col_zeros.flags.writeable = val_zeros.flags.writeable = False
        shells = []
        for ext, ptr, segments in zip(self.extents, self._row_ptrs, self._segments):
            shell = CSRBlock(
                row_start=ext.row_start,
                row_end=ext.row_end,
                row_ptr=ptr,
                col_idx=col_zeros[: int(ptr[-1])],
                val=val_zeros[: int(ptr[-1])],
                nnz_start=ext.nnz_start,
                leading_partial=ext.leading_partial,
            )
            shell.__dict__["_row_segments"] = segments
            shells.append(shell)
        return tuple(shells)

    def plan(self) -> MatrixCompression:
        """A streaming :class:`MatrixCompression` view over the mapping.

        The blocked structure holds shell blocks (row metadata only) and
        the record sequences are lazy: payload bytes are sliced out of the
        mapping when a record is accessed, with record CRCs checked at that
        moment. Memoized per reader.
        """
        if self._plan is None:
            self._plan = MatrixCompression(
                blocked=BlockedCSR(self.shape, self.shell_blocks(), self.block_bytes),
                index_records=_LazyRecords(self, "index"),
                value_records=_LazyRecords(self, "value"),
                index_table=self.index_table,
                value_table=self.value_table,
                use_delta=self.use_delta,
                use_huffman=self.use_huffman,
                block_bytes=self.block_bytes,
            )
        return self._plan

    def materialize(self) -> MatrixCompression:
        """Fully materialize the plan (what :func:`load_plan` returns).

        Decodes every block to rebuild the raw :class:`BlockedCSR`, then
        runs the decode-layer checks in :func:`load_plan`'s order: column
        bounds per block, total nnz against the header.
        """
        m, n = self.shape
        index_records = tuple(self.record(i, "index") for i in range(self.nblocks))
        value_records = tuple(self.record(i, "value") for i in range(self.nblocks))
        shell = MatrixCompression(
            blocked=BlockedCSR((m, n), self.shell_blocks(), self.block_bytes),
            index_records=index_records,
            value_records=value_records,
            index_table=self.index_table,
            value_table=self.value_table,
            use_delta=self.use_delta,
            use_huffman=self.use_huffman,
            block_bytes=self.block_bytes,
        )
        real_blocks = tuple(shell.decompress_block(i) for i in range(self.nblocks))
        for block in real_blocks:
            if block.nnz and (block.col_idx.min() < 0 or block.col_idx.max() >= n):
                raise ContainerError("container corruption: column index outside ncols")
        plan = MatrixCompression(
            blocked=BlockedCSR((m, n), real_blocks, self.block_bytes),
            index_records=index_records,
            value_records=value_records,
            index_table=self.index_table,
            value_table=self.value_table,
            use_delta=self.use_delta,
            use_huffman=self.use_huffman,
            block_bytes=self.block_bytes,
        )
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
                    "index": None if b.index is None else {
                        "crc_ok": b.index.crc_ok,
                        "decode_ok": b.index.decode_ok,
                        "payload_bytes": b.index.payload_bytes,
                        "error": b.index.error,
                    },
                    "value": None if b.value is None else {
                        "crc_ok": b.value.crc_ok,
                        "decode_ok": b.value.decode_ok,
                        "payload_bytes": b.value.payload_bytes,
                        "error": b.value.error,
                    },
                    "errors": list(b.errors),
                    "ok": b.ok,
                }
                for b in self.blocks
            ],
        }


def _scrub_record(
    data: memoryview,
    pos: int,
    end: int,
    stream: str,
    table: "HuffmanTable | None",
    use_huffman: bool,
    apply_delta: bool,
    tagged: bool = False,
) -> tuple[RecordHealth | None, int | None]:
    """Walk one record leniently. Returns (health, next_pos); (None, None)
    when the stream is too mangled to even skip past the record."""
    hdr_len = 17 if tagged else 16
    if pos + hdr_len + 4 > end:
        return None, None
    tag: int | None = None
    if tagged:
        (tag,) = struct.unpack_from("<B", data, pos)
        tag &= TAG_MASK  # a flipped tag byte already fails the record CRC
    header = bytes(data[pos : pos + hdr_len])
    orig_len, snappy_len, bit_len, payload_len = struct.unpack_from(
        "<IIII", data, pos + (1 if tagged else 0)
    )
    (crc,) = struct.unpack_from("<I", data, pos + hdr_len)
    pos += hdr_len + 4
    if pos + payload_len > end:
        return None, None
    payload = bytes(data[pos : pos + payload_len])
    pos += payload_len
    crc_ok = zlib.crc32(payload, zlib.crc32(header)) == crc
    record = BlockRecord(
        orig_len, snappy_len, bit_len, payload,
        payload_crc=zlib.crc32(payload), tag=tag,
    )
    decode_ok, error = _decode_health(record, table, use_huffman, apply_delta)
    return RecordHealth(stream, crc_ok, decode_ok, payload_len, error), pos


def _decode_health(
    record: BlockRecord, table: "HuffmanTable | None", use_huffman: bool, apply_delta: bool
) -> tuple[bool, str | None]:
    """``(decode_ok, error)`` of one record, never raising a codec error."""
    from repro.codecs.pipeline import decode_record, record_stages

    if record_stages(record, use_huffman, apply_delta) & STAGE_HUFFMAN and table is None:
        return False, "no usable huffman table"
    try:
        decode_record(record, table, use_huffman=use_huffman, apply_delta=apply_delta)
    except CodecError as exc:
        return False, str(exc)
    return True, None


def _scrub_via_reader(reader: ContainerReader) -> ScrubReport:
    """Health report over a structurally-sound container.

    Reuses the reader's already-resolved record extents instead of
    re-scanning the stream: every block/record boundary comes straight from
    :attr:`ContainerReader.extents`; only the CRC and decode layers are
    (tolerantly) exercised here.
    """
    try:
        reader.verify_stream()
        trailer_ok = True
    except ContainerError:
        trailer_ok = False
    blocks: list[BlockHealth] = []
    for ext in reader.extents:
        healths: dict[str, RecordHealth] = {}
        for stream, table, apply_delta in (
            ("index", reader.index_table, reader.use_delta),
            ("value", reader.value_table, False),
        ):
            record, crc_ok = reader.record_health(ext.block_id, stream)
            decode_ok, error = _decode_health(record, table, reader.use_huffman, apply_delta)
            healths[stream] = RecordHealth(
                stream, crc_ok, decode_ok, len(record.payload), error,
            )
        blocks.append(
            BlockHealth(
                ext.block_id, ext.offset, True, healths["index"], healths["value"],
            )
        )
    return ScrubReport(
        nbytes=reader.nbytes, magic_ok=True, header_ok=True, trailer_ok=trailer_ok,
        nblocks=reader.nblocks, blocks=tuple(blocks), fatal=None,
    )


def scrub_container(source: "str | PathLike | io.BufferedIOBase | bytes") -> ScrubReport:
    """Walk a ``.dsh`` container and report per-block health.

    Never raises on corruption: every CRC layer (trailer, header, block
    meta, record) and every record decode is attempted independently and
    reported, so an operator can see *which* blocks a damaged file loses
    before deciding whether ``degrade``-mode SpMV or a re-encode is the
    right response. Only an unreadable source (OSError) propagates.

    Structurally-sound containers (the common case: healthy, or record
    payload/trailer corruption) are walked through
    :class:`ContainerReader`'s extents — one resolution of the boundaries
    shared with every other consumer. Streams the reader rejects
    (truncation, meta/header damage, broken chaining) fall back to the
    tolerant legacy scan below.
    """
    if isinstance(source, (str, PathLike)):
        with open(source, "rb") as fh:
            return scrub_container(fh.read())
    if not isinstance(source, bytes):
        source = source.read()
    try:
        with ContainerReader(source, verify="lazy") as reader:
            return _scrub_via_reader(reader)
    except CodecError:
        pass
    data = memoryview(source)
    nbytes = len(data)
    header_fmt = "<BIIIIQ"
    header_size = struct.calcsize(header_fmt)
    if nbytes < len(MAGIC) + 4 + header_size:
        return ScrubReport(
            nbytes=nbytes, magic_ok=bytes(data[:8]) == MAGIC if nbytes >= 8 else False,
            header_ok=False, trailer_ok=False, nblocks=0,
            fatal="container shorter than its fixed header",
        )
    magic_ok = bytes(data[:8]) == MAGIC
    (trailer,) = struct.unpack_from("<I", data, nbytes - 4)
    trailer_ok = zlib.crc32(data[:-4]) == trailer
    end = nbytes - 4
    pos = 8
    flags, block_bytes, m, n, nblocks, nnz = struct.unpack_from(header_fmt, data, pos)
    pos += header_size
    use_delta = bool(flags & _FLAG_DELTA)
    tagged = bool(flags & _FLAG_TAGGED)
    has_itab = bool(flags & _FLAG_HUFFMAN)
    has_vtab = bool(flags & _FLAG_VTABLE) if tagged else has_itab
    table_pos = pos
    table_bytes = 256 * (int(has_itab) + int(has_vtab))
    if table_bytes:
        if pos + table_bytes + 4 > end:
            return ScrubReport(
                nbytes=nbytes, magic_ok=magic_ok, header_ok=False,
                trailer_ok=trailer_ok, nblocks=nblocks,
                fatal="truncated before huffman tables",
            )
        pos += table_bytes
    if pos + 4 > end:
        return ScrubReport(
            nbytes=nbytes, magic_ok=magic_ok, header_ok=False,
            trailer_ok=trailer_ok, nblocks=nblocks,
            fatal="truncated before header CRC",
        )
    (header_crc,) = struct.unpack_from("<I", data, pos)
    header_ok = magic_ok and zlib.crc32(data[:pos]) == header_crc
    pos += 4
    index_table = value_table = None
    if has_itab:
        try:
            index_table = HuffmanTable.deserialize(bytes(data[table_pos : table_pos + 256]))
        except CodecError:
            pass  # reported per record as "no usable huffman table"
    if has_vtab:
        voff = table_pos + (256 if has_itab else 0)
        try:
            value_table = HuffmanTable.deserialize(bytes(data[voff : voff + 256]))
        except CodecError:
            pass  # reported per record as "no usable huffman table"

    blocks: list[BlockHealth] = []
    fatal = None
    meta_fmt = "<IIBQ"
    meta_size = struct.calcsize(meta_fmt)
    for k in range(nblocks):
        block_offset = pos
        if pos + meta_size > end:
            fatal = f"truncated at block {k} metadata (offset {pos})"
            break
        row_start, row_end, leading, nnz_start = struct.unpack_from(meta_fmt, data, pos)
        nrows_local = row_end - row_start
        ptr_bytes = 4 * (nrows_local + 1)
        if nrows_local < 1 or nrows_local > m or pos + meta_size + ptr_bytes + 4 > end:
            fatal = f"implausible row range at block {k} (offset {pos})"
            break
        meta_end = pos + meta_size + ptr_bytes
        (meta_crc,) = struct.unpack_from("<I", data, meta_end)
        meta_ok = zlib.crc32(data[pos:meta_end]) == meta_crc
        pos = meta_end + 4
        errors: list[str] = []
        index_health, next_pos = _scrub_record(
            data, pos, end, "index", index_table, has_itab, use_delta, tagged
        )
        if next_pos is None:
            fatal = f"unwalkable index record at block {k} (offset {pos})"
            blocks.append(BlockHealth(k, block_offset, meta_ok, None, None,
                                      ("index record unwalkable",)))
            break
        pos = next_pos
        value_health, next_pos = _scrub_record(
            data, pos, end, "value", value_table, has_vtab, False, tagged
        )
        if next_pos is None:
            fatal = f"unwalkable value record at block {k} (offset {pos})"
            blocks.append(BlockHealth(k, block_offset, meta_ok, index_health, None,
                                      ("value record unwalkable",)))
            break
        pos = next_pos
        blocks.append(
            BlockHealth(k, block_offset, meta_ok, index_health, value_health,
                        tuple(errors))
        )
    else:
        if pos != end:
            fatal = f"{end - pos} trailing bytes after last block"
    return ScrubReport(
        nbytes=nbytes, magic_ok=magic_ok, header_ok=header_ok,
        trailer_ok=trailer_ok, nblocks=nblocks, blocks=tuple(blocks), fatal=fatal,
    )
