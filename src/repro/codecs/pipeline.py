"""Block-oriented Delta → Snappy → Huffman (DSH) compression plans.

This is the representation the heterogeneous system stores in DRAM: for
every 8 KB CSR block, the column-index stream and the value stream are
compressed independently (paper Fig. 7 issues separate ``recode`` calls for
``ccol_idx`` and ``cvalues``). Delta applies to the index stream only
(Section IV-B delta-encodes "the matrix indices"); Huffman tables are built
per matrix, per stream, from a deterministic sample of up to 40% of blocks.

The CPU baseline of Fig. 10 — plain Snappy on 32 KB blocks — is the same
machinery with ``use_delta=False, use_huffman=False, block_bytes=32768``.
"""

from __future__ import annotations

import ctypes
import time
import zlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro import faults, kernels, obs
from repro.codecs.base import Codec
from repro.codecs.delta import DeltaCodec, delta_decode
from repro.codecs.errors import CodecError, CorruptPayloadError, CorruptStreamError
from repro.codecs.huffman import HuffmanCodec, HuffmanTable
from repro.codecs.snappy import snappy_compress, snappy_decompress
from repro.sparse.blocked import BlockedCSR, CSRBlock, UDP_BLOCK_BYTES, partition_csr
from repro.sparse.csr import CSRMatrix
from repro.util.rng import derive_seed, seeded_rng

#: Per-record wire header: u32 orig_len, u32 snappy_len, u32 bit_len.
RECORD_HEADER_BYTES = 12
#: Serialized Huffman table: one length byte per symbol.
TABLE_BYTES = 256

#: Per-record codec-tag stage bits (mixed-plan containers). A record tag
#: is the OR of the stages its payload went through; ``TAG_MASK`` bounds
#: the valid range. ``tag=None`` means "untagged": the record follows the
#: plan-level ``use_delta``/``use_huffman`` flags (legacy behaviour).
STAGE_DELTA = 1
STAGE_SNAPPY = 2
STAGE_HUFFMAN = 4
TAG_MASK = STAGE_DELTA | STAGE_SNAPPY | STAGE_HUFFMAN
#: Set, next to a record's stages, in a :class:`RecordSpan` row when the
#: record carries a codec tag (telemetry only; no stage).
STAGE_TAGGED = 8

#: Blocks a :class:`DecodeRun` decodes ahead in one ``dsh_decode_span``
#: call (sized by measurement: docs/PERFORMANCE.md, "Span decode").
SPAN = 64

#: Decode stages in the order a record undoes them, as labelled on
#: ``codecs.decode.stage_seconds``.
DECODE_STAGES = ("huffman", "snappy", "delta")

#: Decode telemetry, bound once per active registry: what every flush of
#: a :class:`DecodeTally` ticks (the record, bytes-in and bytes-out
#: counters, the record-seconds histogram, then each stage's seconds),
#: and the counters it creates only once they count a record.
_TALLY_METRICS = obs.BoundMetrics(lambda reg, _: (
    *(reg.counter(f"codecs.decode.{name}") for name in ("records", "bytes_in", "bytes_out")),
    reg.histogram("codecs.decode.record_seconds"),
    *(reg.counter("codecs.decode.stage_seconds", stage=stage) for stage in DECODE_STAGES),
))
_DECODE_COUNTERS = obs.BoundMetrics(lambda reg, name: reg.counter(name))


@dataclass(frozen=True)
class RecodePipeline:
    """An ordered chain of codecs applied left-to-right on encode."""

    stages: tuple[Codec, ...]
    name: str

    def encode(self, data: bytes) -> bytes:
        for stage in self.stages:
            data = stage.encode(data)
        return data

    def decode(self, data: bytes) -> bytes:
        for stage in reversed(self.stages):
            data = stage.decode(data)
        return data


def make_dsh_pipeline(table: HuffmanTable, use_delta: bool = True) -> RecodePipeline:
    """Construct a Delta→Snappy→Huffman pipeline with a concrete table."""
    from repro.codecs.snappy import SnappyCodec

    stages: list[Codec] = []
    if use_delta:
        stages.append(DeltaCodec())
    stages.append(SnappyCodec())
    stages.append(HuffmanCodec(table))
    return RecodePipeline(tuple(stages), "delta-snappy-huffman" if use_delta else "snappy-huffman")


#: Sentinel names usable in reports.
DSH_PIPELINE = "delta-snappy-huffman"
SNAPPY_ONLY = "snappy"


@dataclass(frozen=True)
class BlockRecord:
    """One compressed stream of one block.

    ``payload`` is the final stage's bytes. ``snappy_len`` is the length of
    the intermediate Snappy stream (what Huffman decoding must reproduce);
    with ``use_huffman=False`` the payload *is* the Snappy stream and
    ``bit_len`` is 0.

    ``payload_crc`` is an end-to-end CRC32 of ``payload`` stamped at encode
    (and recomputed under the container's record CRC at load), so any
    corruption of the stored bytes — a DRAM bit flip, a torn write, an
    injected fault — is *detected* at decode instead of probabilistically
    surfacing as a malformed stream. ``None`` (e.g. hand-built records)
    skips the check.

    ``tag`` is the per-record codec tag of mixed plans: an OR of
    ``STAGE_DELTA``/``STAGE_SNAPPY``/``STAGE_HUFFMAN`` naming exactly the
    stages this record's payload went through. A tagged record is
    self-describing — :func:`decode_record` follows the tag instead of the
    plan-level flags. ``None`` (the default) keeps legacy behaviour: the
    plan flags decide, and serialization is byte-identical to pre-tag
    containers. When snappy is skipped (``tag & STAGE_SNAPPY == 0``) the
    stored ``snappy_len`` equals ``orig_len`` — the "intermediate" stream
    *is* the raw (possibly delta'd) stream.
    """

    orig_len: int
    snappy_len: int
    bit_len: int
    payload: bytes
    payload_crc: int | None = None
    tag: int | None = None

    @property
    def stored_bytes(self) -> int:
        """Bytes this record occupies in DRAM, header included."""
        return RECORD_HEADER_BYTES + len(self.payload)


@dataclass(frozen=True)
class MatrixCompression:
    """A whole-matrix compression plan: per-block records + shared tables."""

    blocked: BlockedCSR
    index_records: tuple[BlockRecord, ...]
    value_records: tuple[BlockRecord, ...]
    index_table: HuffmanTable | None
    value_table: HuffmanTable | None
    use_delta: bool
    use_huffman: bool
    block_bytes: int

    # -- accounting ----------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.blocked.nnz

    @property
    def nblocks(self) -> int:
        return self.blocked.nblocks

    @property
    def compressed_bytes(self) -> int:
        """Total DRAM bytes of the compressed matrix (records + tables)."""
        total = sum(r.stored_bytes for r in self.index_records)
        total += sum(r.stored_bytes for r in self.value_records)
        if self.index_table is not None:
            total += TABLE_BYTES
        if self.value_table is not None:
            total += TABLE_BYTES
        return total

    @property
    def uncompressed_bytes(self) -> int:
        """Baseline CSR payload: 12 bytes per nnz."""
        return 12 * self.nnz

    @property
    def bytes_per_nnz(self) -> float:
        """The paper's headline compression metric."""
        if self.nnz == 0:
            return 0.0
        return self.compressed_bytes / self.nnz

    @property
    def compression_ratio(self) -> float:
        """uncompressed / compressed (>1 means the recoding won)."""
        if self.compressed_bytes == 0:
            return 1.0
        return self.uncompressed_bytes / self.compressed_bytes

    # -- decompression --------------------------------------------------------

    def decompress_block(
        self,
        i: int,
        index_record: BlockRecord | None = None,
        value_record: BlockRecord | None = None,
        run: "DecodeRun | None" = None,
    ) -> CSRBlock:
        """Reconstruct block *i* (the functional model of the UDP's
        ``recode(DSH_unpack, ...)`` calls).

        ``index_record`` / ``value_record`` override the plan's stored
        records — the SpMV pipeline passes the DMA-streamed copies here so
        a DRAM-side fault hits exactly the bytes that moved; given either,
        the block decodes from them as a span of one. Given neither,
        ``run`` (a :class:`DecodeRun` over this plan whose
        :meth:`~DecodeRun.check` of *i* held) hands out the block it
        decoded ahead, and without a run the plan's records decode as a
        one-block run. The arrays are read-only.
        """
        if run is not None:
            return run(i, index_record, value_record)
        run = DecodeRun(self)
        try:
            return run(i, index_record or self.index_records[i],
                       value_record or self.value_records[i])
        finally:
            run.flush()

    def verify(self) -> bool:
        """Round-trip every block against the stored originals."""
        for i, ref in enumerate(self.blocked.blocks):
            got = self.decompress_block(i)
            if not np.array_equal(got.col_idx, ref.col_idx):
                return False
            if not np.array_equal(got.val, ref.val):
                return False
        return True


def decode_record(
    record: BlockRecord,
    table: HuffmanTable | None,
    *,
    use_huffman: bool,
    apply_delta: bool,
    tally: "DecodeTally | None" = None,
) -> bytes:
    """Decode one stream record back to its raw bytes.

    This is the reference model of the UDP's per-record
    ``recode(DSH_unpack, ...)`` call: :func:`decode_block_reference` runs
    it for both records of a block, and the ``native`` backend's span
    decoder must match it byte for byte and error for error. The
    Huffman and Snappy stages route through :mod:`repro.kernels`, so the
    active backend (``REPRO_KERNEL_BACKEND`` / ``--kernel-backend``)
    applies here — with byte-identical output either way. The record's
    telemetry goes to ``tally`` (published at once without one).

    A record carrying a codec ``tag`` overrides both keyword flags: the
    tag names exactly the stages to undo (mixed-plan containers), including
    skipping Snappy entirely for stored-raw payloads. ``tag=None`` keeps
    the legacy plan-level behaviour bit-for-bit.

    Raises:
        CorruptPayloadError: the payload no longer matches its end-to-end
            CRC (the bytes changed after encode).
        CodecError: any other malformed stream (truncation, bad codes, or
            a decoded length that disagrees with ``record.orig_len``).
    """
    stages = record_stages(record, use_huffman, apply_delta)
    start = time.perf_counter()
    with obs.trace("codecs.decode_record", bytes_in=len(record.payload)):
        data = record.payload
        if record.payload_crc is not None and zlib.crc32(data) != record.payload_crc:
            raise CorruptPayloadError(
                f"record payload CRC mismatch (stored {record.payload_crc:#010x}, "
                f"payload is {len(data)} bytes)"
            )
        t0 = time.perf_counter()
        if stages & STAGE_HUFFMAN:
            if table is None:
                raise CodecError("huffman record without table")
            data = table.decode_bits(data, record.snappy_len)
        t1 = time.perf_counter()
        if stages & STAGE_SNAPPY:
            # The record header bounds the output: a corrupt Snappy preamble
            # can never allocate beyond what the header promised.
            data = snappy_decompress(data, max_output=record.orig_len)
        if len(data) != record.orig_len:
            raise CorruptStreamError(
                f"decompressed {len(data)} bytes, expected {record.orig_len}"
            )
        t2 = time.perf_counter()
        if stages & STAGE_DELTA:
            arr = delta_decode(np.frombuffer(data, dtype="<i4"))
            data = arr.astype("<i4").tobytes()
        t3 = time.perf_counter()
    once = tally is None
    tally = DecodeTally() if once else tally
    tally.add(record, stages, len(data), t3 - start, t1 - t0, t2 - t1, t3 - t2)
    if once:
        tally.flush()
    return data


def stored_sizes(records: Sequence[BlockRecord]) -> Sequence[int]:
    """Each record's :attr:`~BlockRecord.stored_bytes`; the lazy records of
    a container-backed plan answer from the reader's columns, unread."""
    sizes = getattr(records, "stored_sizes", None)
    return sizes() if sizes is not None else [r.stored_bytes for r in records]


def record_stages(record: BlockRecord, use_huffman: bool, apply_delta: bool) -> int:
    """The ``STAGE_*`` bits to undo for ``record``: its codec tag, else the
    plan-level flags (Snappy always)."""
    if record.tag is not None:
        return record.tag & TAG_MASK
    return (
        STAGE_SNAPPY
        | (STAGE_HUFFMAN if use_huffman else 0)
        | (STAGE_DELTA if apply_delta else 0)
    )


#: Counters of records by their stages (with :data:`STAGE_TAGGED`), and
#: for each stages value a row saying which of them its records count in.
_STAGE_COUNTERS = ("codec.mix.decode_records", "codec.mix.snappy_skipped",
                   "codecs.huffman.decode_records", "codecs.delta.decode_records")
_STAGE_MASKS = np.array([
    (s & STAGE_TAGGED, s & STAGE_TAGGED and not s & STAGE_SNAPPY, s & STAGE_HUFFMAN,
     s & STAGE_DELTA) for s in range(2 * STAGE_TAGGED)
], dtype=bool).astype(np.int64)


class DecodeTally:
    """The ``codecs.decode.*`` telemetry of a run's records, published by
    :meth:`flush` (a counter update per record costs more than the C decode
    of a small record). ``rows`` holds tables of a row per record: payload
    bytes, stages (with :data:`STAGE_TAGGED`), bytes out, decode seconds,
    then each of :data:`DECODE_STAGES`' seconds."""

    def __init__(self) -> None:
        self.rows: list[np.ndarray] = []

    def add(
        self, record: BlockRecord, stages: int, bytes_out: int, seconds: float,
        *stage_seconds: float,
    ) -> None:
        """Count one decoded record."""
        tagged = STAGE_TAGGED if record.tag is not None else 0
        self.rows.append(np.array([[len(record.payload), stages | tagged, bytes_out, seconds,
                                    *stage_seconds]]))

    def add_span(self, rows: tuple[np.ndarray, np.ndarray], ns: np.ndarray) -> None:
        """Count the blocks of a :class:`RecordSpan`'s ``rows``, given each
        record's stage nanoseconds ``ns``, a row of six per block."""
        table = np.empty((len(ns), 2, 7))
        for k, stream in enumerate(rows):
            table[:, k, :3] = stream[:, [1, 3, 4]]
        table[:, :, 4:] = ns.reshape(-1, 2, 3) * 1e-9
        table[:, :, 3] = table[:, :, 4:].sum(axis=2)
        self.rows.append(table.reshape(-1, 7))

    def flush(self) -> None:
        """Publish what was counted since the last flush: one product for
        the column sums, one count of the stages values."""
        if not self.rows:
            return
        table = np.concatenate(self.rows) if len(self.rows) > 1 else self.rows[0]
        self.rows = []
        sums = (np.ones(len(table)) @ table).tolist()
        by_stages = np.bincount(table[:, 1].astype(np.intp), minlength=len(_STAGE_MASKS))
        records, bytes_in, bytes_out, seconds, *stage_seconds = _TALLY_METRICS[None]
        records.inc(len(table))
        bytes_in.inc(int(sums[0]))
        bytes_out.inc(int(sums[2]))
        for name, n in zip(_STAGE_COUNTERS, (by_stages @ _STAGE_MASKS).tolist()):
            if n:
                _DECODE_COUNTERS[name].inc(n)
        seconds.observe_many(table[:, 3], sums[3])
        for counter, total in zip(stage_seconds, sums[4:]):
            counter.inc(total)


class RecordSpan(NamedTuple):
    """Blocks ``[start, stop)`` as ``dsh_decode_span`` takes them: per
    stream, a row per record (payload address and length, snappy_len,
    stages with :data:`STAGE_TAGGED`, orig_len), the first ``checked``
    blocks' payloads passing their stamps; ``records(i)`` is block ``i``'s
    record pair for the reference."""

    start: int
    stop: int
    rows: tuple[np.ndarray, np.ndarray]
    checked: int
    records: Callable[[int], tuple[BlockRecord, BlockRecord]]


def record_span(plan: MatrixCompression, start: int, index_records, value_records) -> RecordSpan:
    """The span of in-memory records (blocks ``start`` on), addressing
    each record's own ``bytes``."""
    rows, checked = [], len(index_records)
    for records, delta in ((index_records, plan.use_delta), (value_records, False)):
        rows.append(np.array([
            (0, len(r.payload), r.snappy_len,
             record_stages(r, plan.use_huffman, delta) | (r.tag is not None and STAGE_TAGGED),
             r.orig_len) for r in records
        ], np.int64).reshape(-1, 5))
        rows[-1][:, 0] = np.frombuffer(
            (ctypes.c_char_p * len(records))(*(r.payload for r in records)), np.int64)
        checked = next((k for k, r in enumerate(records[:checked]) if r.payload_crc
                        not in (None, zlib.crc32(r.payload))), checked)
    return RecordSpan(start, start + len(index_records), tuple(rows), checked,
                      lambda i: (index_records[i - start], value_records[i - start]))


class DecodeRun:
    """A run of block decodes over one plan (one recoded SpMV, one engine
    decode handle) that decodes ahead.

    Asked for a block ``i`` it has not decoded, it decodes ``[i, stop)``
    in one ``dsh_decode_span`` call, reading a container's payloads in
    place: ``stop`` is at most :data:`SPAN` blocks on, before the first
    block the :class:`~repro.faults.FaultPlan` armed at construction
    touches at ``sites``, and at most ``limit(i, stop)``. A span ends
    before a block that fails to decode, which raises its error when
    asked for. A consumer asks for block ``i`` without records only if
    :meth:`check` holds; else it reads them from the plan (raising what a
    bad stored record raises) and passes them in, a span of one.
    :meth:`flush` publishes the telemetry of the blocks handed out. A fused
    run reads its spans through :meth:`stop`, :meth:`check` and
    :meth:`span`, counts into :attr:`tally` itself, and flushes once per
    span.
    """

    __slots__ = ("plan", "tally", "_limit", "_decode", "_reader", "_touched", "_ahead",
                 "_ahead_at", "_ahead_rows")

    def __init__(
        self, plan: MatrixCompression, sites: tuple[str, ...] = (),
        limit: Callable[[int, int], int] | None = None,
    ):
        self.plan = plan
        self.tally = DecodeTally()
        self._limit = limit
        self._decode = None
        self._reader = getattr(plan.index_records, "reader", None)
        fault_plan = faults.active() if sites else None
        self._touched = fault_plan.touched(plan.nblocks, sites) if fault_plan else ()
        # The span decoded ahead (from block _ahead_at): its blocks and
        # their telemetry rows, two a block.
        self._ahead: list[CSRBlock] = []
        self._ahead_at = 0
        self._ahead_rows = np.empty((0, 7))

    def check(self, i: int, release: bool = True) -> bool:
        """Whether block ``i`` is untouched by the fault plan and its stored
        records pass their checks in place (counted as read; the mapping
        behind them released unless ``release`` is False)."""
        plan = self.plan
        return i not in self._touched and (self._reader is None or (
            plan.index_records.check(i, release) and plan.value_records.check(i, release)
        ))

    def release_behind(self, i: int) -> None:
        """Release a container's mapping behind block ``i``'s records."""
        if self._reader is not None:
            self._reader.release_behind(i)

    def __call__(self, i: int, index_record=None, value_record=None) -> CSRBlock:
        plan = self.plan
        if index_record is not None or value_record is not None:
            span = record_span(
                plan, i, (plan.index_records[i] if index_record is None else index_record,),
                (plan.value_records[i] if value_record is None else value_record,),
            )
        elif 0 < i - self._ahead_at < len(self._ahead):
            return self._hand_out(i - self._ahead_at)  # blocks go out in order, once
        else:
            stop = self.stop(i, i + 1)
            span = self.span(i, stop if self._limit is None else self._limit(i, stop))
        self._ahead, self._ahead_at = self._blocks(span), i
        return self._hand_out(0)

    def _hand_out(self, k: int) -> CSRBlock:
        """Block ``k`` of the span decoded ahead, counted as it goes out."""
        self.tally.rows.append(self._ahead_rows[2 * k : 2 * k + 2])
        self._decode.count(1)
        return self._ahead[k]

    def stop(self, i: int, start: int) -> int:
        """Where a span from block ``i`` ends: at most :data:`SPAN` blocks
        on, before the first block from ``start`` on that the fault plan
        touches."""
        stop = min(i + SPAN, self.plan.nblocks)
        if self._touched:
            stop = next((j for j in range(start, stop) if j in self._touched), stop)
        return stop

    def span(self, i: int, stop: int) -> RecordSpan:
        """The records of blocks ``[i, stop)``, a container's in place."""
        plan = self.plan
        if self._reader is None:
            return record_span(plan, i, plan.index_records[i:stop], plan.value_records[i:stop])
        # In place; the reference gets copies, neither checked nor counted.
        return RecordSpan(i, stop, tuple(
            self._reader.record(slice(i, stop), s) for s in ("index", "value")
        ), stop - i, lambda j: tuple(
            self._reader.record(j, s, counted=False) for s in ("index", "value")
        ))

    def _blocks(self, span: RecordSpan) -> list[CSRBlock]:
        """``span``'s blocks up to the first that fails to decode (raising
        its error if that is the first); their telemetry is set aside."""
        if self._decode is None:
            self._decode = kernels.bind("dsh_decode_span")
        tally = DecodeTally()
        try:
            pairs = self._decode(self.plan, span, tally)
        except Exception:
            self.tally.rows += tally.rows  # a failing block's records that decoded
            raise
        self._decode.count(-1)  # counted as its blocks go out
        self._ahead_rows = np.concatenate(tally.rows)
        shells = self.plan.blocked.blocks
        return [shells[i].with_payload(*pair) for i, pair in enumerate(pairs, span.start)]

    def flush(self) -> None:
        """Publish the ``codecs.decode.*`` and ``kernels.dispatch``
        telemetry of the decodes so far."""
        if self._decode is not None:
            self._decode.flush()
        self.tally.flush()


@kernels.REGISTRY.register("dsh_decode_span", "numpy")
@kernels.REGISTRY.register("dsh_decode_span", "python")
def decode_span_reference(
    plan: MatrixCompression, span: RecordSpan, tally: DecodeTally
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Reference ``dsh_decode_span``: :func:`decode_block_reference` of
    each block up to the first that fails (raising its error, and keeping
    its decoded records' telemetry, if that is the first)."""
    out = []
    for i in range(span.start, span.stop):
        try:
            out.append(decode_block_reference(plan, *span.records(i), tally))
        except Exception:
            if not out:
                raise
            break
    return out


def decode_block_reference(
    plan: MatrixCompression,
    index_record: BlockRecord,
    value_record: BlockRecord,
    tally: DecodeTally | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(col_idx, val)`` of one block, its two records decoded by
    :func:`decode_record` (telemetry to ``tally``, published at once
    without one)."""
    idx = decode_record(
        index_record, plan.index_table, use_huffman=plan.use_huffman,
        apply_delta=plan.use_delta, tally=tally,
    )
    val = decode_record(
        value_record, plan.value_table, use_huffman=plan.use_huffman, apply_delta=False,
        tally=tally,
    )
    return np.frombuffer(idx, dtype="<i4"), np.frombuffer(val, dtype="<f8")


def block_streams(
    blocked: BlockedCSR, use_delta: bool
) -> tuple[list[bytes], list[bytes]]:
    """Raw per-block codec inputs: (index streams, value streams).

    Delta is applied here (cheap numpy) so the expensive Snappy/Huffman
    stages see exactly the bytes they compress.
    """
    delta_codec = DeltaCodec()
    idx_streams: list[bytes] = []
    val_streams: list[bytes] = []
    for block in blocked.blocks:
        raw_idx = block.index_bytes()
        if use_delta:
            raw_idx = delta_codec.encode(raw_idx)
        idx_streams.append(raw_idx)
        val_streams.append(block.value_bytes())
    return idx_streams, val_streams


def snappy_encode_streams(streams: list[bytes]) -> list[bytes]:
    """Snappy-compress a batch of raw streams, with counters.

    :func:`compress_matrix` runs it once per stream kind.
    """
    start = time.perf_counter()
    with obs.trace("codecs.snappy.compress", streams=len(streams)):
        snapped = [snappy_compress(s) for s in streams]
    reg = obs.registry()
    reg.counter("codecs.snappy.compress_streams").inc(len(streams))
    reg.counter("codecs.snappy.bytes_in").inc(sum(len(s) for s in streams))
    reg.counter("codecs.snappy.bytes_out").inc(sum(len(s) for s in snapped))
    reg.counter("codecs.snappy.compress_seconds").inc(time.perf_counter() - start)
    return snapped


def sampled_tables(
    idx_snapped: list[bytes],
    val_snapped: list[bytes],
    nblocks: int,
    sample_frac: float,
    seed: int,
    use_huffman: bool,
) -> tuple[HuffmanTable | None, HuffmanTable | None]:
    """Per-stream Huffman tables from a deterministic block sample."""
    if not (use_huffman and nblocks):
        return None, None
    nsample = max(1, int(round(sample_frac * nblocks)))
    rng = seeded_rng(derive_seed(seed, "huffman-sample"))
    picks = rng.choice(nblocks, size=min(nsample, nblocks), replace=False)
    # Tables are built over what Huffman actually sees: Snappy output.
    with obs.trace("codecs.huffman.build_tables", sampled=len(picks)):
        index_table = HuffmanTable.from_samples(idx_snapped[i] for i in picks)
        value_table = HuffmanTable.from_samples(val_snapped[i] for i in picks)
    obs.registry().counter("codecs.huffman.tables_built").inc(2)
    return index_table, value_table


def _finish_record(
    raw_len: int, snapped: bytes, table: HuffmanTable | None, use_huffman: bool
) -> BlockRecord:
    start = time.perf_counter()
    if use_huffman:
        assert table is not None
        with obs.trace("codecs.huffman.encode", bytes_in=len(snapped)):
            payload, bit_len = table.encode_bits(snapped)
        record = BlockRecord(
            orig_len=raw_len,
            snappy_len=len(snapped),
            bit_len=bit_len,
            payload=payload,
            payload_crc=zlib.crc32(payload),
        )
        obs.registry().counter("codecs.huffman.encode_records").inc()
    else:
        record = BlockRecord(
            orig_len=raw_len, snappy_len=len(snapped), bit_len=0, payload=snapped,
            payload_crc=zlib.crc32(snapped),
        )
    reg = obs.registry()
    reg.counter("codecs.encode.records").inc()
    reg.counter("codecs.encode.bytes_raw").inc(raw_len)
    reg.counter("codecs.encode.bytes_snappy").inc(len(snapped))
    reg.counter("codecs.encode.bytes_payload").inc(len(record.payload))
    reg.histogram("codecs.encode.record_seconds").observe(time.perf_counter() - start)
    return record


def compress_matrix(
    matrix: CSRMatrix,
    block_bytes: int = UDP_BLOCK_BYTES,
    use_delta: bool = True,
    use_huffman: bool = True,
    sample_frac: float = 0.4,
    seed: int = 0,
) -> MatrixCompression:
    """Compress a CSR matrix into a DSH (or Snappy-only) block plan.

    Args:
        matrix: the input matrix.
        block_bytes: payload budget per block (8 KB for the UDP, 32 KB for
            the CPU Snappy baseline).
        use_delta: delta-transform the index stream before Snappy.
        use_huffman: add the Huffman stage, with per-stream sampled tables.
        sample_frac: fraction of blocks sampled to build Huffman tables
            (paper: "up to 40%").
        seed: RNG seed for the block sample.

    Returns:
        A :class:`MatrixCompression` plan.
    """
    if not 0.0 < sample_frac <= 1.0:
        raise ValueError(f"sample_frac must be in (0, 1], got {sample_frac}")
    with obs.trace("codecs.compress_matrix", nnz=matrix.nnz):
        blocked = partition_csr(matrix, block_bytes=block_bytes)
        idx_streams, val_streams = block_streams(blocked, use_delta)

        idx_snapped = snappy_encode_streams(idx_streams)
        val_snapped = snappy_encode_streams(val_streams)

        index_table, value_table = sampled_tables(
            idx_snapped, val_snapped, blocked.nblocks, sample_frac, seed, use_huffman
        )

        index_records = tuple(
            _finish_record(len(raw), snapped, index_table, use_huffman)
            for raw, snapped in zip(idx_streams, idx_snapped)
        )
        value_records = tuple(
            _finish_record(len(raw), snapped, value_table, use_huffman)
            for raw, snapped in zip(val_streams, val_snapped)
        )
        plan = MatrixCompression(
            blocked=blocked,
            index_records=index_records,
            value_records=value_records,
            index_table=index_table,
            value_table=value_table,
            use_delta=use_delta,
            use_huffman=use_huffman,
            block_bytes=block_bytes,
        )
    reg = obs.registry()
    reg.counter("codecs.pipeline.compress_calls").inc()
    reg.counter("codecs.pipeline.blocks").inc(plan.nblocks)
    reg.counter("codecs.pipeline.nnz").inc(plan.nnz)
    reg.counter("codecs.pipeline.compressed_bytes").inc(plan.compressed_bytes)
    reg.counter("codecs.pipeline.uncompressed_bytes").inc(plan.uncompressed_bytes)
    reg.gauge("codecs.pipeline.bytes_per_nnz").set(plan.bytes_per_nnz)
    return plan
