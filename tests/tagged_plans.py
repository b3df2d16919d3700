"""Build plans whose records carry explicit per-record codec tags.

The library writes fixed delta+snappy+huffman records only, but the
``RPRODSH2`` format and every decode backend still accept per-record
codec tags (a container written with any stage combination must keep
decoding). These helpers produce such plans so the tagged decode path
stays under test: any per-block stage assignment becomes a real plan
sharing the source plan's blocked data and Huffman tables.
"""

from __future__ import annotations

import zlib

from repro.codecs.delta import DeltaCodec
from repro.codecs.huffman import HuffmanTable
from repro.codecs.pipeline import (
    STAGE_DELTA,
    STAGE_HUFFMAN,
    STAGE_SNAPPY,
    TAG_MASK,
    BlockRecord,
    MatrixCompression,
)
from repro.codecs.snappy import snappy_compress


def encode_stream_record(
    raw: bytes, tag: int, table: HuffmanTable | None
) -> BlockRecord:
    """Encode one raw stream under an explicit stage combination.

    ``raw`` is the pre-delta stream (block ``index_bytes()`` or
    ``value_bytes()``); the returned record carries ``tag`` so
    :func:`~repro.codecs.pipeline.decode_record` can invert exactly these
    stages.

    Raises:
        ValueError: tag out of range, or a huffman tag without a table.
    """
    if not 0 <= tag <= TAG_MASK:
        raise ValueError(f"codec tag out of range: {tag}")
    orig_len = len(raw)
    data = raw
    if tag & STAGE_DELTA:
        data = DeltaCodec().encode(data)
    if tag & STAGE_SNAPPY:
        data = snappy_compress(data)
    snappy_len = len(data)
    bit_len = 0
    if tag & STAGE_HUFFMAN:
        if table is None:
            raise ValueError("huffman tag requires a table")
        data, bit_len = table.encode_bits(data)
    return BlockRecord(
        orig_len=orig_len,
        snappy_len=snappy_len,
        bit_len=bit_len,
        payload=data,
        payload_crc=zlib.crc32(data),
        tag=tag,
    )


#: Every stage combination of an index stream, and of a value stream
#: (delta reinterprets the bytes as ``<i4``, so it is an index transform).
INDEX_TAGS: tuple[int, ...] = tuple(range(TAG_MASK + 1))
VALUE_TAGS: tuple[int, ...] = (0, STAGE_SNAPPY, STAGE_HUFFMAN, STAGE_SNAPPY | STAGE_HUFFMAN)


def varied_tags(nblocks: int) -> tuple[list[int], list[int]]:
    """Per-block index and value tags that differ from block to block.

    The two sides cycle out of phase through every combination, so a
    plan of a few blocks holds stored-raw records, Huffman-free records
    and the full delta+snappy+huffman chain side by side.
    """
    index_tags = [INDEX_TAGS[(3 * k) % len(INDEX_TAGS)] for k in range(nblocks)]
    value_tags = [VALUE_TAGS[(k + 1) % len(VALUE_TAGS)] for k in range(nblocks)]
    return index_tags, value_tags


def reencode_with_tags(
    plan: MatrixCompression,
    index_tags: "tuple[int, ...] | list[int]",
    value_tags: "tuple[int, ...] | list[int]",
) -> MatrixCompression:
    """Re-encode a materialized plan under explicit per-block tags.

    The source plan must hold real (non-shell) blocks.

    Raises:
        ValueError: tag-list lengths disagree with the plan's block count.
    """
    if len(index_tags) != plan.nblocks or len(value_tags) != plan.nblocks:
        raise ValueError(
            f"need {plan.nblocks} tags per stream, got "
            f"{len(index_tags)}/{len(value_tags)}"
        )
    index_records = tuple(
        encode_stream_record(block.index_bytes(), tag, plan.index_table)
        for block, tag in zip(plan.blocked.blocks, index_tags)
    )
    value_records = tuple(
        encode_stream_record(block.value_bytes(), tag, plan.value_table)
        for block, tag in zip(plan.blocked.blocks, value_tags)
    )
    return MatrixCompression(
        blocked=plan.blocked,
        index_records=index_records,
        value_records=value_records,
        index_table=plan.index_table,
        value_table=plan.value_table,
        use_delta=True,
        use_huffman=plan.index_table is not None or plan.value_table is not None,
        block_bytes=plan.block_bytes,
    )
