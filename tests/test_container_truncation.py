"""Truncation coverage for the ``.dsh`` container loaders.

Contract: ``load_plan``/``load_csr`` on a container cut at *any* byte —
including exactly on every structural boundary (header, tables, block
meta, each record, trailer) — raise a clean typed
:class:`~repro.codecs.errors.CodecError`, never ``struct.error`` or
``IndexError``. The scrubber goes further: it must *never* raise, it
reports.
"""

import io
import struct
import zlib

import pytest

from repro.codecs.container import (
    MAGIC,
    load_csr,
    load_plan,
    save_plan,
    scrub_container,
)
from repro.codecs.errors import (
    CodecError,
    ContainerError,
    TruncatedContainerError,
)
from repro.codecs.stats import dsh_plan
from repro.collection import generators


@pytest.fixture(scope="module")
def packed():
    # Small on purpose: several tests below iterate over many cut points,
    # and the pure-Python Huffman decode dominates each attempt.
    plan = dsh_plan(generators.banded(260, bandwidth=2, seed=21))
    buf = io.BytesIO()
    save_plan(plan, buf)
    assert plan.nblocks >= 2
    return plan, buf.getvalue()


def structural_boundaries(data: bytes) -> list[int]:
    """Walk the container format and return every structural offset: the
    end of the magic, header fields, huffman tables, header CRC, and per
    block the meta fields, row_ptr, meta CRC, each record header, and each
    record payload — plus the trailer boundary."""
    header_fmt = "<BIIIIQ"
    meta_fmt = "<IIBQ"
    cuts = [0, 4, len(MAGIC)]
    pos = len(MAGIC)
    flags, _bb, m, _n, nblocks, _nnz = struct.unpack_from(header_fmt, data, pos)
    pos += struct.calcsize(header_fmt)
    cuts.append(pos)
    if flags & 2:  # huffman tables present
        cuts.extend([pos + 256, pos + 512])
        pos += 512
    pos += 4  # header CRC
    cuts.append(pos)
    for _ in range(nblocks):
        row_start, row_end, _lead, _nnz0 = struct.unpack_from(meta_fmt, data, pos)
        pos += struct.calcsize(meta_fmt)
        cuts.append(pos)
        pos += 4 * (row_end - row_start + 1)  # row_ptr
        cuts.append(pos)
        pos += 4  # meta CRC
        cuts.append(pos)
        for _ in range(2):  # index record, value record
            (_o, _s, _b, payload_len) = struct.unpack_from("<IIII", data, pos)
            pos += 20  # record header + record CRC
            cuts.append(pos)
            if payload_len:
                cuts.append(pos + payload_len // 2)
            pos += payload_len
            cuts.append(pos)
    assert pos == len(data) - 4, "walker disagrees with container layout"
    cuts.append(pos)  # trailer boundary
    return sorted(set(cuts))


def block_layout(data: bytes) -> list[tuple[int, int, int]]:
    """Per block, independently of the reader: (meta offset, value payload
    offset, value payload length) of an untagged container."""
    flags, _bb, _m, _n, nblocks, _nnz = struct.unpack_from("<BIIIIQ", data, len(MAGIC))
    pos = len(MAGIC) + struct.calcsize("<BIIIIQ") + (512 if flags & 2 else 0) + 4
    layout = []
    for _ in range(nblocks):
        meta = pos
        row_start, row_end, _lead, _nnz0 = struct.unpack_from("<IIBQ", data, pos)
        pos += struct.calcsize("<IIBQ") + 4 * (row_end - row_start + 1) + 4
        for _ in range(2):
            payload_len = struct.unpack_from("<IIII", data, pos)[3]
            pos += 20 + payload_len
        layout.append((meta, pos - payload_len, payload_len))
    return layout


class TestRawTruncation:
    def test_every_prefix_raises_codec_error(self, packed):
        # Raw truncation breaks the stream trailer, so every single cut —
        # not just structural ones — must fail cleanly and early.
        _, data = packed
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                load_plan(data[:cut])

    def test_structural_cuts_raise_typed_errors(self, packed):
        _, data = packed
        for cut in structural_boundaries(data):
            if cut == len(data) - 4:
                continue  # full body; only the trailer is missing
            with pytest.raises((TruncatedContainerError, ContainerError)):
                load_plan(data[:cut])

    def test_load_csr_truncations(self, packed):
        _, data = packed
        for cut in (0, 7, len(data) // 3, len(data) - 5):
            with pytest.raises(CodecError):
                load_csr(data[:cut])


class TestForgedTrailerTruncation:
    def test_structural_cuts_with_valid_trailer_raise(self, packed):
        # Recomputing the trailer over the truncated body defeats the
        # outermost CRC; the structural validation underneath must still
        # reject every boundary cut with a typed error.
        _, data = packed
        for cut in structural_boundaries(data):
            if cut >= len(data) - 4:
                continue  # would reproduce the original container
            forged = data[:cut] + struct.pack("<I", zlib.crc32(data[:cut]))
            with pytest.raises(CodecError):
                load_plan(forged)

    def test_mid_payload_cut_with_valid_trailer_raises(self, packed):
        _, data = packed
        cut = len(data) // 2
        forged = data[:cut] + struct.pack("<I", zlib.crc32(data[:cut]))
        with pytest.raises(CodecError):
            load_plan(forged)


class TestScrubNeverRaises:
    def test_truncated_prefixes_scrub_unhealthy(self, packed):
        plan, data = packed
        cuts = set(structural_boundaries(data)) | set(range(0, len(data), 251))
        for cut in sorted(cuts):
            if cut >= len(data):
                continue
            report = scrub_container(data[:cut])
            assert not report.healthy
        # and the intact container is healthy
        report = scrub_container(data)
        assert report.healthy and report.blocks_ok == plan.nblocks

    def test_forged_trailer_cuts_scrub_unhealthy(self, packed):
        _, data = packed
        for cut in structural_boundaries(data):
            if cut >= len(data) - 4:
                continue
            forged = data[:cut] + struct.pack("<I", zlib.crc32(data[:cut]))
            report = scrub_container(forged)
            assert not report.healthy

    def test_single_bitflip_reports_sick_block(self, packed):
        plan, data = packed
        bad = bytearray(data)
        bad[len(data) * 2 // 3] ^= 0x10
        report = scrub_container(bytes(bad))
        assert not report.healthy
        assert not report.trailer_ok
        # one flipped byte in a payload shows up as exactly one sick block
        if report.fatal is None and len(report.blocks) == plan.nblocks:
            assert report.blocks_bad >= 1

    def test_meta_flip_reports_only_that_block(self, packed):
        plan, data = packed
        layout = block_layout(data)
        k = len(layout) // 2
        bad = bytearray(data[:-4])
        bad[layout[k][0] + 9] ^= 0x01  # a byte of block k's nnz_start
        forged = bytes(bad) + struct.pack("<I", zlib.crc32(bad))
        report = scrub_container(forged)
        assert report.fatal is None and report.trailer_ok
        assert len(report.blocks) == plan.nblocks
        assert report.blocks[k].meta_ok is False
        assert report.blocks[k].index.ok and report.blocks[k].value.ok
        assert all(b.ok for i, b in enumerate(report.blocks) if i != k)
        assert not report.healthy

    def test_cut_inside_value_payload_keeps_earlier_blocks(self, packed):
        _, data = packed
        layout = block_layout(data)
        k = len(layout) // 2
        _, value_payload, value_len = layout[k]
        assert value_len >= 2
        cut = value_payload + value_len // 2
        forged = data[:cut] + struct.pack("<I", zlib.crc32(data[:cut]))
        report = scrub_container(forged)
        assert report.fatal is not None
        assert not report.healthy
        assert len(report.blocks) >= k
        assert all(b.ok for b in report.blocks[:k])
