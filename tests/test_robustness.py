"""Robustness / failure-injection tests: corrupted streams must fail
cleanly with a typed :class:`~repro.codecs.errors.CodecError` (which the
UDP simulator's ``UDPFault`` also derives from), never hang, crash, or
silently return wrong data that passes verification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codecs.errors import CodecError, CorruptStreamError
from repro.codecs.huffman import HuffmanTable
from repro.codecs.rle import rle_decode
from repro.codecs.snappy import snappy_compress, snappy_decompress
from repro.codecs.stats import dsh_plan
from repro.codecs.pipeline import BlockRecord, MatrixCompression
from repro.collection import generators
from repro.udp import Lane, UDPFault, assemble
from repro.udp.programs.snappy_prog import build_snappy_decode
from repro.udp.runtime import DecoderToolchain


class TestSnappyFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.binary(min_size=1, max_size=200))
    def test_random_bytes_never_crash(self, blob):
        # Arbitrary bytes: either a clean CorruptStreamError or a valid decode.
        try:
            snappy_decompress(blob)
        except CodecError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=8, max_size=300), st.integers(0, 299), st.integers(0, 255))
    def test_single_byte_corruption(self, data, pos, newbyte):
        compressed = bytearray(snappy_compress(data))
        pos = pos % len(compressed)
        if compressed[pos] == newbyte:
            return
        compressed[pos] = newbyte
        try:
            out = snappy_decompress(bytes(compressed))
        except CodecError:
            return
        # A successful decode of a corrupted stream is allowed (the format
        # has no checksum) but must still honour the preamble contract.
        assert isinstance(out, bytes)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=4, max_size=300), st.integers(1, 40))
    def test_truncation(self, data, cut):
        compressed = snappy_compress(data)
        truncated = compressed[: max(1, len(compressed) - cut)]
        if truncated == compressed:
            return
        try:
            out = snappy_decompress(truncated)
            # Truncation that lands exactly on an element boundary decodes
            # short -> must violate the preamble and raise; reaching here
            # means lengths still matched, which only happens for cut==0.
            assert out == data
        except CodecError:
            pass


class TestUDPSnappyFuzz:
    @pytest.fixture(scope="class")
    def asm(self):
        return assemble(build_snappy_decode())

    @settings(max_examples=80, deadline=None)
    @given(st.binary(min_size=1, max_size=120))
    def test_random_streams_fault_cleanly(self, asm, blob):
        lane = Lane(max_cycles=200_000)
        try:
            lane.run(asm, blob, max_output=1 << 16)
        except UDPFault:
            pass

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=8, max_size=200), st.integers(0, 199), st.integers(0, 255))
    def test_corrupted_streams_fault_or_finish(self, asm, data, pos, newbyte):
        compressed = bytearray(snappy_compress(data))
        compressed[pos % len(compressed)] = newbyte
        lane = Lane(max_cycles=500_000)
        try:
            lane.run(asm, bytes(compressed), max_output=1 << 18)
        except UDPFault:
            pass


class TestHuffmanRobustness:
    def test_garbage_payload_decodes_or_raises(self):
        table = HuffmanTable.from_samples([b"reference sample data"])
        rng = np.random.default_rng(3)
        for _ in range(20):
            blob = rng.bytes(50)
            try:
                out = table.decode_bits(blob, 30)
                assert len(out) == 30  # smoothing makes all codes valid
            except CodecError:
                pass

    def test_out_len_beyond_stream_raises(self):
        table = HuffmanTable.from_samples([b"xyz"])
        payload, _ = table.encode_bits(b"xyz")
        with pytest.raises(CorruptStreamError):
            table.decode_bits(payload, 10_000)


class TestRLERobustness:
    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=100))
    def test_random_bytes_never_crash(self, blob):
        try:
            rle_decode(blob)
        except CodecError:
            pass

    @pytest.mark.parametrize("count", [None, 2])
    def test_forged_run_rejected_before_allocation(self, count):
        # The second run's varint promises 13 << 28 lanes (13 GiB of int32).
        with pytest.raises(CorruptStreamError, match="overflows"):
            rle_decode(b"\x01\x00\x01\x00\x80\x80\x80\x80\r\x10", count=count)


class TestPlanTamperDetection:
    def test_corrupted_record_detected(self):
        plan = dsh_plan(generators.banded(800, bandwidth=4, seed=7))
        # Flip a byte in one index record's payload.
        target = 0
        rec = plan.index_records[target]
        mutated = bytearray(rec.payload)
        if not mutated:
            pytest.skip("empty payload")
        mutated[len(mutated) // 2] ^= 0xFF
        bad_rec = BlockRecord(
            orig_len=rec.orig_len,
            snappy_len=rec.snappy_len,
            bit_len=rec.bit_len,
            payload=bytes(mutated),
        )
        tampered = MatrixCompression(
            blocked=plan.blocked,
            index_records=(bad_rec,) + plan.index_records[1:],
            value_records=plan.value_records,
            index_table=plan.index_table,
            value_table=plan.value_table,
            use_delta=plan.use_delta,
            use_huffman=plan.use_huffman,
            block_bytes=plan.block_bytes,
        )
        # Either decode raises or verification flags the mismatch — it must
        # never silently pass.
        try:
            assert tampered.verify() is False
        except CodecError:
            pass

    def test_udp_chain_flags_tampered_block(self):
        plan = dsh_plan(generators.banded(600, bandwidth=3, seed=9))
        rec = plan.value_records[0]
        mutated = bytearray(rec.payload)
        mutated[0] ^= 0x01
        bad_rec = BlockRecord(rec.orig_len, rec.snappy_len, rec.bit_len, bytes(mutated))
        tampered = MatrixCompression(
            blocked=plan.blocked,
            index_records=plan.index_records,
            value_records=(bad_rec,) + plan.value_records[1:],
            index_table=plan.index_table,
            value_table=plan.value_table,
            use_delta=plan.use_delta,
            use_huffman=plan.use_huffman,
            block_bytes=plan.block_bytes,
        )
        toolchain = DecoderToolchain(tampered)
        try:
            result = toolchain.run_chain(0, "value")
            assert not result.verified
        except CodecError:
            pass
