"""Differential tests for the kernel backend-dispatch layer.

The ``numpy`` and ``native`` backends' contract is *byte-identical output
and identical :mod:`repro.codecs.errors` behaviour* vs the ``python``
reference loops. These tests enforce it the blunt way: run every op under
every available backend on
Hypothesis-generated inputs — valid, corrupt, and degenerate — and demand
the outcomes (bytes or exception type + message) match exactly. Backend
selection (set_backend / env var / autodetect), fallback on
:class:`KernelUnavailable`, the observability counters, and pool-worker
backend inheritance are covered alongside, as are the native backend's
build, its bounds checks and the registry's first-use thread safety.
"""

import ctypes
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels, obs
from repro.codecs.container import save_plan
from repro.codecs.huffman import HuffmanTable
from repro.codecs.pipeline import (
    DecodeTally,
    STAGE_DELTA,
    STAGE_HUFFMAN,
    STAGE_SNAPPY,
    TAG_MASK,
    block_streams,
    compress_matrix,
    record_span,
    record_stages,
)
from repro.codecs.snappy import snappy_compress, snappy_decompress
from repro.codecs.varint import (
    read_varint,
    read_varints,
    write_varint,
    write_varints,
    zigzag_decode,
    zigzag_encode,
)
from repro.collection import generators, representative_suite
from repro.core import recoded_spmv
from repro.kernels import ref
from repro.sparse.blocked import partition_csr

from tests.tagged_plans import encode_stream_record, reencode_with_tags

#: Every backend this process can run, the reference first.
BACKENDS = tuple(reversed(kernels.available_backends()))

#: Ops the numpy backend must actually implement (no silent reference-only).
VECTORIZED_OPS = (
    "huffman_encode",
    "huffman_decode",
    "snappy_decompress",
    "varint_encode_batch",
    "varint_decode_batch",
    "zigzag_encode",
    "zigzag_decode",
)


def _outcome(fn, *args, **kwargs):
    """Normalize a call to a comparable outcome: value or (type, message)."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - parity includes the exact type
        return ("err", type(exc).__name__, str(exc))


def _under_backends(fn, *args, **kwargs):
    """The same call's outcome under each backend, keyed by backend name."""
    out = {}
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            out[backend] = _outcome(fn, *args, **kwargs)
    return out


def _assert_parity(fn, *args, **kwargs):
    """Assert every backend produces the reference's outcome; return it."""
    res = _under_backends(fn, *args, **kwargs)
    assert all(out == res["python"] for out in res.values()), res
    return res["python"]


def _assert_parity_ok(fn, *args, **kwargs):
    """Like :func:`_assert_parity` but the call must succeed; returns the value."""
    outcome = _assert_parity(fn, *args, **kwargs)
    assert outcome[0] == "ok", outcome
    return outcome[1]


# ---------------------------------------------------------------------------
# Registry / backend selection
# ---------------------------------------------------------------------------


class TestBackendSelection:
    def test_every_op_has_reference_and_numpy_impls(self):
        ops = kernels.ops()
        for op in VECTORIZED_OPS:
            assert op in ops
            assert kernels.backends_for(op)[-2:] == ("numpy", "python"), op

    def test_set_backend_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.set_backend("fortran")

    def test_use_backend_scopes_and_restores(self):
        before = kernels.backend()
        with kernels.use_backend("python"):
            assert kernels.backend() == "python"
            with kernels.use_backend("numpy"):
                assert kernels.backend() == "numpy"
            assert kernels.backend() == "python"
        assert kernels.backend() == before

    def test_env_var_selects_backend_when_unpinned(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV, "python")
        with kernels.use_backend(None):  # drop any pin for the duration
            assert kernels.backend() == "python"
        monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV, "auto")
        with kernels.use_backend(None):
            assert kernels.backend() == kernels.REGISTRY.autodetect()

    def test_explicit_pin_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV, "python")
        with kernels.use_backend("numpy"):
            assert kernels.backend() == "numpy"

    def test_bad_env_var_falls_back_and_ticks_counter(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV, "fortran")
        with obs.scoped_registry() as reg, kernels.use_backend(None):
            assert kernels.backend() == kernels.REGISTRY.autodetect()
            assert reg.value("kernels.bad_backend_env", value="fortran") == 1

    def test_dispatch_ticks_labelled_counter(self):
        with obs.scoped_registry() as reg, kernels.use_backend("numpy"):
            zigzag_encode(np.arange(4, dtype=np.int32))
            assert reg.value("kernels.dispatch", op="zigzag_encode", backend="numpy") == 1
            assert reg.value("kernels.fallback", op="zigzag_encode", backend="numpy") == 0


# ---------------------------------------------------------------------------
# Huffman
# ---------------------------------------------------------------------------

data_blobs = st.binary(min_size=1, max_size=1024)


class TestHuffmanParity:
    @settings(max_examples=60, deadline=None)
    @given(data_blobs)
    def test_encode_decode_byte_identical(self, data):
        table = HuffmanTable.from_samples([data])
        payload, bit_len = _assert_parity_ok(table.encode_bits, data)
        assert _assert_parity_ok(table.decode_bits, payload, len(data)) == data
        assert bit_len == int(table.lengths[np.frombuffer(data, np.uint8)].sum())

    @settings(max_examples=60, deadline=None)
    @given(data_blobs, st.integers(0, 2**32), st.integers(1, 8))
    def test_corrupt_payload_error_parity(self, data, seed, nflips):
        """Bit flips / truncation must fail (or succeed) identically —
        including the exact CorruptStreamError message."""
        table = HuffmanTable.from_samples([data])
        with kernels.use_backend("python"):
            payload, _ = table.encode_bits(data)
        rng = np.random.default_rng(seed)
        buf = bytearray(payload)
        if buf and rng.integers(2):
            del buf[int(rng.integers(len(buf))):]  # truncate
        for _ in range(int(nflips)):
            if not buf:
                break
            buf[int(rng.integers(len(buf)))] ^= int(rng.integers(1, 256))
        outcome = _assert_parity(table.decode_bits, bytes(buf), len(data))
        if outcome[0] == "err":
            assert outcome[1] == "CorruptStreamError", outcome

    @settings(max_examples=40, deadline=None)
    @given(data_blobs, st.integers(1, 4096))
    def test_out_len_overrun_error_parity(self, data, extra):
        """Asking for more symbols than the stream holds must raise the
        same exhaustion error on both backends."""
        table = HuffmanTable.from_samples([data])
        with kernels.use_backend("python"):
            payload, _ = table.encode_bits(data)
        outcome = _assert_parity(table.decode_bits, payload, len(data) + extra)
        if outcome[0] == "err":
            assert outcome[1] == "CorruptStreamError", outcome

    def test_degenerate_single_symbol_table(self):
        data = b"\x07" * 300
        table = HuffmanTable.from_samples([data])
        payload, _bit_len = _assert_parity_ok(table.encode_bits, data)
        assert _assert_parity_ok(table.decode_bits, payload, len(data)) == data

    def test_non_kraft_table_falls_back_with_identical_bytes(self):
        """``from_lengths`` accepts wire tables the vectorized kernels
        cannot represent (overfull/colliding codes). Dispatch must fall
        back to the reference loops — ticking ``kernels.fallback`` — and
        still hand back the reference's exact bytes."""
        lengths = [1, 1, 1] + [0] * 253  # code 2 overflows length 1
        table = HuffmanTable.from_lengths(lengths)
        data = bytes([0, 1, 2, 1, 0, 2, 2, 1])
        with kernels.use_backend("python"):
            ref = _outcome(table.encode_bits, data)
        with obs.scoped_registry() as reg, kernels.use_backend("numpy"):
            vec = _outcome(table.encode_bits, data)
            assert reg.value("kernels.fallback", op="huffman_encode", backend="numpy") == 1
            # The fallback result is attributed to the backend that served it.
            assert reg.value("kernels.dispatch", op="huffman_encode", backend="python") == 1
            assert reg.value("kernels.dispatch", op="huffman_encode", backend="numpy") == 0
        assert vec == ref

    def test_decode_automaton_memoized_by_fingerprint(self):
        a = HuffmanTable.from_samples([b"memoize me"])
        b = HuffmanTable.from_lengths(a.lengths)  # same wire table, new object
        assert a.decode_automaton(stride=4) is a.decode_automaton(stride=4)
        assert a.decode_automaton(stride=4) is b.decode_automaton(stride=4)
        assert a.decode_automaton(stride=4) is not a.decode_automaton(stride=8)

    def test_canonical_codes_shared_across_rebuilds(self):
        a = HuffmanTable.from_samples([b"canonical cache"])
        b = HuffmanTable.deserialize(a.serialize())
        assert a.codes is b.codes  # one frozen array per distinct table
        assert not a.codes.flags.writeable


# ---------------------------------------------------------------------------
# Snappy
# ---------------------------------------------------------------------------


class TestSnappyParity:
    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=4096))
    def test_roundtrip_byte_identical(self, data):
        compressed = snappy_compress(data)
        assert _assert_parity_ok(snappy_decompress, compressed) == data

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=16, max_size=2048), st.integers(0, 2**32), st.integers(1, 6))
    def test_corrupt_stream_error_parity(self, data, seed, nflips):
        compressed = bytearray(snappy_compress(data))
        rng = np.random.default_rng(seed)
        if rng.integers(2):
            del compressed[int(rng.integers(1, len(compressed))):]
        for _ in range(int(nflips)):
            if not compressed:
                break
            compressed[int(rng.integers(len(compressed)))] ^= int(rng.integers(1, 256))
        outcome = _assert_parity(snappy_decompress, bytes(compressed))
        if outcome[0] == "err":
            assert outcome[1] == "CorruptStreamError", outcome

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=64))
    def test_garbage_stream_error_parity(self, blob):
        """Arbitrary bytes fed straight in: same accept/reject decision,
        same message, on both backends."""
        _assert_parity(snappy_decompress, blob)

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=1, max_size=512), st.integers(0, 600))
    def test_max_output_guard_parity(self, data, cap):
        compressed = snappy_compress(data)
        outcome = _assert_parity(snappy_decompress, compressed, cap)
        if cap >= len(data):
            assert outcome == ("ok", data)
        else:
            assert outcome[:2] == ("err", "CorruptStreamError"), outcome


# ---------------------------------------------------------------------------
# Snappy compress
# ---------------------------------------------------------------------------


def _compress_cases() -> dict[str, bytes]:
    """Inputs that reach every path of the matcher: each emitter, the
    copy splits, the skip heuristic and the 64 KiB fragment boundaries."""
    rng = np.random.default_rng(19)
    low = rng.integers(0, 4, 140_000, dtype=np.uint8).tobytes()
    cases = {"empty": b""}
    cases |= {f"{n} bytes": b"abcd"[:n] for n in range(1, 5)}
    cases |= {f"low entropy, {n} bytes": low[:n] for n in (65_535, 65_536, 65_537, 140_000)}
    # Runs whose copies split at 64 and 68 bytes (and every length between).
    cases |= {f"run of {n}": b"xy" + b"z" * n + b"xy" for n in range(56, 150)}
    cases["incompressible"] = rng.integers(0, 256, 70_000, dtype=np.uint8).tobytes()
    cases["0/255"] = bytes([0, 255]) * 40_000
    cases["period 3001"] = rng.integers(0, 256, 3001, dtype=np.uint8).tobytes() * 30
    return cases


def _assert_compress_parity(data: bytes) -> bytes:
    """``snappy_compress`` gives the reference's bytes on every backend."""
    want = ref.snappy_compress(data)
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            assert kernels.dispatch("snappy_compress", data) == want, (len(data), backend)
    return want


class TestSnappyCompressParity:
    """The ``native`` C matcher against the Python oracle: the same bytes
    on every backend, so containers are identical whichever one wrote them."""

    def test_byte_identical_to_the_reference(self):
        for name, data in _compress_cases().items():
            stream = _assert_compress_parity(data)
            assert ref.snappy_decompress(stream) == data, name

    def test_representative_block_streams(self):
        for entry in representative_suite(target_nnz=25_000, seed=1):
            idx, val = block_streams(partition_csr(entry.build()), use_delta=True)
            for stream in idx + val:
                _assert_compress_parity(stream)

    def test_containers_identical_on_every_backend(self, tmp_path):
        m = generators.banded(2000, bandwidth=5, seed=19)
        digests = {}
        for backend in BACKENDS:
            path = tmp_path / f"{backend}.dsh"
            with kernels.use_backend(backend):
                save_plan(compress_matrix(m), path)
            digests[backend] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert len(set(digests.values())) == 1, digests

    def test_one_dispatch_per_stream_and_no_fallback(self):
        m = generators.banded(2000, bandwidth=5, seed=19)
        for backend in BACKENDS:
            with obs.scoped_registry() as reg, kernels.use_backend(backend):
                plan = compress_matrix(m)
                dispatched = reg.value("kernels.dispatch", op="snappy_compress", backend=backend)
                fallbacks = [r for r in reg.snapshot().values() if r["name"] == "kernels.fallback"]
            assert dispatched == 2 * plan.nblocks, backend
            assert fallbacks == [], backend


# ---------------------------------------------------------------------------
# Varint / zigzag batches
# ---------------------------------------------------------------------------

varint_values = st.lists(
    st.one_of(
        st.integers(0, 127),  # 1-byte dense region
        st.integers(0, (1 << 32) - 1),  # full range
        st.sampled_from([0, 127, 128, (1 << 14) - 1, 1 << 14, (1 << 32) - 1]),
    ),
    max_size=64,
)


class TestVarintParity:
    @settings(max_examples=80, deadline=None)
    @given(varint_values)
    def test_encode_batch_matches_sequential(self, values):
        expected = b"".join(write_varint(v) for v in values)
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                assert write_varints(values) == expected, backend

    @settings(max_examples=80, deadline=None)
    @given(varint_values, st.integers(0, 3))
    def test_decode_batch_matches_sequential(self, values, pad):
        blob = b"\x00" * pad + b"".join(write_varint(v) for v in values)
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                out, end = read_varints(blob, len(values), offset=pad)
            assert out.dtype == np.uint32
            assert list(out) == values, backend
            assert end == len(blob), backend

    @settings(max_examples=120, deadline=None)
    @given(st.binary(max_size=24), st.integers(0, 6), st.integers(0, 2))
    def test_arbitrary_bytes_error_parity(self, blob, count, offset):
        """Fuzzed streams: the batch decode must agree with ``count``
        sequential ``read_varint`` calls — values, final offset, and the
        first fault's type and message."""

        def sequential():
            vals, pos = [], offset
            for _ in range(count):
                v, pos = read_varint(blob, pos)
                vals.append(v)
            return vals, pos

        ref = _outcome(sequential)
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                got = _outcome(read_varints, blob, count, offset)
            if got[0] == "ok":
                values, end = got[1]
                got = ("ok", (list(values), end))
            assert got == ref, backend
        if ref[0] == "err":
            assert ref[1] == "CorruptStreamError", ref

    def test_encode_batch_rejects_bad_values_identically(self):
        for bad in ([3, -1, 5], [1, 1 << 32]):
            outcome = _assert_parity(write_varints, bad)
            assert outcome[:2] == ("err", "ValueError"), outcome

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-(2**31), 2**31 - 1), max_size=64))
    def test_zigzag_roundtrip_parity(self, values):
        arr = np.asarray(values, dtype=np.int32)
        encoded = {}
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                enc = zigzag_encode(arr)
                assert enc.dtype == np.uint32
                np.testing.assert_array_equal(zigzag_decode(enc), arr)
                encoded[backend] = enc
        for enc in encoded.values():
            np.testing.assert_array_equal(enc, encoded["python"])


# ---------------------------------------------------------------------------
# Fused block decode (dsh_decode_span, a span of one block)
# ---------------------------------------------------------------------------

_BLOCK_PLAN = compress_matrix(generators.banded(300, bandwidth=4, seed=5), block_bytes=1024)


def _plan_with_table(table: HuffmanTable):
    """The fused-test plan re-encoded, DSH on every record, under ``table``."""
    plan = dataclasses.replace(_BLOCK_PLAN, index_table=table, value_table=table)
    dsh = STAGE_SNAPPY | STAGE_HUFFMAN
    n = plan.nblocks
    return reencode_with_tags(plan, [dsh | STAGE_DELTA] * n, [dsh] * n)


def _block_bytes(plan, index_record, value_record):
    """``dsh_decode_span`` of one block on the active backend, as
    comparable bytes."""
    span = record_span(plan, 0, (index_record,), (value_record,))
    [(col_idx, val)] = kernels.dispatch("dsh_decode_span", plan, span, DecodeTally())
    return col_idx.tobytes(), val.tobytes()


def _recrc(record, payload):
    return dataclasses.replace(record, payload=payload, payload_crc=zlib.crc32(payload))


def _with_snappy_stream(record, table, stream):
    """``record`` carrying ``stream`` in place of its Snappy stream."""
    with kernels.use_backend("python"):
        payload, bit_len = table.encode_bits(stream)
    return dataclasses.replace(
        _recrc(record, payload), snappy_len=len(stream), bit_len=bit_len
    )


def _corrupt_blocks():
    """``(label, plan, index_record, value_record)`` the reference rejects."""
    plan = _BLOCK_PLAN
    irec, vrec = plan.index_records[1], plan.value_records[1]
    with kernels.use_backend("python"):
        stream = plan.index_table.decode_bits(irec.payload, irec.snappy_len)
    body = stream[read_varint(stream, 0)[1]:]
    flipped = bytearray(irec.payload)
    flipped[len(flipped) // 3] ^= 0x5A
    cases = [
        ("crc mismatch", irec, dataclasses.replace(vrec, payload=vrec.payload[:-1])),
        ("bit flips, crc recomputed", _recrc(irec, bytes(flipped)), vrec),
        ("truncated huffman", _recrc(irec, irec.payload[: len(irec.payload) // 2]), vrec),
        ("truncated value huffman", irec, _recrc(vrec, vrec.payload[:-3])),
        ("oversized preamble", _with_snappy_stream(
            irec, plan.index_table, write_varint(irec.orig_len + 64) + body), vrec),
        ("overlong preamble", _with_snappy_stream(
            irec, plan.index_table, b"\xff" * 6 + body), vrec),
        ("33-bit preamble", _with_snappy_stream(
            irec, plan.index_table, b"\xff\xff\xff\xff\x7f" + body), vrec),
        ("orig_len short", dataclasses.replace(irec, orig_len=irec.orig_len - 4), vrec),
        ("orig_len long", irec, dataclasses.replace(vrec, orig_len=vrec.orig_len + 8)),
        ("orig_len huge", dataclasses.replace(irec, orig_len=1 << 31), vrec),
        ("orig_len negative", irec, dataclasses.replace(vrec, orig_len=-8)),
        ("snappy_len negative", dataclasses.replace(irec, snappy_len=-1), vrec),
    ]
    no_table = dataclasses.replace(plan, index_table=None)
    return [(label, plan, i, v) for label, i, v in cases] + [("no table", no_table, irec, vrec)]


class TestFusedBlockDecode:
    """``dsh_decode_span`` against the per-record ``python`` composition:
    the same bytes on every record kind, the same typed error (and
    message) on every corruption, and one dispatch per block."""

    def test_every_record_kind_byte_identical(self):
        n = _BLOCK_PLAN.nblocks
        raw, dsh = 0, STAGE_SNAPPY | STAGE_HUFFMAN
        plans = {
            "untagged": _BLOCK_PLAN,
            # Every stage combination, stored-raw (Snappy skipped) included.
            "tagged": reencode_with_tags(
                _BLOCK_PLAN, [t % (TAG_MASK + 1) for t in range(n)],
                [(t + 3) % (TAG_MASK + 1) for t in range(n)],
            ),
            "stored raw": reencode_with_tags(_BLOCK_PLAN, [raw] * n, [STAGE_DELTA] * n),
            "huffman only": reencode_with_tags(
                _BLOCK_PLAN, [STAGE_HUFFMAN | STAGE_DELTA] * n, [STAGE_HUFFMAN] * n),
            "snappy only": compress_matrix(
                generators.banded(300, bandwidth=4, seed=5), block_bytes=1024, use_huffman=False),
            # 10 codes of 1-10 bits, the other 246 symbols 18 bits: most
            # symbols miss the 11-bit lookup table and take the bit walk.
            "long codes": _plan_with_table(
                HuffmanTable.from_lengths(list(range(1, 11)) + [18] * 246)),
        }
        for name, plan in plans.items():
            for i in range(plan.nblocks):
                got = _assert_parity_ok(
                    _block_bytes, plan, plan.index_records[i], plan.value_records[i])
                block = _BLOCK_PLAN.blocked.blocks[i]
                assert got == (block.index_bytes(), block.value_bytes()), (name, i)

    def test_empty_block(self):
        plan = _BLOCK_PLAN
        empty = [
            dataclasses.replace(
                encode_stream_record(b"", STAGE_SNAPPY | STAGE_HUFFMAN, table), tag=None)
            for table in (plan.index_table, plan.value_table)
        ]
        assert _assert_parity_ok(_block_bytes, plan, *empty) == (b"", b"")

    def test_codes_past_56_bits_go_to_the_reference(self):
        plan = _plan_with_table(HuffmanTable.from_lengths(list(range(1, 51)) + [58] * 206))
        for backend in BACKENDS:
            with obs.scoped_registry() as reg, kernels.use_backend(backend):
                got = _block_bytes(plan, plan.index_records[0], plan.value_records[0])
                fallbacks = reg.value(
                    "kernels.fallback", op="dsh_decode_span", backend="native")
            block = _BLOCK_PLAN.blocked.blocks[0]
            assert got == (block.index_bytes(), block.value_bytes()), backend
            assert fallbacks == (backend == "native"), backend

    @pytest.mark.parametrize("case", range(len(_corrupt_blocks())))
    def test_typed_error_parity(self, case):
        label, plan, irec, vrec = _corrupt_blocks()[case]
        outcome = _assert_parity(_block_bytes, plan, irec, vrec)
        assert outcome[0] == "err" and outcome[1] in (
            "CorruptStreamError", "CorruptPayloadError", "CodecError"), (label, outcome)

    def test_one_dispatch_per_block_and_no_fallback(self):
        plan = _BLOCK_PLAN
        for backend in BACKENDS:
            with obs.scoped_registry() as reg, kernels.use_backend(backend):
                for i in range(plan.nblocks):
                    plan.decompress_block(i)
                snapshot = reg.snapshot()
            dispatched = {
                key: rec["value"] for key, rec in snapshot.items()
                if rec["name"] == "kernels.dispatch"
            }
            assert dispatched == {
                f"kernels.dispatch{{backend={backend},op=dsh_decode_span}}": plan.nblocks
            }, backend
            assert not [r for r in snapshot.values() if r["name"] == "kernels.fallback"]

    def test_threads_decode_concurrently(self):
        """Six threads decode every block at once (ctypes drops the GIL
        for the C call): every block is right and no counter update is
        lost."""
        plan, passes, nthreads = _BLOCK_PLAN, 3, 6
        want = [(b.index_bytes(), b.value_bytes()) for b in plan.blocked.blocks]
        errors: list = []

        def work():
            try:
                for _ in range(passes):
                    for i in range(plan.nblocks):
                        block = plan.decompress_block(i)
                        if (block.col_idx.tobytes(), block.val.tobytes()) != want[i]:
                            errors.append(i)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with obs.scoped_registry() as reg:
                threads = [threading.Thread(target=work) for _ in range(nthreads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        decoded = 2 * nthreads * passes * plan.nblocks
        assert reg.value("codecs.decode.records") == decoded
        assert reg.value("codecs.decode.record_seconds") == decoded

    def test_stage_seconds_split_the_decode(self):
        plan = _BLOCK_PLAN
        for backend in BACKENDS:
            with obs.scoped_registry() as reg, kernels.use_backend(backend):
                for i in range(plan.nblocks):
                    plan.decompress_block(i)
            for stage in ("huffman", "snappy", "delta"):
                assert reg.value("codecs.decode.stage_seconds", stage=stage) > 0, backend
            assert reg.value("codecs.decode.record_seconds") == 2 * plan.nblocks


# ---------------------------------------------------------------------------
# Native backend: build, delegation, bounds, error oracle, first-use race
# ---------------------------------------------------------------------------

_SRC = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(kernels.__file__))))

needs_native = pytest.mark.skipif(
    "native" not in kernels.available_backends(), reason="no C compiler to build native kernels"
)


def _run_fresh(script: str, **env) -> dict:
    """Run ``script`` in a fresh interpreter, backend left to autodetect;
    it prints one JSON object."""
    base = {k: v for k, v in os.environ.items() if k != kernels.KERNEL_BACKEND_ENV}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env={**base, "PYTHONPATH": _SRC, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _huffman_case():
    data = bytes(np.random.default_rng(3).integers(0, 12, 3000).astype(np.uint8))
    table = HuffmanTable.from_samples([data])
    with kernels.use_backend("python"):
        payload, _ = table.encode_bits(data)
    return data, table, payload


def _guarded(size: int, guard: int = 64) -> tuple[np.ndarray, int]:
    """A canary-filled buffer and the address of its ``size``-byte middle."""
    buf = np.full(size + 2 * guard, 0xA5, dtype=np.uint8)
    return buf, buf.ctypes.data + guard


def _guards_intact(buf: np.ndarray, size: int, guard: int = 64) -> bool:
    return bool((buf[:guard] == 0xA5).all() and (buf[guard + size :] == 0xA5).all())


#: A stored-raw empty record: ``(payload, snappy_len, stages, table, orig_len)``.
_EMPTY_RAW = (b"", 0, 0, None, 0)


def _c_decode_guarded(native, index, value, both=False):
    """Call the C ``dsh_decode_span`` on one block of two ``(payload,
    snappy_len, stages, table, orig_len)`` records, each into a guarded
    buffer of ``orig_len`` bytes. Returns the index buffer (and the value
    buffer when ``both``) and the status (0: both records decoded)."""
    rows, tables, outs, bufs = [], [], [], []
    for payload, snappy_len, stages, table, orig_len in (index, value):
        buf, out = _guarded(orig_len)
        src = ctypes.create_string_buffer(payload, len(payload) or 1)
        rows.append((src, np.array(
            [[ctypes.addressof(src), len(payload), snappy_len, stages, orig_len]], np.int64)))
        tables.append(
            native._huffman_table(table.lengths.tobytes()) if table is not None else None)
        outs.append(out)
        bufs.append(buf)
    done = native._lib.dsh_decode_span(
        1, rows[0][1].ctypes.data, rows[1][1].ctypes.data, *tables, *outs,
        np.zeros(6, np.int64).ctypes.data)
    status = int(done != 2)
    return (*bufs, status) if both else (bufs[0], status)


@needs_native
class TestNativeBackend:
    def test_autodetect_prefers_native(self):
        assert kernels.REGISTRY.autodetect() == "native"
        assert kernels.backends_for("huffman_decode")[0] == "native"
        assert kernels.backends_for("snappy_decompress")[0] == "native"
        assert kernels.backends_for("dsh_decode_span")[0] == "native"
        assert kernels.backends_for("snappy_compress")[0] == "native"

    def test_unimplemented_ops_resolve_to_numpy_without_fallback(self):
        data, table, _payload = _huffman_case()
        with obs.scoped_registry() as reg, kernels.use_backend("native"):
            table.encode_bits(data)
            read_varints(write_varints([1, 300, 70000]), 3)
            zigzag_decode(zigzag_encode(np.arange(-4, 4, dtype=np.int32)))
            for op in ("huffman_encode", "varint_encode_batch", "varint_decode_batch",
                       "zigzag_encode", "zigzag_decode"):
                assert reg.value("kernels.dispatch", op=op, backend="numpy") == 1, op
            assert not [r for r in reg.snapshot().values() if r["name"] == "kernels.fallback"]

    def test_truncated_huffman_and_out_len_overrun_stay_in_bounds(self):
        """Huffman-only records through the fused entry point, which then
        decodes straight into the caller's guarded output."""
        from repro.kernels import native

        data, table, payload = _huffman_case()
        # (payload, out_len, outcome kind); None = parity only (the zero
        # padding of the last byte may decode as a few extra symbols).
        cases = [(payload[:cut], len(data), "err") for cut in (0, 1, len(payload) // 2)]
        cases += [(payload, len(data) + extra, None) for extra in (1, 7, 8, 9)]
        cases += [(payload, len(data) + 4096, "err")]
        cases += [(payload, n, "ok") for n in (1, 5, 8, 9, len(data) - 3)]  # stop short
        for blob, out_len, kind in cases:
            outcome = _assert_parity(table.decode_bits, blob, out_len)
            if kind == "ok":
                assert outcome == ("ok", data[:out_len])
            elif kind == "err":
                assert outcome[:2] == ("err", "CorruptStreamError"), outcome
            buf, status = _c_decode_guarded(
                native, (blob, out_len, STAGE_HUFFMAN, table, out_len), _EMPTY_RAW)
            assert (status == 0) == (outcome[0] == "ok"), (len(blob), out_len)
            if status == 0:
                assert buf[64 : 64 + out_len].tobytes() == outcome[1]
            assert _guards_intact(buf, out_len), (len(blob), out_len)

    def test_corrupt_blocks_stay_in_bounds(self):
        """Every corrupt block of the parity corpus, through the C entry
        point with guarded outputs: rejected, and nothing written past
        either output. (A huge or negative ``orig_len`` never reaches C:
        the wrapper refuses to size an output no valid record can fill.)"""
        from repro.kernels import native

        for label, plan, irec, vrec in _corrupt_blocks():
            if not (0 <= irec.orig_len < 1 << 20 and 0 <= vrec.orig_len):
                continue
            records = []
            for rec, table, delta in ((irec, plan.index_table, plan.use_delta),
                                      (vrec, plan.value_table, False)):
                stages = record_stages(rec, plan.use_huffman, delta)
                records.append((rec.payload, rec.snappy_len, stages, table, rec.orig_len))
            idx_buf, val_buf, status = _c_decode_guarded(native, *records, both=True)
            if label != "crc mismatch":  # CRC is the wrapper's check
                assert status != 0, label
            assert _guards_intact(idx_buf, irec.orig_len), label
            assert _guards_intact(val_buf, vrec.orig_len), label

    def test_corrupt_snappy_streams_stay_in_bounds(self):
        from repro.kernels import native

        data = np.repeat(np.arange(300, dtype=np.int32), 3).tobytes()
        stream = snappy_compress(data)
        body = read_varint(stream, 0)[1]
        forged = [stream[:cut] for cut in range(body, len(stream), 7)]  # truncated
        forged += [
            write_varint(8) + b"\x0cabcd" + b"\x11\x09",  # copy-1 offset 9 > output 4
            write_varint(8) + b"\x0cabcd" + b"\x12\x00\x00",  # copy-2 offset 0
            write_varint(8) + b"\x0cabcd" + b"\xfe\x02\x00",  # copy-2 of 64 past expected
            write_varint(4) + b"\x1cabcdefgh",  # literal longer than the preamble
            write_varint(4) + b"\xf0\xff\x00abcd",  # 2-byte length past the input
            write_varint(12) + b"\x0cabcd" + b"\x13\x04\x00\x00\x00",  # copy-4 missing a byte
            write_varint(6) + b"\x0cabcd",  # ends short of the preamble
        ]
        for blob in forged:
            assert _assert_parity(snappy_decompress, blob)[:2] == ("err", "CorruptStreamError")
            expected, pos = read_varint(blob, 0)
            src = np.frombuffer(blob, dtype=np.uint8)
            buf, out = _guarded(expected)
            status = native._lib.snappy_decompress(src.ctypes.data, src.size, pos, out, expected)
            assert status != 0
            assert _guards_intact(buf, expected), blob

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        st.binary(max_size=4096),
        st.tuples(st.binary(min_size=1, max_size=9), st.integers(0, 3000)).map(
            lambda pr: pr[0] * pr[1]),
    ))
    def test_compress_roundtrip(self, data):
        with kernels.use_backend("native"):
            stream = snappy_compress(data)
            assert snappy_decompress(stream) == data
        assert stream == ref.snappy_compress(data)

    def test_compress_stays_in_bounds(self):
        """An output buffer too small for the stream is refused before
        any byte lands past it."""
        from repro.kernels import native

        data = _compress_cases()["low entropy, 65537 bytes"]
        body = len(ref.snappy_compress(data)) - len(write_varint(len(data)))
        src = np.frombuffer(data, dtype=np.uint8)
        for cap in (0, 1, body // 2, body - 1, body):
            buf, out = _guarded(cap)
            size = ctypes.c_int64()
            status = native._lib.snappy_compress(
                src.ctypes.data, src.size, out, cap, ctypes.byref(size))
            assert (status == 0) == (cap == body), cap
            assert _guards_intact(buf, cap), cap

    def test_c_rejecting_valid_input_is_an_internal_error(self, monkeypatch):
        from repro.kernels import native

        class Rejecting:
            def huffman_decode(self, *args):
                return 1

            def snappy_decompress(self, *args):
                return 1

            def snappy_compress(self, *args):
                return 1

            def dsh_decode_span(self, *args):
                return 0

        data, table, payload = _huffman_case()
        stream = snappy_compress(data)
        real = native._lib
        monkeypatch.setattr(native, "_lib", Rejecting())
        with kernels.use_backend("native"):
            with pytest.raises(RuntimeError, match="reference accepts"):
                table.decode_bits(payload, len(data))
            with pytest.raises(RuntimeError, match="reference accepts"):
                snappy_decompress(stream)
            # A compressor has no corrupt input: refusing is a bug, never
            # a fallback.
            with pytest.raises(RuntimeError, match="native snappy_compress failed"):
                snappy_compress(data)
            # The fused op alone rejecting: its reference run (whose
            # per-record ops still run in C) accepts the block.
            monkeypatch.setattr(Rejecting, "huffman_decode", staticmethod(real.huffman_decode))
            monkeypatch.setattr(
                Rejecting, "snappy_decompress", staticmethod(real.snappy_decompress))
            with pytest.raises(RuntimeError, match="decode_block_reference .*reference accepts"):
                _BLOCK_PLAN.decompress_block(0)

    def test_build_is_cached_per_user(self, tmp_path):
        script = """
            import json, os
            from repro import kernels
            backend = kernels.backend()
            cache = os.path.join(os.environ["XDG_CACHE_HOME"], "repro")
            files = sorted(os.listdir(cache))
            print(json.dumps({
                "backend": backend,
                "mode": os.stat(cache).st_mode & 0o777,
                "files": files,
                "mtime": os.stat(os.path.join(cache, files[0])).st_mtime_ns,
            }))
        """
        first = _run_fresh(script, XDG_CACHE_HOME=str(tmp_path))
        second = _run_fresh(script, XDG_CACHE_HOME=str(tmp_path))
        assert first["backend"] == "native"
        assert first["mode"] == 0o700
        assert len(first["files"]) == 1 and first["files"][0].endswith(".so")
        assert second == first  # loaded from the cache, not rebuilt


def test_no_compiler_leaves_autodetect_on_numpy(tmp_path):
    """A failed native build (no ``cc`` on PATH) must drop ``native`` from
    the available backends: autodetect picks ``numpy``, the bytes match the
    reference, and nothing ticks ``kernels.fallback``."""
    data, table, payload = _huffman_case()
    stream = snappy_compress(data)
    script = f"""
        import json
        from repro import kernels, obs
        from repro.codecs.huffman import HuffmanTable
        from repro.codecs.snappy import snappy_decompress
        table = HuffmanTable.deserialize(bytes.fromhex("{table.serialize().hex()}"))
        huff = table.decode_bits(bytes.fromhex("{payload.hex()}"), {len(data)})
        snap = snappy_decompress(bytes.fromhex("{stream.hex()}"))
        print(json.dumps({{
            "available": list(kernels.available_backends()),
            "backend": kernels.backend(),
            "outputs": [huff.hex(), snap.hex()],
            "fallback": sum(r["value"] for r in obs.registry().snapshot().values()
                            if r["name"] == "kernels.fallback"),
        }}))
    """
    empty = tmp_path / "bin"
    empty.mkdir()
    res = _run_fresh(script, PATH=str(empty), XDG_CACHE_HOME=str(tmp_path / "cache"))
    assert res["available"] == ["numpy", "python"]
    assert res["backend"] == "numpy"
    assert res["outputs"] == [data.hex(), data.hex()]
    assert res["fallback"] == 0


def test_first_dispatch_from_many_threads_is_safe():
    """Eight threads make a fresh process's first kernel dispatches at
    once: none may see a half-filled registry (a ``KeyError`` or a
    ``kernels.fallback`` tick)."""
    data, table, payload = _huffman_case()
    stream = snappy_compress(data)
    script = f"""
        import json, sys, threading
        from repro import obs
        from repro.codecs.huffman import HuffmanTable
        from repro.codecs.snappy import snappy_decompress
        table = HuffmanTable.deserialize(bytes.fromhex("{table.serialize().hex()}"))
        payload = bytes.fromhex("{payload.hex()}")
        stream = bytes.fromhex("{stream.hex()}")
        barrier = threading.Barrier(8)
        errors, outputs = [], []

        def first_call(i):
            barrier.wait()
            try:
                if i % 2:
                    outputs.append(snappy_decompress(stream).hex())
                else:
                    outputs.append(table.decode_bits(payload, {len(data)}).hex())
            except Exception as exc:
                errors.append(repr(exc))

        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=first_call, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        print(json.dumps({{
            "alive": sum(t.is_alive() for t in threads),
            "errors": errors,
            "outputs": sorted(set(outputs)),
            "fallback": sum(r["value"] for r in obs.registry().snapshot().values()
                            if r["name"] == "kernels.fallback"),
        }}))
    """
    res = _run_fresh(script)
    assert res["alive"] == 0
    assert res["errors"] == []
    assert res["outputs"] == [data.hex()]
    assert res["fallback"] == 0


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_first_recoded_spmv_from_two_threads_is_bit_identical(backend, tmp_path):
    """Two compute threads of a fresh process make its first
    ``recoded_spmv`` on a container at once, as a server's threads do at
    start: both succeed, bit-identical to a serial run on that backend."""
    m = generators.banded(800, bandwidth=5, seed=17)
    path = tmp_path / "m.dsh"
    save_plan(compress_matrix(m, block_bytes=2048), path)
    x = np.random.default_rng(17).standard_normal(m.ncols)
    np.save(tmp_path / "x.npy", x)
    with kernels.use_backend(backend):
        y_serial = recoded_spmv(str(path), x)[0]
    script = f"""
        import hashlib, json, sys, threading
        import numpy as np
        from repro import kernels, obs
        from repro.core import recoded_spmv
        x = np.load({str(tmp_path / "x.npy")!r})
        barrier = threading.Barrier(2)
        errors, shas = [], []

        def first_call():
            barrier.wait()
            try:
                y, _ = recoded_spmv({str(path)!r}, x)
                shas.append(hashlib.sha256(y.tobytes()).hexdigest())
            except Exception as exc:
                errors.append(repr(exc))

        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=first_call) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        print(json.dumps({{
            "backend": kernels.backend(),
            "alive": sum(t.is_alive() for t in threads),
            "errors": errors,
            "shas": shas,
            "fallback": sum(r["value"] for r in obs.registry().snapshot().values()
                            if r["name"] == "kernels.fallback"),
        }}))
    """
    res = _run_fresh(script, **{kernels.KERNEL_BACKEND_ENV: backend})
    assert res["backend"] == backend
    assert res["alive"] == 0
    assert res["errors"] == []
    assert res["shas"] == [hashlib.sha256(y_serial.tobytes()).hexdigest()] * 2
    assert res["fallback"] == 0
