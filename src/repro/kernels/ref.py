"""Reference (``python``) kernel implementations.

These are the ground-truth loops the vectorized backend is differentially
tested against: the exact per-bit Huffman codec and per-element Snappy
decoder the repo has carried since the seed, plus sequential batch
varint/zigzag built on :mod:`repro.codecs.varint`.
The greedy Snappy matcher serves ``python`` and ``numpy`` alike (it has
no vectorized form); ``native``'s C matcher must match it byte for byte.

Canonical-decoder table construction is memoized by table fingerprint
(the 256-byte lengths blob), so steady-state loops that decode thousands
of records against the same per-matrix table build the per-length
interval tables once, not per call.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.codecs.errors import CorruptStreamError
from repro.codecs.varint import read_varint, write_varint
from repro.kernels.registry import REGISTRY

_register = REGISTRY.register


# ---------------------------------------------------------------------------
# Huffman
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _encode_tables(lengths_blob: bytes, codes_blob: bytes) -> tuple[list[int], list[int]]:
    """Plain-int per-symbol (codes, lengths) lookup lists.

    Plain ints on purpose: numpy scalars would infect the bit buffer with
    fixed-width (wrapping) arithmetic.
    """
    codes = np.frombuffer(codes_blob, dtype=np.uint64).tolist()
    lengths = list(lengths_blob)
    return codes, lengths


@_register("huffman_encode", "python")
def huffman_encode(lengths: np.ndarray, codes: np.ndarray, data: bytes) -> tuple[bytes, int]:
    """Encode ``data`` to a MSB-first bitstream: ``(payload, bit_length)``."""
    code_l, len_l = _encode_tables(
        lengths.astype(np.uint8).tobytes(), codes.astype(np.uint64).tobytes()
    )
    out = bytearray()
    bitbuf = 0
    nbits = 0
    total_bits = 0
    for b in data:
        length = len_l[b]
        bitbuf = (bitbuf << length) | code_l[b]
        nbits += length
        total_bits += length
        while nbits >= 8:
            nbits -= 8
            out.append((bitbuf >> nbits) & 0xFF)
        bitbuf &= (1 << nbits) - 1
    if nbits:
        out.append((bitbuf << (8 - nbits)) & 0xFF)
    return bytes(out), total_bits


@lru_cache(maxsize=128)
def _decode_tables(lengths_blob: bytes) -> tuple[int, list[int], list[int], list[int], list[int]]:
    """Canonical per-length interval tables, memoized by fingerprint.

    Returns ``(max_len, first_code, count, sym_index, symbols)`` — the
    standard canonical-decoder artifacts (codes of length L occupy
    ``[first_code[L], first_code[L] + count[L])``).
    """
    lengths = list(lengths_blob)
    max_len = max(lengths) if lengths else 0
    first_code = [0] * (max_len + 2)
    count = [0] * (max_len + 2)
    for length in lengths:
        if length:
            count[length] += 1
    sym_index = [0] * (max_len + 2)
    symbols = sorted(
        (s for s in range(len(lengths)) if lengths[s] > 0),
        key=lambda s: (lengths[s], s),
    )
    code = 0
    idx = 0
    for length in range(1, max_len + 1):
        first_code[length] = code
        sym_index[length] = idx
        code = (code + count[length]) << 1
        idx += count[length]
    return max_len, first_code, count, sym_index, symbols


@_register("huffman_decode", "python")
def huffman_decode(
    lengths: np.ndarray, codes: np.ndarray, payload: bytes, out_len: int
) -> bytes:
    """Decode ``out_len`` symbols from a MSB-first bitstream.

    Raises:
        CorruptStreamError: stream ends, or an invalid code is met, before
            ``out_len`` symbols.
    """
    max_len, first_code, count, sym_index, symbols = _decode_tables(
        lengths.astype(np.uint8).tobytes()
    )
    out = bytearray()
    acc = 0
    acc_len = 0
    bit_pos = 0
    nbits_total = len(payload) * 8
    while len(out) < out_len:
        if bit_pos >= nbits_total:
            raise CorruptStreamError("bitstream exhausted before out_len symbols")
        byte = payload[bit_pos >> 3]
        bit = (byte >> (7 - (bit_pos & 7))) & 1
        bit_pos += 1
        acc = (acc << 1) | bit
        acc_len += 1
        if acc_len > max_len:
            raise CorruptStreamError("invalid code in bitstream")
        offset = acc - first_code[acc_len]
        if 0 <= offset < count[acc_len]:
            out.append(symbols[sym_index[acc_len] + offset])
            acc = 0
            acc_len = 0
    return bytes(out)


# ---------------------------------------------------------------------------
# Snappy
# ---------------------------------------------------------------------------


#: Reference implementation works in 64 KiB input fragments; back-references
#: never cross a fragment boundary, so 2-byte offsets always suffice.
FRAGMENT_SIZE = 65536

_MIN_MATCH = 4
_MAX_COPY_LEN = 64


def _emit_literal(out: bytearray, data: bytes, start: int, end: int) -> None:
    """Append a literal element for data[start:end]."""
    length = end - start
    if length <= 0:
        return
    n = length - 1
    if n < 60:
        out.append(n << 2)
    elif n < (1 << 8):
        out.append(60 << 2)
        out.append(n)
    elif n < (1 << 16):
        out.append(61 << 2)
        out += n.to_bytes(2, "little")
    elif n < (1 << 24):
        out.append(62 << 2)
        out += n.to_bytes(3, "little")
    else:
        out.append(63 << 2)
        out += n.to_bytes(4, "little")
    out += data[start:end]


def _emit_copy(out: bytearray, offset: int, length: int) -> None:
    """Append copy elements covering ``length`` bytes at ``offset`` back."""
    # Long matches are split into <=64-byte copies.
    while length >= _MAX_COPY_LEN + _MIN_MATCH:
        _emit_one_copy(out, offset, _MAX_COPY_LEN)
        length -= _MAX_COPY_LEN
    if length > _MAX_COPY_LEN:
        # Leave a >=MIN_MATCH tail so the final copy is well-formed.
        half = length - _MIN_MATCH
        _emit_one_copy(out, offset, half)
        length -= half
    _emit_one_copy(out, offset, length)


def _emit_one_copy(out: bytearray, offset: int, length: int) -> None:
    if 4 <= length <= 11 and offset < 2048:
        out.append(1 | ((length - 4) << 2) | ((offset >> 8) << 5))
        out.append(offset & 0xFF)
    elif offset < (1 << 16):
        out.append(2 | ((length - 1) << 2))
        out += offset.to_bytes(2, "little")
    else:
        out.append(3 | ((length - 1) << 2))
        out += offset.to_bytes(4, "little")


def _match_length(data: bytes, a: int, b: int, end: int) -> int:
    """Length of the common prefix of data[a:] and data[b:], capped at end-b."""
    n = 0
    limit = end - b
    # Chunked comparison: big strides first, then 8-byte words, then bytes —
    # near-misses past a 32-byte boundary no longer degrade to per-byte scans.
    while n + 32 <= limit and data[a + n : a + n + 32] == data[b + n : b + n + 32]:
        n += 32
    while n + 8 <= limit and data[a + n : a + n + 8] == data[b + n : b + n + 8]:
        n += 8
    while n < limit and data[a + n] == data[b + n]:
        n += 1
    return n


def _compress_fragment(data: bytes, start: int, end: int, out: bytearray) -> None:
    """Greedy LZ77 over one fragment; back-references stay inside it."""
    table: dict[bytes, int] = {}
    ip = start
    literal_start = start
    skip_fails = 0
    # Last position where a 4-byte key can start.
    last = end - _MIN_MATCH
    while ip <= last:
        key = data[ip : ip + _MIN_MATCH]
        candidate = table.get(key)
        table[key] = ip
        if candidate is not None and data[candidate : candidate + _MIN_MATCH] == key:
            # Found a match: flush pending literal, then extend.
            _emit_literal(out, data, literal_start, ip)
            length = _MIN_MATCH + _match_length(
                data, candidate + _MIN_MATCH, ip + _MIN_MATCH, end
            )
            _emit_copy(out, ip - candidate, length)
            # Seed the table inside the match so nearby repeats are found.
            match_end = ip + length
            seed = ip + 1
            seed_stop = min(match_end, last + 1)
            while seed < seed_stop:
                table[data[seed : seed + _MIN_MATCH]] = seed
                seed += 7
            ip = match_end
            literal_start = ip
            skip_fails = 0
        else:
            # Reference "skip" heuristic: accelerate through incompressible
            # regions by stepping further after repeated misses.
            skip_fails += 1
            ip += 1 + (skip_fails >> 5)
    _emit_literal(out, data, literal_start, end)


@_register("snappy_compress", "numpy")
@_register("snappy_compress", "python")
def snappy_compress(data: bytes) -> bytes:
    """Compress ``data`` into a Snappy block-format stream."""
    data = bytes(data)
    out = bytearray(write_varint(len(data)))
    for frag_start in range(0, len(data), FRAGMENT_SIZE):
        frag_end = min(frag_start + FRAGMENT_SIZE, len(data))
        _compress_fragment(data, frag_start, frag_end, out)
    return bytes(out)


@_register("snappy_decompress", "python")
def snappy_decompress(data: bytes, max_output: int | None = None) -> bytes:
    """Per-element Snappy block-format decode (see
    :func:`repro.codecs.snappy.snappy_decompress` for the contract)."""

    expected, pos = read_varint(data, 0)
    if max_output is not None and expected > max_output:
        raise CorruptStreamError(
            f"snappy preamble promises {expected} bytes, caller allows {max_output}"
        )
    out = bytearray()
    n = len(data)
    while pos < n:
        tag = data[pos]
        pos += 1
        kind = tag & 3
        if kind == 0:  # literal
            code = tag >> 2
            if code < 60:
                length = code + 1
            else:
                extra = code - 59
                if pos + extra > n:
                    raise CorruptStreamError("truncated literal length")
                length = int.from_bytes(data[pos : pos + extra], "little") + 1
                pos += extra
            if pos + length > n:
                raise CorruptStreamError("truncated literal body")
            out += data[pos : pos + length]
            pos += length
            if len(out) > expected:
                raise CorruptStreamError("output exceeds preamble length")
            continue
        if kind == 1:
            if pos >= n:
                raise CorruptStreamError("truncated copy-1")
            length = 4 + ((tag >> 2) & 0x7)
            offset = ((tag >> 5) << 8) | data[pos]
            pos += 1
        elif kind == 2:
            if pos + 2 > n:
                raise CorruptStreamError("truncated copy-2")
            length = (tag >> 2) + 1
            offset = int.from_bytes(data[pos : pos + 2], "little")
            pos += 2
        else:
            if pos + 4 > n:
                raise CorruptStreamError("truncated copy-4")
            length = (tag >> 2) + 1
            offset = int.from_bytes(data[pos : pos + 4], "little")
            pos += 4
        if offset == 0 or offset > len(out):
            raise CorruptStreamError(f"copy offset {offset} out of range at output {len(out)}")
        if offset >= length:
            src = len(out) - offset
            out += out[src : src + length]
        else:
            # Overlapping copy: the run repeats with period `offset`.
            pattern = out[len(out) - offset :]
            reps = -(-length // offset)  # ceil
            out += (pattern * reps)[:length]
        if len(out) > expected:
            raise CorruptStreamError("output exceeds preamble length")
    if len(out) != expected:
        raise CorruptStreamError(f"expected {expected} bytes, produced {len(out)}")
    return bytes(out)


# ---------------------------------------------------------------------------
# Batch varint / zigzag
# ---------------------------------------------------------------------------


@_register("varint_encode_batch", "python")
def varint_encode_batch(values) -> bytes:
    """Concatenated uvarints, identical to sequential ``write_varint``."""
    vals = np.asarray(values).tolist() if not isinstance(values, (list, tuple)) else values
    return b"".join(write_varint(int(v)) for v in vals)


@_register("varint_decode_batch", "python")
def varint_decode_batch(data: bytes, count: int, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode ``count`` back-to-back uvarints starting at ``offset``.

    Returns ``(uint32 array, next_offset)``; raises
    :class:`CorruptStreamError` exactly like sequential ``read_varint``.
    """

    out = np.empty(count, dtype=np.uint32)
    pos = offset
    for i in range(count):
        value, pos = read_varint(data, pos)
        out[i] = value
    return out, pos


@_register("zigzag_encode", "python")
def zigzag_encode(values) -> np.ndarray:
    """Map int32 to uint32 so sign alternates from zero: 0,-1,1,-2,2 → 0,1,2,3,4."""
    arr = np.asarray(values, dtype=np.int32)
    out = np.empty(arr.shape, dtype=np.uint32)
    flat = arr.ravel()
    oflat = out.ravel()
    for i, v in enumerate(flat.tolist()):
        oflat[i] = ((v << 1) ^ (v >> 31)) & 0xFFFFFFFF
    return out


@_register("zigzag_decode", "python")
def zigzag_decode(values) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    arr = np.asarray(values, dtype=np.uint32)
    out = np.empty(arr.shape, dtype=np.int32)
    flat = arr.ravel()
    oflat = out.ravel()
    for i, u in enumerate(flat.tolist()):
        decoded = (u >> 1) ^ -(u & 1)
        oflat[i] = decoded & 0xFFFFFFFF if decoded >= 0 else decoded
    return out
