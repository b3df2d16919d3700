"""Run-length codec for int32 lanes — a "customized encoding on top of CSR
for matrices with particular structure" (the paper's future-work item).

Delta-encoded index streams of banded/diagonal matrices are almost entirely
runs of one repeated value (the constant stride). RLE represents each run
as ``uvarint(count) || uvarint(zigzag(value))``, collapsing such streams to
a handful of bytes — smaller *and* far cheaper to decode than Snappy, which
is the point of a programmable recoding engine: new formats are a new UDP
program, not new hardware (see
:func:`repro.udp.programs.rle_prog.build_rle_decode`).
"""

from __future__ import annotations

import numpy as np

from repro.codecs.errors import CorruptStreamError

from repro.codecs.base import Codec
from repro.codecs.varint import read_varint, write_varint

_U32 = 1 << 32

#: Most int32 lanes one stream may decode to without a ``count``: 1 GiB,
#: the container's per-block byte cap. A forged run length beyond it is
#: rejected before it sizes an allocation.
MAX_RLE_LANES = 1 << 28


def zigzag_encode(value: int) -> int:
    """Map a signed int32 onto an unsigned int (small magnitudes stay small)."""
    if not -(1 << 31) <= value < (1 << 31):
        raise ValueError(f"value {value} out of int32 range")
    return (value << 1) ^ (value >> 31) if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(encoded: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    if encoded < 0:
        raise ValueError("zigzag input must be non-negative")
    return (encoded >> 1) if encoded % 2 == 0 else -((encoded + 1) >> 1)


def rle_encode(values: np.ndarray) -> bytes:
    """Encode an int32 array as (count, zigzag(value)) uvarint pairs."""
    arr = np.asarray(values, dtype=np.int32)
    out = bytearray()
    if arr.size == 0:
        return bytes(out)
    # Run boundaries.
    change = np.empty(arr.size, dtype=bool)
    change[0] = True
    change[1:] = arr[1:] != arr[:-1]
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], arr.size)
    for start, end in zip(starts, ends):
        out += write_varint(int(end - start))
        out += write_varint(zigzag_encode(int(arr[start])))
    return bytes(out)


def rle_decode(data: bytes, count: int | None = None) -> np.ndarray:
    """Decode an RLE stream back to int32.

    Args:
        data: the encoded stream.
        count: expected element count (validated when given).

    Raises:
        CorruptStreamError: truncated stream, zero-length run, a run past
            ``count`` (or :data:`MAX_RLE_LANES`), or count mismatch.
    """
    pos = 0
    chunks: list[np.ndarray] = []
    total = 0
    limit = MAX_RLE_LANES if count is None else min(count, MAX_RLE_LANES)
    n = len(data)
    while pos < n:
        run, pos = read_varint(data, pos)
        if run == 0:
            raise CorruptStreamError("zero-length run")
        if run > limit - total:
            raise CorruptStreamError(f"run of {run} overflows {limit} lanes")
        zz, pos = read_varint(data, pos)
        value = zigzag_decode(zz)
        chunks.append(np.full(run, value, dtype=np.int32))
        total += run
    out = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int32)
    if count is not None and total != count:
        raise CorruptStreamError(f"decoded {total} elements, expected {count}")
    return out


class RLECodec(Codec):
    """Byte-stream adapter: payload is little-endian int32 lanes.

    The encoded form is prefixed with ``uvarint(element_count)`` so decode
    is self-delimiting in a byte pipeline.
    """

    name = "rle"

    def encode(self, data: bytes) -> bytes:
        if len(data) % 4:
            raise ValueError(f"rle payload must be 4-byte aligned, got {len(data)}")
        arr = np.frombuffer(data, dtype="<i4")
        return write_varint(arr.size) + rle_encode(arr)

    def decode(self, data: bytes) -> bytes:
        count, pos = read_varint(data, 0)
        return rle_decode(data[pos:], count=count).astype("<i4").tobytes()
