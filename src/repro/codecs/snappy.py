"""Snappy block-format codec, implemented from scratch.

Binary compatible with the published Snappy format description
(https://github.com/google/snappy/blob/master/format_description.txt):

* stream preamble: uvarint uncompressed length;
* elements: a tag byte whose low 2 bits select
  ``00`` literal, ``01`` copy with 1-byte offset (len 4-11, offset < 2048),
  ``10`` copy with 2-byte offset (len 1-64), ``11`` copy with 4-byte offset.

The compressor is a greedy LZ77 matcher operating on 64 KiB input
fragments (like the reference implementation), with the reference's
"skip" heuristic so incompressible data costs little time. Its key table
is exact where C++ Snappy's is a lossy hash, so emitted bytes may differ
(any spec-conformant element stream is valid); the decompressor accepts
all conformant streams. Both directions are kernel ops: the Python
matcher (:mod:`repro.kernels.ref`) is the oracle, and ``native`` emits
its exact bytes, so containers are identical on every backend.
"""

from __future__ import annotations

from repro import kernels
from repro.codecs.base import Codec


def snappy_compress(data: bytes) -> bytes:
    """Compress ``data`` into a Snappy block-format stream."""
    return kernels.dispatch("snappy_compress", data)


def snappy_decompress(data: bytes, max_output: int | None = None) -> bytes:
    """Decompress a Snappy block-format stream.

    Args:
        data: the compressed stream.
        max_output: optional cap on the uncompressed size. A stream whose
            varint preamble promises more than this is rejected *before*
            any output is produced, so a corrupt preamble (up to 4 GiB)
            can never drive unbounded allocation. Container readers pass
            the record header's ``orig_len`` here.

    Raises:
        CorruptStreamError: on malformed streams (truncation, bad offsets,
            length mismatch against the preamble, or a preamble exceeding
            ``max_output``).
    """
    return kernels.dispatch("snappy_decompress", data, max_output)


class SnappyCodec(Codec):
    """Codec wrapper around :func:`snappy_compress` / :func:`snappy_decompress`."""

    name = "snappy"

    def encode(self, data: bytes) -> bytes:
        return snappy_compress(data)

    def decode(self, data: bytes) -> bytes:
        return snappy_decompress(data)
