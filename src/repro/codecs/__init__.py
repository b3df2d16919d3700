"""Recoding codecs: the compression stack the UDP executes.

The paper stores block-CSR matrices under a combined **Delta → Snappy →
Huffman (DSH)** encoding (Section IV-B / V-A). All three codecs are
implemented here from scratch:

* :mod:`~repro.codecs.delta` — first-difference transform on the int32
  column-index stream ("turns arithmetic series into easily compressible
  repeating integers").
* :mod:`~repro.codecs.snappy` — Google's Snappy block format (varint
  preamble; literal / copy tags; hash-table LZ77 greedy matcher), binary
  compatible with the published format specification.
* :mod:`~repro.codecs.huffman` — canonical Huffman coding with the paper's
  per-matrix table built by sampling up to 40% of the 8 KB blocks.
* :mod:`~repro.codecs.pipeline` — block-oriented DSH composition +
  whole-matrix compression plans and bytes-per-nnz statistics.
* :mod:`~repro.codecs.engine` — the block recode engine (inline decode
  with retry and quarantine) and the decoded-block LRU cache that models
  the paper's steady-state block reuse.
* :mod:`~repro.codecs.errors` — the unified :class:`CodecError` taxonomy
  every decode-path failure derives from (see docs/ROBUSTNESS.md).
"""

from repro.codecs.base import Codec, IdentityCodec
from repro.codecs.errors import (
    BlockDecodeError,
    CodecError,
    ContainerError,
    CorruptPayloadError,
    CorruptStreamError,
    TruncatedContainerError,
)
from repro.codecs.delta import DeltaCodec, delta_decode, delta_encode
from repro.codecs.huffman import HuffmanCodec, HuffmanTable
from repro.codecs.pipeline import (
    BlockRecord,
    DSH_PIPELINE,
    MatrixCompression,
    RecodePipeline,
    SNAPPY_ONLY,
    compress_matrix,
)
from repro.codecs.autotune import AutotuneResult, CandidateSpec, autotune
from repro.codecs.engine import (
    BlockFailure,
    CacheStats,
    DecodedBlockCache,
    EngineStats,
    RecodeEngine,
    plan_fingerprint,
)
from repro.codecs.container import (
    BlockHealth,
    ContainerReader,
    RecordHealth,
    ScrubReport,
    load_csr,
    load_plan,
    save_plan,
    scrub_container,
)
from repro.codecs.rle import RLECodec, rle_decode, rle_encode
from repro.codecs.shuffle import ShuffleCodec, shuffle_bytes, unshuffle_bytes
from repro.codecs.snappy import SnappyCodec, snappy_compress, snappy_decompress
from repro.codecs.varint import read_varint, write_varint

__all__ = [
    "Codec",
    "IdentityCodec",
    "DeltaCodec",
    "delta_encode",
    "delta_decode",
    "SnappyCodec",
    "snappy_compress",
    "snappy_decompress",
    "HuffmanCodec",
    "HuffmanTable",
    "RecodePipeline",
    "DSH_PIPELINE",
    "SNAPPY_ONLY",
    "BlockRecord",
    "MatrixCompression",
    "compress_matrix",
    "read_varint",
    "write_varint",
    "RLECodec",
    "rle_encode",
    "rle_decode",
    "ShuffleCodec",
    "shuffle_bytes",
    "unshuffle_bytes",
    "autotune",
    "AutotuneResult",
    "CandidateSpec",
    "RecodeEngine",
    "BlockFailure",
    "DecodedBlockCache",
    "EngineStats",
    "CacheStats",
    "plan_fingerprint",
    "save_plan",
    "load_plan",
    "load_csr",
    "scrub_container",
    "ContainerReader",
    "ScrubReport",
    "BlockHealth",
    "RecordHealth",
    "CodecError",
    "CorruptStreamError",
    "CorruptPayloadError",
    "ContainerError",
    "TruncatedContainerError",
    "BlockDecodeError",
]
