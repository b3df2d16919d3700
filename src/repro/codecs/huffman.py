"""Canonical Huffman codec with sampled per-matrix tables.

Paper Section IV-B: "We generate a Huffman tree for each sparse matrix by
sampling a subset of the 8KB blocks. The number of blocks sampled was varied
(up to 40% of the total number of blocks) to get good coverage."

Because the table is built from a *sample*, symbols outside the sample must
still be encodable: frequencies are add-one smoothed over the full 256-byte
alphabet, so every byte always has a code.

Besides plain encode/decode, :meth:`HuffmanTable.decode_automaton` exports
the code tree as a stride-bit DFA — the exact artifact the UDP toolchain
compiles into multi-way-dispatch blocks (see
:mod:`repro.udp.programs.huffman_prog`).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro import kernels
from repro.codecs.errors import CorruptStreamError

from repro.codecs.base import Codec

ALPHABET = 256


def _code_lengths(freqs: np.ndarray) -> np.ndarray:
    """Huffman code lengths for strictly positive frequencies (package
    merge is unnecessary: depths here stay well under 64)."""
    heap: list[tuple[int, int, tuple]] = []
    for sym in range(ALPHABET):
        # (freq, tiebreak, leaf-set) — the tiebreak keeps heap ordering total.
        heap.append((int(freqs[sym]), sym, (sym,)))
    heapq.heapify(heap)
    lengths = np.zeros(ALPHABET, dtype=np.uint8)
    counter = ALPHABET
    while len(heap) > 1:
        f1, _, s1 = heapq.heappop(heap)
        f2, _, s2 = heapq.heappop(heap)
        merged = s1 + s2
        for sym in merged:
            lengths[sym] += 1
        heapq.heappush(heap, (f1 + f2, counter, merged))
        counter += 1
    return lengths


@lru_cache(maxsize=256)
def _canonical_codes_cached(lengths_blob: bytes) -> np.ndarray:
    """Canonical code assignment, memoized by table fingerprint.

    Every table with the same length vector has the same codes, and
    steady-state loops rebuild tables from the same 256-byte wire blob per
    record — so codes are computed once per distinct table, not per call.
    The cached array is frozen read-only because it is shared.
    """
    lengths = np.frombuffer(lengths_blob, dtype=np.uint8)
    order = sorted(range(ALPHABET), key=lambda s: (int(lengths[s]), s))
    codes = np.zeros(ALPHABET, dtype=np.uint64)
    code = 0
    prev_len = 0
    for sym in order:
        length = int(lengths[sym])
        if length == 0:
            continue
        code <<= length - prev_len
        codes[sym] = code
        code += 1
        prev_len = length
    codes.flags.writeable = False
    return codes


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codes: symbols sorted by (length, value), codes
    increase sequentially, left-shifted at each length boundary."""
    return _canonical_codes_cached(np.ascontiguousarray(lengths, dtype=np.uint8).tobytes())


@dataclass(frozen=True)
class HuffmanTable:
    """A canonical Huffman code over the byte alphabet.

    Attributes:
        lengths: per-symbol code length in bits (uint8[256]).
        codes: per-symbol canonical code value (uint64[256]).
    """

    lengths: np.ndarray
    codes: np.ndarray

    @classmethod
    def from_frequencies(cls, freqs: Iterable[int]) -> "HuffmanTable":
        """Build from raw byte counts; add-one smoothing guarantees every
        symbol is encodable."""
        f = np.asarray(list(freqs), dtype=np.int64)
        if f.shape != (ALPHABET,):
            raise ValueError(f"need {ALPHABET} frequencies, got {f.shape}")
        if np.any(f < 0):
            raise ValueError("negative frequency")
        f = f + 1  # smoothing
        lengths = _code_lengths(f)
        return cls(lengths=lengths, codes=_canonical_codes(lengths))

    @classmethod
    def from_samples(cls, samples: Iterable[bytes]) -> "HuffmanTable":
        """Build from sampled blobs (the paper's sampled 8 KB blocks)."""
        counts = np.zeros(ALPHABET, dtype=np.int64)
        for blob in samples:
            if blob:
                counts += np.bincount(
                    np.frombuffer(blob, dtype=np.uint8), minlength=ALPHABET
                )
        return cls.from_frequencies(counts)

    @classmethod
    def from_lengths(cls, lengths: Iterable[int]) -> "HuffmanTable":
        """Rebuild from serialized code lengths (canonical codes are implied)."""
        arr = np.asarray(list(lengths), dtype=np.uint8)
        if arr.shape != (ALPHABET,):
            raise ValueError(f"need {ALPHABET} lengths, got {arr.shape}")
        return cls(lengths=arr, codes=_canonical_codes(arr))

    def serialize(self) -> bytes:
        """Wire form: one length byte per symbol (256 bytes)."""
        return self.lengths.astype(np.uint8).tobytes()

    @classmethod
    def deserialize(cls, blob: bytes) -> "HuffmanTable":
        if len(blob) != ALPHABET:
            raise CorruptStreamError(f"table blob must be {ALPHABET} bytes")
        lengths = np.frombuffer(blob, dtype=np.uint8).copy()
        # Canonical codes live in uint64; a length past 63 bits can only
        # come from a corrupt stream, so reject it as data (not overflow).
        if lengths.max(initial=0) > 63:
            raise CorruptStreamError("corrupt huffman table: code length exceeds 63 bits")
        return cls(lengths=lengths, codes=_canonical_codes_cached(bytes(blob)))

    @property
    def max_length(self) -> int:
        return int(self.lengths.max())

    @property
    def fingerprint(self) -> bytes:
        """Identity key for kernel/automaton caches (the wire-form blob:
        canonical codes are implied by lengths, so this is total)."""
        return self.serialize()

    def expected_bits_per_byte(self, freqs: np.ndarray) -> float:
        """Average code length under a byte distribution (for stats)."""
        f = np.asarray(freqs, dtype=np.float64)
        total = f.sum()
        if total == 0:
            return 0.0
        return float((f * self.lengths).sum() / total)

    # -- streaming ----------------------------------------------------------

    def encode_bits(self, data: bytes) -> tuple[bytes, int]:
        """Encode to a MSB-first bitstream.

        Returns:
            ``(payload, bit_length)`` — payload is zero-padded to a byte.
        """
        return kernels.dispatch("huffman_encode", self.lengths, self.codes, data)

    def decode_bits(self, payload: bytes, out_len: int) -> bytes:
        """Decode ``out_len`` symbols from a MSB-first bitstream.

        Uses the canonical first-code/first-index tables (the per-length
        interval test), i.e. the standard canonical decoder.

        Raises:
            CorruptStreamError: if the stream ends, or hits an invalid
                code, before ``out_len`` symbols.
        """
        return kernels.dispatch("huffman_decode", self.lengths, self.codes, payload, out_len)

    # -- DFA export (consumed by the UDP program generator) ------------------

    def decode_automaton(self, stride: int = 4) -> "HuffmanDFA":
        """Compile the code tree into a DFA consuming ``stride`` bits per
        step. States are trie nodes; each transition emits 0+ symbols.

        Memoized by table fingerprint: every plan compiled against the
        same table (and every UDP program sharing a matrix) reuses one
        compiled — and treated as immutable — automaton.
        """
        if not 1 <= stride <= 8:
            raise ValueError("stride must be in 1..8")
        return _decode_automaton_cached(self.fingerprint, stride)


@lru_cache(maxsize=128)
def _decode_automaton_cached(lengths_blob: bytes, stride: int) -> "HuffmanDFA":
    lengths = np.frombuffer(lengths_blob, dtype=np.uint8)
    codes = _canonical_codes(lengths)
    # Build the binary trie: node -> (child0, child1) or leaf symbol.
    children: list[list[int]] = [[-1, -1]]  # node 0 = root
    leaf_symbol: dict[int, int] = {}
    for sym in range(ALPHABET):
        length = int(lengths[sym])
        if length == 0:
            continue
        code = int(codes[sym])
        node = 0
        for i in range(length - 1, -1, -1):
            bit = (code >> i) & 1
            if children[node][bit] == -1:
                children.append([-1, -1])
                children[node][bit] = len(children) - 1
            node = children[node][bit]
        leaf_symbol[node] = sym
    # Walk every (state, chunk) pair.
    nstates = len(children)
    table: list[list[tuple[int, tuple[int, ...]]]] = []
    for state in range(nstates):
        if state in leaf_symbol:
            table.append([])  # leaves are never resting states
            continue
        row: list[tuple[int, tuple[int, ...]]] = []
        for chunk in range(1 << stride):
            node = state
            emitted: list[int] = []
            for i in range(stride - 1, -1, -1):
                bit = (chunk >> i) & 1
                node = children[node][bit]
                if node == -1:
                    # Dead path (padding bits); stay dead.
                    node = 0
                    emitted = emitted  # unchanged; treated as no-emit
                    break
                if node in leaf_symbol:
                    emitted.append(leaf_symbol[node])
                    node = 0
            row.append((node, tuple(emitted)))
        table.append(row)
    return HuffmanDFA(stride=stride, transitions=table, root=0)


@dataclass(frozen=True)
class HuffmanDFA:
    """Stride-bit decode DFA.

    ``transitions[state][chunk] = (next_state, emitted_symbols)``; leaf trie
    nodes have empty rows (decoding always rests on internal nodes).
    """

    stride: int
    transitions: list[list[tuple[int, tuple[int, ...]]]]
    root: int

    @property
    def nstates(self) -> int:
        return len(self.transitions)

    def decode(self, payload: bytes, out_len: int) -> bytes:
        """Reference DFA decode (must agree with
        :meth:`HuffmanTable.decode_bits`); used to validate the UDP program."""
        out = bytearray()
        state = self.root
        for byte in payload:
            for shift in range(8 - self.stride, -1, -self.stride):
                chunk = (byte >> shift) & ((1 << self.stride) - 1)
                state, emitted = self.transitions[state][chunk]
                for sym in emitted:
                    if len(out) < out_len:
                        out.append(sym)
                if len(out) >= out_len:
                    return bytes(out)
        if len(out) < out_len:
            raise CorruptStreamError("bitstream exhausted before out_len symbols")
        return bytes(out)


class HuffmanCodec(Codec):
    """Codec wrapper: frames the bitstream as ``uvarint(out_len) ||
    uvarint(bit_len) || payload`` so it composes in a byte pipeline."""

    name = "huffman"

    def __init__(self, table: HuffmanTable):
        self.table = table

    def encode(self, data: bytes) -> bytes:
        from repro.codecs.varint import write_varint

        payload, bit_len = self.table.encode_bits(data)
        return write_varint(len(data)) + write_varint(bit_len) + payload

    def decode(self, data: bytes) -> bytes:
        from repro.codecs.varint import read_varint

        out_len, pos = read_varint(data, 0)
        bit_len, pos = read_varint(data, pos)
        payload = data[pos:]
        if len(payload) * 8 < bit_len:
            raise CorruptStreamError("truncated huffman payload")
        return self.table.decode_bits(payload, out_len)
