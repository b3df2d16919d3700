"""Vectorized (``numpy``) kernel implementations.

Byte-identical to :mod:`repro.kernels.ref` by construction, differential-
tested in ``tests/test_kernels.py``, and raising the same
:mod:`repro.codecs.errors` types on corrupt input.

* **Huffman encode** — gather per-symbol lengths/codes, expand every code
  into an MSB-first bit matrix, select the valid bits in stream order and
  ``np.packbits`` them (zero-padded tail byte, like the reference).
* **Huffman decode** — the code tree compiles (once per table
  fingerprint) into a stride-8 DFA stored as flat arrays:
  ``next_state[state][byte]``, up-to-8 emitted symbols per transition,
  and a dead-path flag. Decoding is a light state walk over the payload
  bytes followed by one vectorized gather/flatten of the emissions — the
  array-automaton form of :meth:`HuffmanTable.decode_automaton`.
* **Snappy decompress** — two-phase: scan the tag stream once (validating
  exactly like the reference), then materialize literal runs and
  non-overlapping copies as slice assignments into a preallocated buffer;
  overlapping copies tile their period vectorized.
* **varint/zigzag** — closed-form batch encode/decode over byte columns.

Tables whose canonical codes overflow their bit lengths (possible only
for corrupt/hand-built tables; real tables are Kraft-complete) are not
representable as a trie, so those calls raise :class:`KernelUnavailable`
and dispatch re-runs them on the reference backend.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.codecs.errors import CorruptStreamError
from repro.kernels.registry import REGISTRY, KernelUnavailable

_register = REGISTRY.register
REGISTRY.mark_available("numpy")

#: A stride-8 step can emit at most 8 symbols (codes are >=1 bit).
_MAX_EMIT = 8


# ---------------------------------------------------------------------------
# Huffman encode
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _codes_fit(lengths_blob: bytes, codes_blob: bytes) -> bool:
    """True when every code value fits in its bit length.

    The reference encoder ORs the raw code into the bit buffer, so an
    overflowing code (only possible for non-Kraft corrupt tables) bleeds
    into previously emitted bits — semantics a masked vectorized pack
    cannot reproduce. Such tables fall back to the reference.
    """
    lengths = np.frombuffer(lengths_blob, dtype=np.uint8).astype(np.uint64)
    codes = np.frombuffer(codes_blob, dtype=np.uint64)
    return bool(np.all(codes < (np.uint64(1) << lengths)))


@_register("huffman_encode", "numpy")
def huffman_encode(lengths: np.ndarray, codes: np.ndarray, data: bytes) -> tuple[bytes, int]:
    lengths = np.ascontiguousarray(lengths, dtype=np.uint8)
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    if not _codes_fit(lengths.tobytes(), codes.tobytes()):
        raise KernelUnavailable("code value overflows its length; reference semantics")
    if not data:
        return b"", 0
    syms = np.frombuffer(data, dtype=np.uint8)
    sym_lens = lengths[syms].astype(np.int64)
    total_bits = int(sym_lens.sum())
    max_len = int(sym_lens.max())
    if max_len == 0:
        return b"", 0
    sym_codes = codes[syms]
    # Bit k of a length-L code is (code >> (L-1-k)) & 1; build the full
    # (nsyms, max_len) bit matrix and keep the valid prefix of each row.
    shifts = sym_lens[:, None] - 1 - np.arange(max_len)[None, :]
    valid = shifts >= 0
    bits = (sym_codes[:, None] >> np.where(valid, shifts, 0).astype(np.uint64)) & np.uint64(1)
    stream = bits[valid].astype(np.uint8)  # row-major == stream order
    payload = np.packbits(stream)  # MSB-first, zero-padded tail
    return payload.tobytes(), total_bits


# ---------------------------------------------------------------------------
# Huffman decode (stride-8 array DFA)
# ---------------------------------------------------------------------------


class _DFATables:
    """Compiled stride-8 automaton for one table fingerprint."""

    __slots__ = ("next_state", "next_rows", "emit", "emit_n", "dead", "has_dead")

    def __init__(self, next_state, emit, emit_n, dead):
        self.next_state = next_state  # int64[nstates, 256]
        self.next_rows = next_state.tolist()  # list[list[int]]: fastest scalar walk
        self.emit = emit            # uint8[nstates, 256, 8]
        self.emit_n = emit_n        # int64[nstates, 256]
        self.dead = dead            # bool[nstates, 256]
        self.has_dead = bool(dead.any())


def _build_trie(lengths: np.ndarray, codes: np.ndarray) -> tuple[list[list[int]], dict[int, int]]:
    """Binary code trie: ``children[node] = [child0, child1]`` (-1 = none).

    Raises:
        KernelUnavailable: the codes collide (non-prefix-free corrupt
            table) and cannot form a trie.
    """
    children: list[list[int]] = [[-1, -1]]
    leaf_symbol: dict[int, int] = {}
    for sym in range(len(lengths)):
        length = int(lengths[sym])
        if length == 0:
            continue
        code = int(codes[sym])
        node = 0
        for i in range(length - 1, -1, -1):
            if node in leaf_symbol:
                raise KernelUnavailable("code collides with a shorter code")
            bit = (code >> i) & 1
            if children[node][bit] == -1:
                children.append([-1, -1])
                children[node][bit] = len(children) - 1
            node = children[node][bit]
        if node in leaf_symbol or children[node] != [-1, -1]:
            raise KernelUnavailable("code collides with another code")
        leaf_symbol[node] = sym
    return children, leaf_symbol


@lru_cache(maxsize=64)
def _compiled_dfa(lengths_blob: bytes, codes_blob: bytes) -> _DFATables:
    """Compile (and cache, by fingerprint) the stride-8 decode automaton.

    States are the trie's internal nodes (the root is state 0). A one-bit
    step into a leaf emits its symbol and resets to the root; a step off
    the trie marks the entry dead (no further emissions — the reference
    decoder can never produce another symbol once the accumulator leaves
    every code interval). Four one-bit steps give the stride-4 plane
    ``(nstates, 16)``; the stride-8 plane is that plane composed with
    itself: a byte emits its high nibble's symbols, then — unless the high
    nibble died — its low nibble's from the state the high nibble reached.
    """
    lengths = np.frombuffer(lengths_blob, dtype=np.uint8)
    codes = np.frombuffer(codes_blob, dtype=np.uint64)
    children, leaf_symbol = _build_trie(lengths, codes)
    child = np.array(children, dtype=np.int64)  # (nnodes, 2)
    leaf = np.full(len(children), -1, dtype=np.int64)
    leaf[list(leaf_symbol)] = list(leaf_symbol.values())
    internal = np.flatnonzero(leaf < 0)
    state_of = np.zeros(len(children), dtype=np.int64)
    state_of[internal] = np.arange(internal.size)
    nstates = internal.size
    # One-bit step per (state, bit): next state, emitted symbol (-1 none), dead.
    step_child = child[internal]
    step_dead = step_child < 0
    step_sym = np.where(step_dead, -1, leaf[step_child])
    step_next = np.where(step_dead | (step_sym >= 0), 0, state_of[step_child])

    # Stride 4: four one-bit steps over the (nstates, 16) plane. Emitted
    # symbols pack little-endian into one uint64 (slot j is byte j).
    nibble = np.arange(16)
    cur = np.repeat(np.arange(nstates)[:, None], 16, axis=1)
    packed4 = np.zeros((nstates, 16), dtype=np.uint64)
    n4 = np.zeros((nstates, 16), dtype=np.uint64)
    dead4 = np.zeros((nstates, 16), dtype=bool)
    for k in range(4):
        bit = np.broadcast_to((nibble >> (3 - k)) & 1, cur.shape)
        dead4 |= step_dead[cur, bit]
        sym = np.where(dead4, -1, step_sym[cur, bit])
        hit = sym >= 0
        packed4 |= np.where(hit, sym, 0).astype(np.uint64) << (n4 * np.uint64(8))
        n4 += hit
        cur = np.where(dead4, 0, step_next[cur, bit])

    # Stride 8: high nibble, then low nibble from the state it reached.
    state = np.arange(nstates)[:, None]
    hi, lo = np.arange(256) >> 4, np.arange(256) & 15
    mid = cur[state, hi]
    dead_hi = dead4[state, hi]
    n_hi = n4[state, hi]
    low = np.where(dead_hi, np.uint64(0), packed4[mid, lo])
    packed = packed4[state, hi] | (low << (n_hi * np.uint64(8)))
    dead = dead_hi | dead4[mid, lo]
    return _DFATables(
        next_state=np.where(dead, 0, cur[mid, lo]),
        emit=packed.astype("<u8").view(np.uint8).reshape(nstates, 256, _MAX_EMIT),
        emit_n=(n_hi + np.where(dead_hi, np.uint64(0), n4[mid, lo])).astype(np.int64),
        dead=dead,
    )


@_register("huffman_decode", "numpy")
def huffman_decode(
    lengths: np.ndarray, codes: np.ndarray, payload: bytes, out_len: int
) -> bytes:
    lengths = np.ascontiguousarray(lengths, dtype=np.uint8)
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    if not _codes_fit(lengths.tobytes(), codes.tobytes()):
        raise KernelUnavailable("code value overflows its length; reference semantics")
    if out_len <= 0:
        return b""
    dfa = _compiled_dfa(lengths.tobytes(), codes.tobytes())
    nbytes = len(payload)
    if nbytes == 0:
        raise CorruptStreamError("bitstream exhausted before out_len symbols")

    # Pass 1 — scalar state walk (one list index per payload byte).
    states_list = [0] * nbytes
    rows = dfa.next_rows
    state = 0
    i = 0
    for b in payload:
        states_list[i] = state
        state = rows[state][b]
        i += 1
    states = np.asarray(states_list, dtype=np.int64)
    chunks = np.frombuffer(payload, dtype=np.uint8)

    # Pass 2 — vectorized emission gather.
    counts = dfa.emit_n[states, chunks]
    exhausted_msg = "bitstream exhausted before out_len symbols"
    if dfa.has_dead:
        dead_hits = np.nonzero(dfa.dead[states, chunks])[0]
        if dead_hits.size:
            # Emissions inside the dead chunk precede the dead bit and
            # count; everything after decodes garbage from the root.
            cutoff = int(dead_hits[0]) + 1
            states, chunks, counts = states[:cutoff], chunks[:cutoff], counts[:cutoff]
            exhausted_msg = "invalid code in bitstream"
    csum = np.cumsum(counts)
    if int(csum[-1]) < out_len:
        raise CorruptStreamError(exhausted_msg)
    last = int(np.searchsorted(csum, out_len))  # first chunk reaching out_len
    states, chunks, counts = states[: last + 1], chunks[: last + 1], counts[: last + 1]
    sym_rows = dfa.emit[states, chunks]  # (nchunks, 8)
    mask = np.arange(_MAX_EMIT) < counts[:, None]
    return sym_rows[mask][:out_len].tobytes()


# ---------------------------------------------------------------------------
# Snappy decompress
# ---------------------------------------------------------------------------


@_register("snappy_decompress", "numpy")
def snappy_decompress(data: bytes, max_output: int | None = None) -> bytes:
    """Two-phase Snappy decode: tag scan, then slice-op materialization."""
    from repro.codecs.varint import read_varint

    expected, pos = read_varint(data, 0)
    if max_output is not None and expected > max_output:
        raise CorruptStreamError(
            f"snappy preamble promises {expected} bytes, caller allows {max_output}"
        )
    n = len(data)
    out_pos = 0
    literals: list[tuple[int, int, int]] = []  # (dst, src, length)
    copies: list[tuple[int, int, int]] = []  # (dst, offset, length)
    # Phase 1 — walk the element stream, bounds-checking in exactly the
    # reference order so corrupt streams fail identically.
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
            literals.append((out_pos, pos, length))
            pos += length
        else:
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
            if offset == 0 or offset > out_pos:
                raise CorruptStreamError(
                    f"copy offset {offset} out of range at output {out_pos}"
                )
            copies.append((out_pos, offset, length))
        out_pos += length
        if out_pos > expected:
            raise CorruptStreamError("output exceeds preamble length")
    if out_pos != expected:
        raise CorruptStreamError(f"expected {expected} bytes, produced {out_pos}")

    # Phase 2 — materialize. Literals never read the output, so they all
    # land first; copies only read bytes strictly before their own start,
    # so stream order is safe once literals are placed.
    src = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(expected, dtype=np.uint8)
    for dst, s, length in literals:
        out[dst : dst + length] = src[s : s + length]
    for dst, offset, length in copies:
        if offset >= length:
            out[dst : dst + length] = out[dst - offset : dst - offset + length]
        else:
            # Overlapping: the run repeats with period `offset`.
            pattern = out[dst - offset : dst]
            reps = -(-length // offset)  # ceil
            out[dst : dst + length] = np.tile(pattern, reps)[:length]
    return out.tobytes()


# ---------------------------------------------------------------------------
# Batch varint / zigzag
# ---------------------------------------------------------------------------

_VARINT_MAX = (1 << 32) - 1


@_register("varint_encode_batch", "numpy")
def varint_encode_batch(values) -> bytes:
    vals = np.asarray(values, dtype=np.int64).ravel()
    if vals.size == 0:
        return b""
    bad = np.nonzero((vals < 0) | (vals > _VARINT_MAX))[0]
    if bad.size:
        v = int(vals[bad[0]])
        if v < 0:
            raise ValueError(f"varint must be non-negative, got {v}")
        raise ValueError(f"varint out of 32-bit range: {v}")
    u = vals.astype(np.uint64)
    nbytes = np.ones(u.size, dtype=np.int64)
    for threshold_bits in (7, 14, 21, 28):
        nbytes += (u >= (np.uint64(1) << np.uint64(threshold_bits))).astype(np.int64)
    ends = np.cumsum(nbytes)
    starts = ends - nbytes
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    for k in range(5):
        sel = nbytes > k
        if not sel.any():
            break
        byte = ((u[sel] >> np.uint64(7 * k)) & np.uint64(0x7F)).astype(np.uint8)
        cont = ((nbytes[sel] - 1) > k).astype(np.uint8)
        out[starts[sel] + k] = byte | (cont << 7)
    return out.tobytes()


@_register("varint_decode_batch", "numpy")
def varint_decode_batch(data: bytes, count: int, offset: int = 0) -> tuple[np.ndarray, int]:
    if count == 0:
        return np.empty(0, dtype=np.uint32), offset
    buf = np.frombuffer(data, dtype=np.uint8)[offset:]
    terminators = np.nonzero(buf < 0x80)[0]
    navail = int(min(count, terminators.size))
    ends = terminators[:navail]
    starts = np.concatenate(([0], ends[:-1] + 1)) if navail else np.empty(0, np.int64)
    lens = ends - starts + 1
    # Values of the complete varints. The reference reads up to 6 bytes
    # (a zero-padded 6-byte varint still decodes); its shift guard only
    # fires on the 6th *continuation* byte, i.e. length >= 7.
    values = np.zeros(navail, dtype=np.uint64)
    for k in range(6):
        sel = lens > k
        if not sel.any():
            break
        values[sel] |= (buf[starts[sel] + k].astype(np.uint64) & np.uint64(0x7F)) << np.uint64(
            7 * k
        )
    # Fault ordering matches the sequential reference: the earliest
    # offending varint wins, and within one varint "too long" (detected
    # mid-parse at byte 6) beats "exceeds 32 bits" (detected at its end).
    too_long = lens > 6
    bad = np.nonzero(too_long | (values > _VARINT_MAX))[0]
    if bad.size:
        first_bad = int(bad[0])
        if bool(too_long[first_bad]):
            raise CorruptStreamError("varint too long")
        raise CorruptStreamError("varint exceeds 32 bits")
    if navail < count:
        # The stream ends inside varint `navail`: all-continuation tail.
        tail = buf.size - (int(ends[-1]) + 1 if navail else 0)
        if tail >= 6:
            raise CorruptStreamError("varint too long")
        raise CorruptStreamError("truncated varint")
    return values.astype(np.uint32), offset + int(ends[-1]) + 1


@_register("zigzag_encode", "numpy")
def zigzag_encode(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int32)
    return (arr.astype(np.uint32) << np.uint32(1)) ^ (arr >> 31).astype(np.uint32)


@_register("zigzag_decode", "numpy")
def zigzag_decode(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.uint32)
    return ((arr >> np.uint32(1)) ^ np.negative(arr & np.uint32(1))).astype(np.int32)
