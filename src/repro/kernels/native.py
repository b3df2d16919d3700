"""Native (``native``) kernels: the DSH decode chain of a span of blocks,
alone or with the blocks' multiply, and the Snappy compressor, in C.

The codec loops are sequential — one Huffman code, one Snappy tag, one
match at a time — so vectorizing cannot remove their per-step interpreter
cost. ``native.c`` runs them as plain C loops, loaded through
:mod:`ctypes`; no package beyond the system C compiler is needed.

* **Span decode** (``dsh_decode_span``): one C call decodes a span of
  blocks' index and value records — Huffman, Snappy, delta, as each
  record's tag or the plan's flags say — from where the payloads lie into
  read-only ``col_idx``/``val`` arrays over one buffer, up to the first
  record that fails, adding each record's ``clock_gettime`` stage
  nanoseconds to a caller-owned array that feeds the run's
  :class:`~repro.codecs.pipeline.DecodeTally`. A Huffman table's C form
  is looked up by the table's identity. No state is shared and ctypes
  releases the GIL, so threads decode in parallel.
* **Span multiply** (``dsh_spmv_span``): the span decode, each block
  multiplied into the run's output as soon as it is decoded, summing each
  row's products in ``np.add.reduceat``'s order (built with
  ``-ffp-contract=off``, so no multiply-add is fused), up to the first
  block that fails to decode or holds a column outside ``x``; the caller
  takes that block on its per-block route.
* **Huffman decode**: an 11-bit first-match lookup table built from the
  reference's own interval test (:func:`_huffman_table`), then the
  reference's bit-by-bit walk for longer codes. The standalone
  ``huffman_decode`` op runs the same routine.
* **Snappy decompress** parses and materializes each tag in one pass,
  bounds-checked before every write.
* **Snappy compress** is the reference matcher ported as is, its exact
  key map an open-addressing table, so it emits the same bytes. A
  non-zero status on valid input is a bug: :class:`RuntimeError`.
* **Decode errors**: C returns only a status (how many records decoded).
  When a span's first block fails, the wrapper re-runs the reference
  directly (not through dispatch; for a block,
  :func:`~repro.codecs.pipeline.decode_block_reference`), which raises the
  exact typed error and message; if the reference accepts the input, the
  C code is wrong and :class:`RuntimeError` says so.

Every other op resolves to the ``numpy`` implementation (see
:data:`repro.kernels.registry.BASE_BACKEND`).

**Build.** :func:`load` compiles ``native.c`` with ``cc -O2 -shared
-fPIC -ffp-contract=off`` on first use and caches the library per user under
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``, mode 0700), named
by the sha256 of the source, flags and compiler version, written to a
temp file and renamed into place. Later processes (the serve daemon,
benchmark subprocesses) load the cached file. With no compiler, or a failed build,
``native`` is simply not an available backend.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from functools import lru_cache
from typing import NoReturn

import numpy as np

from repro.codecs.pipeline import STAGE_HUFFMAN, DecodeTally, decode_block_reference
from repro.codecs.varint import read_varint, write_varint
from repro.kernels import ref
from repro.kernels.registry import REGISTRY, KernelUnavailable

_register = REGISTRY.register

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "native.c")
#: ``-ffp-contract=off``: no fused multiply-add, so the multiply rounds as
#: numpy's does on every compiler and architecture.
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_lib: ctypes.CDLL | None = None
_SIGN = np.int64(-1 << 63)

#: Window of the first-match lookup table, and the longest code the C
#: walk takes (its canonical first codes must fit in 64 bits).
_LUT_BITS = 11
_MAX_CODE = 56


class _HuffTable(ctypes.Structure):
    """``huff_table`` in ``native.c``."""

    _fields_ = [
        ("lut", ctypes.c_uint16 * (1 << _LUT_BITS)),
        ("first", ctypes.c_uint64 * (_MAX_CODE + 1)),
        ("count", ctypes.c_uint32 * (_MAX_CODE + 1)),
        ("index", ctypes.c_uint32 * (_MAX_CODE + 1)),
        ("symbols", ctypes.c_uint8 * 256),
        ("max_len", ctypes.c_int32),
    ]


_P = ctypes.c_void_p
_I64 = ctypes.c_int64
_TABLE = ctypes.POINTER(_HuffTable)
_SIGNATURES = {
    "huffman_decode": (_TABLE, _P, _I64, _P, _I64),
    "snappy_decompress": (_P, _I64, _I64, _P, _I64),
    "snappy_compress": (_P, _I64, _P, _I64, _P),
    "dsh_decode_span": (_I64, _P, _P, _TABLE, _TABLE, _P, _P, _P),
    "dsh_spmv_span": (_I64, _P, _P, _TABLE, _TABLE, _P, _P, _P, _P, _P, _I64, _P, _I64, _I64,
                      _P, _I64),
}


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "repro")
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.stat(path)
    # A library loaded from a directory others can write is their code.
    if st.st_uid != os.getuid():
        raise OSError(f"kernel cache {path} is not owned by this user")
    if st.st_mode & 0o077:
        os.chmod(path, 0o700)
    return path


def _build() -> str:
    """Path of the shared library, compiling it when not yet cached."""
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler (cc) on PATH")
    version = subprocess.run(
        [cc, "--version"], capture_output=True, check=True, timeout=60
    ).stdout
    with open(_SOURCE, "rb") as f:
        key = hashlib.sha256(f.read() + " ".join(_CFLAGS).encode() + version).hexdigest()
    cache = _cache_dir()
    path = os.path.join(cache, f"native-{key[:24]}.so")
    if not os.path.exists(path):
        fd, tmp = tempfile.mkstemp(prefix=".native-", suffix=".so", dir=cache)
        os.close(fd)
        try:
            subprocess.run(
                [cc, *_CFLAGS, "-o", tmp, _SOURCE], capture_output=True, check=True, timeout=300
            )
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return path


def load() -> None:
    """Build or reuse the library and mark ``native`` available.

    Called once per process, under the registry's load lock. With no
    compiler, or a failed build or load, ``native`` stays unavailable.
    """
    global _lib
    try:
        lib = ctypes.CDLL(_build())
    except (OSError, subprocess.SubprocessError):
        return
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int
    _lib = lib
    REGISTRY.mark_available("native")


def _reference_raise(fn, *args) -> NoReturn:
    """Re-run the reference on input C rejected; it raises the typed error."""
    fn(*args)
    raise RuntimeError(f"native {fn.__name__} rejected input the reference accepts")


# ---------------------------------------------------------------------------
# Huffman decode
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _huffman_table(lengths_blob: bytes) -> _HuffTable:
    """The reference's canonical decoder as a C table, per fingerprint.

    Each entry of the 11-bit lookup table is the first length ``L`` whose
    interval test (:func:`repro.kernels.ref._decode_tables`) accepts the
    window's ``L``-bit prefix, tried in the reference's order, so the C
    decoder and the reference agree by construction.

    Raises:
        KernelUnavailable: a code longer than 56 bits.
    """
    max_len, first, count, index, symbols = ref._decode_tables(lengths_blob)
    if max_len > _MAX_CODE:
        raise KernelUnavailable(f"{max_len}-bit codes; reference semantics")
    table = _HuffTable(max_len=max_len)
    table.first[: max_len + 1] = first[: max_len + 1]
    table.count[: max_len + 1] = count[: max_len + 1]
    table.index[: max_len + 1] = index[: max_len + 1]
    table.symbols[: len(symbols)] = symbols
    window = np.arange(1 << _LUT_BITS)
    syms = np.asarray(symbols, dtype=np.int64)
    lut = np.zeros(window.size, dtype=np.uint16)
    for length in range(1, min(_LUT_BITS, max_len) + 1):
        offset = (window >> (_LUT_BITS - length)) - first[length]
        hit = (lut == 0) & (offset >= 0) & (offset < count[length])
        lut[hit] = syms[index[length] + offset[hit]] | (length << 8)
    ctypes.memmove(table.lut, lut.ctypes.data, lut.nbytes)
    return table


@_register("huffman_decode", "native")
def huffman_decode(
    lengths: np.ndarray, codes: np.ndarray, payload: bytes, out_len: int
) -> bytes:
    table = _huffman_table(np.ascontiguousarray(lengths, dtype=np.uint8).tobytes())
    if out_len <= 0:
        return b""
    src = np.frombuffer(payload, dtype=np.uint8)
    # A symbol takes at least one bit; a larger out_len cannot be met and
    # must not size the output buffer.
    if out_len > 8 * src.size:
        _reference_raise(ref.huffman_decode, lengths, codes, payload, out_len)
    out = np.empty(out_len, dtype=np.uint8)
    if _lib.huffman_decode(table, src.ctypes.data, src.size, out.ctypes.data, out_len):
        _reference_raise(ref.huffman_decode, lengths, codes, payload, out_len)
    return out.tobytes()


# ---------------------------------------------------------------------------
# Snappy decompress
# ---------------------------------------------------------------------------


@_register("snappy_decompress", "native")
def snappy_decompress(data: bytes, max_output: int | None = None) -> bytes:
    expected, pos = read_varint(data, 0)  # raises exactly as the reference does
    src = np.frombuffer(data, dtype=np.uint8)
    # One input byte yields at most 64/3 output bytes (a 3-byte copy-2 of
    # length 64); a larger preamble cannot be met and must not size the output.
    if (max_output is not None and expected > max_output) or 3 * expected > 64 * (src.size - pos):
        _reference_raise(ref.snappy_decompress, data, max_output)
    out = np.empty(expected, dtype=np.uint8)
    if _lib.snappy_decompress(src.ctypes.data, src.size, pos, out.ctypes.data, expected):
        _reference_raise(ref.snappy_decompress, data, max_output)
    return out.tobytes()


@_register("snappy_compress", "native")
def snappy_compress(data: bytes) -> bytes:
    preamble = write_varint(len(data))  # raises exactly as the reference does
    src = np.frombuffer(bytes(data), dtype=np.uint8)
    # Snappy's worst-case bound; the matcher never needs more, so running
    # out of room (or memory) on valid bytes is a bug, not a fallback.
    cap = 32 + src.size + src.size // 6
    out = np.empty(cap, dtype=np.uint8)
    size = ctypes.c_int64()
    status = _lib.snappy_compress(
        src.ctypes.data, src.size, out.ctypes.data, cap, ctypes.byref(size))
    if status:
        raise RuntimeError(f"native snappy_compress failed (status {status}) on valid input")
    return preamble + out[: size.value].tobytes()


# ---------------------------------------------------------------------------
# Span decode
# ---------------------------------------------------------------------------


#: The C table of each Huffman table a run decodes with, by identity, so
#: a plan's records find theirs without re-serializing the code lengths.
_BOUND_TABLES: dict[int, tuple[object, _HuffTable]] = {}


def _bound_table(table) -> _HuffTable:
    hit = _BOUND_TABLES.get(id(table))
    if hit is not None and hit[0] is table:
        return hit[1]
    ctable = _huffman_table(table.lengths.tobytes())
    if len(_BOUND_TABLES) >= 64:
        _BOUND_TABLES.clear()
    _BOUND_TABLES[id(table)] = (table, ctable)
    return ctable


def _span(fn, plan, span, tally: DecodeTally, *product) -> tuple[int, int, list]:
    """Run C ``fn`` (``dsh_decode_span``, or ``dsh_spmv_span`` given its
    ``product`` arguments) over ``span``, counting the blocks it gets
    through in ``tally``: returns how many, the multiply's nanoseconds
    and the output buffer's ``[col_idx, val]`` views."""
    irows, vrows = span.rows
    n = span.checked
    # C stops before a record it must not size a buffer for: no valid
    # record decodes to part of an item or to a negative length, or to
    # more than 171x its payload (a payload byte holds at most 8 Huffman
    # symbols, a Snappy byte yields at most 64/3 bytes).
    for rows, itemsize in ((irows, 4), (vrows, 8)):
        orig_len = rows[:n, 4]
        bad = (orig_len & (itemsize - 1 | _SIGN) != 0) | (orig_len > 171 * rows[:n, 1])
        n = int(bad.argmax()) if bad.any() else n
    tables = []
    for table, rows in ((plan.index_table, irows), (plan.value_table, vrows)):
        try:
            tables.append(None if table is None else _bound_table(table))
        except KernelUnavailable:  # C rejects a Huffman stage without a table
            if (rows[:n, 3] & STAGE_HUFFMAN).any():
                raise
            tables.append(None)
    itotal, vtotal = int(irows[:n, 4].sum()), int(vrows[:n, 4].sum())
    # One output buffer, values first so every array is aligned (and a
    # spare byte, so an empty span still has an address).
    buf = np.empty(vtotal + itotal + 1, np.uint8)
    ns = np.zeros(6 * n + 1, np.int64)
    if n:
        at = buf.ctypes.data
        n = fn(n, irows.ctypes.data, vrows.ctypes.data, *tables, at + vtotal, at,
               ns.ctypes.data, *product) // 2
    tally.add_span((irows[:n], vrows[:n]), ns[: 6 * n].reshape(-1, 6))
    return n, ns[-1], [buf[vtotal : vtotal + itotal].view("<i4"), buf[:vtotal].view("<f8")]


@_register("dsh_decode_span", "native")
def dsh_decode_span(plan, span, tally: DecodeTally) -> list[tuple[np.ndarray, np.ndarray]]:
    n, _, (col_idx, val) = _span(_lib.dsh_decode_span, plan, span, tally)
    if not n:
        _reference_raise(decode_block_reference, plan, *span.records(span.start), tally)
    col_idx.flags.writeable = val.flags.writeable = False
    irows, vrows = span.rows
    iend, vend = np.cumsum(irows[:n, 4] // 4).tolist(), np.cumsum(vrows[:n, 4] // 8).tolist()
    return [(col_idx[a:b], val[c:d]) for a, b, c, d in zip([0, *iend], iend, [0, *vend], vend)]


@_register("dsh_spmv_span", "native")
def dsh_spmv_span(
    plan, span, x: np.ndarray, out: np.ndarray, tally: DecodeTally
) -> tuple[int, float]:
    """``dsh_decode_span`` that multiplies each block by ``x`` into ``out``
    (C-contiguous float64, 1-D for SpMV, ``(n, k)`` for SpMM) as it goes,
    stopping also at a block holding a column outside ``x``: returns how
    many blocks were done and the multiply's seconds."""
    ptr, blk = plan.blocked.row_layout
    done, ns, _ = _span(
        _lib.dsh_spmv_span, plan, span, tally, blk[span.start :].ctypes.data, ptr.ctypes.data,
        ptr.size, x.ctypes.data, len(x), 1 if x.ndim == 1 else x.shape[1], out.ctypes.data,
        len(out),
    )
    return done, ns * 1e-9
