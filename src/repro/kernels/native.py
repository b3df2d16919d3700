"""Native (``native``) kernels: Huffman and Snappy decode in C.

Both decode loops are sequential — one DFA transition per payload byte,
one Snappy tag at a time — so vectorizing cannot remove their per-step
interpreter cost. ``native.c`` runs them as plain C loops, loaded through
:mod:`ctypes`; no package beyond the system C compiler is needed.

* **Huffman decode** walks the same stride-8 automaton the ``numpy``
  backend compiles (:func:`repro.kernels.np_kernels._compiled_dfa`),
  flattened once per table fingerprint, so byte parity holds by
  construction.
* **Snappy decompress** parses and materializes each tag in one pass,
  bounds-checked before every write.
* **Errors**: C returns only a status. On a non-zero status the wrapper
  re-runs the ``python`` reference directly (not through dispatch), which
  raises the exact typed error and message; if the reference accepts the
  input, the C code is wrong and :class:`RuntimeError` says so.

Every other op resolves to the ``numpy`` implementation (see
:data:`repro.kernels.registry.BASE_BACKEND`).

**Build.** :func:`load` compiles ``native.c`` with ``cc -O2 -shared
-fPIC`` on first use and caches the library per user under
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``, mode 0700), named
by the sha256 of the source, flags and compiler version, written to a
temp file and renamed into place. Later processes (pool workers, the
serve daemon) load the cached file. With no compiler, or a failed build,
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

from repro.codecs.varint import read_varint
from repro.kernels import np_kernels, ref
from repro.kernels.registry import REGISTRY, KernelUnavailable

_register = REGISTRY.register

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "native.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")
_lib: ctypes.CDLL | None = None

_P = ctypes.c_void_p
_I64 = ctypes.c_int64
_SIGNATURES = {
    "huffman_decode": (_P, _P, _P, _P, _I64, _P, _I64),
    "snappy_decompress": (_P, _I64, _I64, _P, _I64),
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
def _flat_dfa(lengths_blob: bytes, codes_blob: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The numpy backend's automaton as C arrays: ``(next, emit, emit_n)``.

    ``next`` is -1 on dead entries, folding the dead flag into the walk.
    """
    dfa = np_kernels._compiled_dfa(lengths_blob, codes_blob)
    nxt = np.where(dfa.dead, -1, dfa.next_state).astype(np.int32)
    return nxt, np.ascontiguousarray(dfa.emit), dfa.emit_n.astype(np.uint8)


@_register("huffman_decode", "native")
def huffman_decode(
    lengths: np.ndarray, codes: np.ndarray, payload: bytes, out_len: int
) -> bytes:
    lengths = np.ascontiguousarray(lengths, dtype=np.uint8)
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    lengths_blob, codes_blob = lengths.tobytes(), codes.tobytes()
    if not np_kernels._codes_fit(lengths_blob, codes_blob):
        raise KernelUnavailable("code value overflows its length; reference semantics")
    if out_len <= 0:
        return b""
    nxt, emit, emit_n = _flat_dfa(lengths_blob, codes_blob)
    src = np.frombuffer(payload, dtype=np.uint8)
    # One byte completes at most 8 symbols; a larger out_len cannot be met
    # and must not size the output buffer.
    if out_len > 8 * src.size:
        _reference_raise(ref.huffman_decode, lengths, codes, payload, out_len)
    out = np.empty(out_len, dtype=np.uint8)
    status = _lib.huffman_decode(
        nxt.ctypes.data, emit.ctypes.data, emit_n.ctypes.data,
        src.ctypes.data, src.size, out.ctypes.data, out_len,
    )
    if status:
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
