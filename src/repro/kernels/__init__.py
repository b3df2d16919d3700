"""repro.kernels — vectorized codec kernels behind a backend dispatch.

The paper's premise is decompression at memory-bandwidth rate; the
from-scratch codec loops are the reference semantics, and this package
holds their fast paths. Three backends exist:

* ``python`` — the reference per-symbol/per-element loops (ground truth).
* ``numpy`` — vectorized implementations with **byte-identical** output
  and matching :mod:`repro.codecs.errors` behaviour on corrupt input:
  table-driven Huffman encode (per-symbol gather + cumulative bit-offset
  packing), a stride-8 DFA Huffman decode run as an array automaton,
  a two-phase Snappy decompressor (tag scan, then slice-op
  materialization), and batch varint/zigzag codecs.
* ``native`` — the sequential codec loops in C (a lookup-table
  Huffman decoder, the Snappy tag scan, the reference's Snappy matcher
  with byte-identical output, and ``dsh_decode_span``: the Huffman →
  Snappy → delta chain of a span of blocks in one call, payloads read
  in place), compiled on first
  use with the system ``cc`` and loaded through :mod:`ctypes`; its other
  ops are ``numpy``'s. Absent when no compiler is (see
  :mod:`repro.kernels.native`).

Usage::

    from repro import kernels
    kernels.dispatch("huffman_decode", lengths, codes, payload, out_len)

    with kernels.use_backend("python"):   # scoped override (tests, benches)
        ...

Selection: :func:`set_backend` > ``REPRO_KERNEL_BACKEND`` env var >
autodetect (``native``, else ``numpy``). Ops a backend cannot serve fall
back to the reference implementation and tick ``kernels.fallback``; every
outermost dispatch ticks ``kernels.dispatch`` labelled by op and backend.
See docs/PERFORMANCE.md.
"""

from __future__ import annotations

import threading

from repro.kernels.registry import (
    KERNEL_BACKEND_ENV,
    KNOWN_BACKENDS,
    REFERENCE_BACKEND,
    REGISTRY,
    KernelUnavailable,
)

_backends_loaded = False
_load_lock = threading.Lock()


def _ensure_backends() -> None:
    """Import the backend modules and build ``native`` exactly once.

    Deferred to first use so the codec modules (which the backends import
    for their reference loops) can themselves import :mod:`repro.kernels`
    at module level without a cycle. The flag is set only after every
    backend has registered, so a thread racing the first dispatch waits on
    the lock instead of seeing a half-filled registry.
    """
    global _backends_loaded
    if _backends_loaded:
        return
    with _load_lock:
        if not _backends_loaded:
            from repro.kernels import native, np_kernels, ref  # noqa: F401  (registration)

            native.load()
            _backends_loaded = True


def dispatch(op: str, *args, **kwargs):
    """Run kernel ``op`` on the active backend (reference fallback)."""
    _ensure_backends()
    return REGISTRY.dispatch(op, *args, **kwargs)


def bind(op: str, label: str | None = None):
    """Kernel ``op`` resolved once for a run of calls
    (:class:`~repro.kernels.registry.BoundOp`)."""
    _ensure_backends()
    return REGISTRY.bind(op, label)


def backend() -> str:
    """The backend dispatch would use right now."""
    _ensure_backends()
    return REGISTRY.resolve_backend()


def set_backend(name: str | None) -> None:
    """Pin the kernel backend process-wide (``None``/``"auto"`` unpins)."""
    _ensure_backends()
    REGISTRY.set_backend(name)


def use_backend(name: str | None):
    """Context manager: scoped backend override."""
    _ensure_backends()
    return REGISTRY.use_backend(name)


def available_backends() -> tuple[str, ...]:
    _ensure_backends()
    return REGISTRY.available_backends()


def ops() -> tuple[str, ...]:
    """All registered kernel op names."""
    _ensure_backends()
    return REGISTRY.ops()


def backends_for(op: str) -> tuple[str, ...]:
    _ensure_backends()
    return REGISTRY.backends_for(op)


__all__ = [
    "KERNEL_BACKEND_ENV",
    "KNOWN_BACKENDS",
    "REFERENCE_BACKEND",
    "REGISTRY",
    "KernelUnavailable",
    "available_backends",
    "backend",
    "backends_for",
    "bind",
    "dispatch",
    "ops",
    "set_backend",
    "use_backend",
]
