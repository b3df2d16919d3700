"""Unified error taxonomy for the codec / container / recode stack.

Everything the decode path can raise derives from :class:`CodecError`, so
callers that care about *why* a stream failed can catch a precise subclass
while resilience layers (the recode engine's quarantine logic, the SpMV
``degrade`` policy) catch the base class once. ``CodecError`` deliberately
subclasses :class:`ValueError`: the stack raised bare ``ValueError`` for
corruption since the seed, and every existing ``except ValueError`` keeps
working unchanged.

Taxonomy::

    ValueError
    └── CodecError                  any decode/parse failure in the stack
        ├── CorruptStreamError      malformed compressed stream (Snappy,
        │   │                       Huffman, RLE, varint framing)
        │   └── CorruptPayloadError record payload CRC mismatch — the
        │                           bytes changed after encode (DRAM
        │                           flip, torn write, injected fault)
        ├── ContainerError          .dsh container CRC/structure failure
        │   └── TruncatedContainerError
        ├── BlockDecodeError        block-scoped wrapper carrying the
        │                           failing ``block_id`` (what ``strict``
        │                           SpMV raises and quarantine records)
        └── UDPFault                (repro.udp.lane) hardware-fault
                                    conditions in the cycle-level simulator

:class:`repro.faults.InjectedFault` also derives from ``CodecError`` so
injected chaos flows through exactly the handling real corruption would.
"""

from __future__ import annotations


class CodecError(ValueError):
    """Base class for every decode/parse failure in the codec stack."""


class CorruptStreamError(CodecError):
    """A compressed stream is malformed (truncated, bad codes/offsets, or
    lengths that disagree with its framing)."""


class CorruptPayloadError(CorruptStreamError):
    """A record's payload no longer matches its end-to-end CRC: the bytes
    were altered somewhere between encode and decode."""


class ContainerError(CodecError):
    """A ``.dsh`` container failed CRC or structural validation."""


class TruncatedContainerError(ContainerError):
    """A ``.dsh`` container ends before its declared structure does."""


class BlockDecodeError(CodecError):
    """Decoding one specific block failed (after any retries).

    Attributes:
        block_id: index of the failing block within its plan, or None.
        stream: ``"index"`` / ``"value"`` when one stream is implicated.
    """

    def __init__(self, message: str, *, block_id: int | None = None,
                 stream: str | None = None):
        super().__init__(message)
        self.block_id = block_id
        self.stream = stream

    def __reduce__(self):
        return (
            type(self),
            (self.args[0],),
            {"block_id": self.block_id, "stream": self.stream},
        )

    def __setstate__(self, state):
        self.block_id = state.get("block_id")
        self.stream = state.get("stream")


def block_error(i: int, exc: CodecError) -> BlockDecodeError:
    """``exc`` as the error naming block ``i``: a :class:`BlockDecodeError`
    passes through unchanged; any other codec error is wrapped as
    ``block {i} failed to decode: ...`` with ``exc`` as its cause."""
    if isinstance(exc, BlockDecodeError):
        return exc
    error = BlockDecodeError(f"block {i} failed to decode: {exc}", block_id=i)
    error.__cause__ = exc
    return error
