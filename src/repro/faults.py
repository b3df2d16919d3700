"""Deterministic fault injection for the DSH recode engine and SpMV path.

The paper's pipeline lives or dies on a memory/decode path — compressed
blocks streamed out of DRAM, decoded inline, multiplied. This module
injects that path's real failure modes on purpose, reproducibly:

* **bit flips / truncation** of encoded block payloads (record site — what
  the recode engine reads; dram site — what the SpMV DMA streams);
* **artificial latency** per block decode (a slow lane, a throttled
  channel);
* **container bit flips** applied to ``.dsh`` bytes at load time.

Every decision is a pure function of ``(plan.seed, site, key)`` via
:func:`repro.util.rng.derive_seed`, so a chaos run replays bit-identically
from its seed. Activation is a context manager setting one module global;
the hooks in :mod:`repro.codecs.engine`, :mod:`repro.codecs.container`,
:mod:`repro.memsys.dram`, and :mod:`repro.core.spmv_pipeline` each cost a
single ``active() is None`` check when no plan is armed, so the disabled
path adds no measurable overhead.

Usage::

    plan = FaultPlan(seed=7, bitflip_rate=0.05, latency_s=0.002, latency_rate=0.1)
    with plan.activate():
        y, stats = recoded_spmv(cplan, x, engine=engine, policy="degrade")

Injected faults surface as :class:`InjectedFault` (a
:class:`~repro.codecs.errors.CodecError`) or as genuine decode errors from
the corrupted bytes, and flow through the same retry / quarantine /
degradation machinery real corruption would.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro import obs
from repro.codecs.errors import CodecError
from repro.util.rng import derive_seed, seeded_rng

_ACTIVE: "FaultPlan | None" = None


def active() -> "FaultPlan | None":
    """The currently armed plan, or None. The one check every hook makes."""
    return _ACTIVE


class InjectedFault(CodecError):
    """An exception raised on purpose by an armed :class:`FaultPlan`."""


_RATE_FIELDS = (
    "bitflip_rate",
    "truncate_rate",
    "dram_bitflip_rate",
    "container_bitflip_rate",
    "latency_rate",
)

#: CLI spec keys (``repro spmv --fault-plan "seed=7,bitflip=0.05"``).
_SPEC_KEYS = {
    "seed": ("seed", int),
    "bitflip": ("bitflip_rate", float),
    "truncate": ("truncate_rate", float),
    "dram": ("dram_bitflip_rate", float),
    "container": ("container_bitflip_rate", float),
    "latency": ("latency_s", float),
    "latency-rate": ("latency_rate", float),
    "bitflip-blocks": ("bitflip_blocks", "blocks"),
    "truncate-blocks": ("truncate_blocks", "blocks"),
    "dram-blocks": ("dram_bitflip_blocks", "blocks"),
}


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable description of which faults fire where.

    Rates are per-(block, stream) probabilities in [0, 1]; ``*_blocks``
    tuples target specific block ids deterministically (rate-independent).
    The plan is immutable.
    """

    seed: int = 0
    #: P(flip one payload bit) per (block, stream) at the engine decode site.
    bitflip_rate: float = 0.0
    #: P(drop trailing payload bytes) per (block, stream), engine site.
    truncate_rate: float = 0.0
    #: P(flip one payload bit) per (block, stream) on the DMA-streamed copy.
    dram_bitflip_rate: float = 0.0
    #: P(flip one bit of a .dsh byte stream) per load.
    container_bitflip_rate: float = 0.0
    #: P(sleep latency_s) per block decode attempt in the engine.
    latency_rate: float = 0.0
    #: Injected sleep duration (seconds).
    latency_s: float = 0.0
    bitflip_blocks: tuple[int, ...] = ()
    truncate_blocks: tuple[int, ...] = ()
    dram_bitflip_blocks: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.latency_s < 0:
            raise ValueError(f"latency_s must be >= 0, got {self.latency_s}")

    # -- activation ----------------------------------------------------------

    @contextmanager
    def activate(self) -> Iterator["FaultPlan"]:
        """Arm this plan process-wide for the duration of the block."""
        global _ACTIVE
        prev = _ACTIVE
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = prev

    # -- deterministic decisions ---------------------------------------------

    def _rng(self, site: str, *key):
        return seeded_rng(derive_seed(self.seed, "fault", site, *map(str, key)))

    def _fires(self, rate: float, site: str, *key) -> bool:
        return rate > 0.0 and self._rng(site, *key).random() < rate

    def _flip_bit(self, data: bytes, site: str, *key) -> bytes:
        if not data:
            return data
        bit = int(self._rng(site, "pos", *key).integers(0, len(data) * 8))
        out = bytearray(data)
        out[bit >> 3] ^= 1 << (bit & 7)
        return bytes(out)

    def _truncates(self, block_id: int, stream: str) -> bool:
        return block_id in self.truncate_blocks or self._fires(
            self.truncate_rate, "truncate", block_id, stream)

    def _bitflips(self, block_id: int, stream: str) -> bool:
        return block_id in self.bitflip_blocks or self._fires(
            self.bitflip_rate, "bitflip", block_id, stream)

    def _dram_flips(self, block_id: int, stream: str) -> bool:
        return block_id in self.dram_bitflip_blocks or self._fires(
            self.dram_bitflip_rate, "dram", block_id, stream)

    def _delays(self, block_id: int) -> bool:
        return self.latency_s > 0 and self._fires(self.latency_rate, "latency", block_id)

    def touched(self, nblocks: int, sites: tuple[str, ...]) -> frozenset[int]:
        """The blocks where a fault at one of ``sites`` (``"dram"``,
        ``"record"``, ``"latency"``) may fire: the hooks' decisions below,
        payload sizes aside, without their counters."""
        fires = {
            "dram": self._dram_flips,
            "record": lambda i, s: self._truncates(i, s) or self._bitflips(i, s),
            "latency": lambda i, s: self._delays(i),
        }
        return frozenset(i for i in range(nblocks) if any(
            fires[site](i, s) for site in sites for s in ("index", "value")))

    # -- record-site faults (engine decode inputs) ---------------------------

    def mutate_record(self, record, block_id: int, stream: str):
        """Apply engine-site payload faults; returns ``record`` itself when
        nothing fires. The record's ``payload_crc`` is deliberately left
        stale so the decode path *detects* the corruption, as the layered
        CRCs would on real hardware."""
        payload = record.payload
        mutated = False
        if self._truncates(block_id, stream):
            if payload:
                cut = 1 + int(
                    self._rng("truncate-len", block_id, stream).integers(
                        0, max(1, len(payload) // 4)
                    )
                )
                payload = payload[: max(0, len(payload) - cut)]
                obs.registry().counter("faults.injected.truncations").inc()
                mutated = True
        if self._bitflips(block_id, stream):
            if payload:
                payload = self._flip_bit(payload, "bitflip", block_id, stream)
                obs.registry().counter("faults.injected.bitflips").inc()
                mutated = True
        if not mutated:
            return record
        return dataclasses.replace(record, payload=payload)

    # -- dram-site faults (DMA-streamed record copies) ------------------------

    def mutate_dram_record(self, record, block_id: int, stream: str):
        """Flip a bit in the DRAM-streamed copy of a record's payload."""
        if record.payload and self._dram_flips(block_id, stream):
            obs.registry().counter("faults.injected.dram_bitflips").inc()
            return dataclasses.replace(
                record, payload=self._flip_bit(record.payload, "dram", block_id, stream)
            )
        return record

    # -- container-site faults ------------------------------------------------

    def mutate_container(self, data: bytes) -> bytes:
        """Flip one bit of a raw ``.dsh`` byte stream (keyed by length)."""
        if data and self._fires(self.container_bitflip_rate, "container", len(data)):
            obs.registry().counter("faults.injected.container_bitflips").inc()
            return self._flip_bit(data, "container", len(data))
        return data

    # -- decode-site latency --------------------------------------------------

    def delay(self, block_id: int) -> None:
        """Run by the engine before each decode attempt of ``block_id``:
        may sleep ``latency_s``."""
        if self._delays(block_id):
            obs.registry().counter("faults.injected.latency_events").inc()
            time.sleep(self.latency_s)

    # -- CLI spec --------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a ``key=value,...`` spec string.

        Keys: ``seed``, ``bitflip``, ``truncate``, ``dram``, ``container``,
        ``latency``, ``latency-rate`` (scalars) and ``bitflip-blocks``,
        ``truncate-blocks``, ``dram-blocks`` (``|``-separated block ids).
        Example::

            seed=7,bitflip=0.05,bitflip-blocks=3|9,latency=0.002,latency-rate=0.1
        """
        kwargs: dict[str, object] = {}
        for pair in spec.split(","):
            pair = pair.strip()
            if not pair:
                continue
            if "=" not in pair:
                raise ValueError(f"bad fault-plan entry {pair!r} (expected key=value)")
            key, value = pair.split("=", 1)
            key = key.strip()
            if key not in _SPEC_KEYS:
                raise ValueError(
                    f"unknown fault-plan key {key!r}; know {sorted(_SPEC_KEYS)}"
                )
            field_name, conv = _SPEC_KEYS[key]
            if conv == "blocks":
                kwargs[field_name] = tuple(int(b) for b in value.split("|") if b)
            else:
                kwargs[field_name] = conv(value)
        return cls(**kwargs)

    def describe(self) -> str:
        """Compact non-default-field summary for logs and CLI echo."""
        parts = [f"seed={self.seed}"]
        for f in dataclasses.fields(self):
            if f.name == "seed":
                continue
            value = getattr(self, f.name)
            if value != f.default:
                parts.append(f"{f.name}={value}")
        return " ".join(parts)
