"""DMA engine model.

Paper Section III-C: when data is recoded into the UDP memory space, "the
library routine initiates lightweight DMA operations (like memcpy) that
transfer blocks of data from the DRAM to the UDP memory with high
efficiency. The DMA engine acts as a traditional L2 agent to communicate
with the LLC controller."

The model charges a small per-descriptor startup cost plus the wire time
on the memory system, and records every transfer in a
:class:`~repro.memsys.traffic.TrafficLog`. A stream whose record sizes
are fixed (a plan's blocks) is costed once into a :class:`DMALedger` and
charged from it, with the same results as one transfer per record.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro import obs
from repro.memsys.dram import MemorySystem
from repro.memsys.traffic import TrafficLog

#: Descriptor setup + completion interrupt, amortized (seconds). Small: the
#: engine is an on-die L2 agent, not a PCIe device.
DEFAULT_STARTUP_S = 50e-9

#: Per-transfer counters, bound once per active registry (one transfer
#: per streamed record, so a registry lookup each would dominate).
_COUNTERS = obs.BoundMetrics(lambda reg, name: reg.counter(name))


@dataclass(frozen=True)
class DMATransfer:
    """One completed block transfer."""

    src: str
    dst: str
    nbytes: int
    seconds: float
    energy_j: float


class DMAEngine:
    """Moves blocks between DRAM and UDP local memory."""

    def __init__(
        self,
        memory: MemorySystem,
        startup_s: float = DEFAULT_STARTUP_S,
        log: TrafficLog | None = None,
    ):
        if startup_s < 0:
            raise ValueError("startup must be non-negative")
        self.memory = memory
        self.startup_s = startup_s
        self.log = log if log is not None else TrafficLog()

    def transfer(self, nbytes: int, src: str = "dram", dst: str = "udp") -> DMATransfer:
        """Execute one descriptor; returns timing/energy and logs traffic."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        seconds = self.startup_s + self.memory.transfer_seconds(nbytes)
        energy = self.memory.transfer_energy_j(nbytes)
        self.log.record(src, dst, nbytes)
        counters = _COUNTERS
        counters["memsys.dma.transfers"].inc()
        counters["memsys.dma.startup_seconds"].inc(self.startup_s)
        counters["memsys.dram.bytes_read"].inc(nbytes)
        counters["memsys.dram.seconds"].inc(seconds)
        counters["memsys.dram.energy_j"].inc(energy)
        return DMATransfer(src=src, dst=dst, nbytes=nbytes, seconds=seconds, energy_j=energy)

    def effective_bandwidth(self, block_bytes: int) -> float:
        """Sustained bytes/s when streaming back-to-back blocks of the
        given size (startup amortization curve)."""
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        per_block = self.startup_s + self.memory.transfer_seconds(block_bytes)
        return block_bytes / per_block


class DMALedger:
    """The ``dram -> udp`` transfers of a fixed sequence of record sizes,
    costed once (in numpy, which rounds as the scalar model does).
    :meth:`charge` leaves the log, the ``memsys.*`` counters and the
    running seconds as one default :meth:`DMAEngine.transfer` per record
    would: the same values, added in the same order."""

    def __init__(self, memory: MemorySystem, sizes):
        sizes = np.asarray(sizes, dtype=np.int64)
        self.startup_s = DEFAULT_STARTUP_S
        self.seconds = self.startup_s + memory.transfer_seconds(sizes)
        self.energy_j = memory.transfer_energy_j(sizes)
        self._offsets = np.concatenate(([0], np.cumsum(sizes)))

    def charge(self, log: TrafficLog, start: int, stop: int, seconds: float) -> float:
        """Charge records ``[start, stop)``; returns ``seconds`` plus
        their transfer seconds."""
        if stop <= start:
            return seconds
        nbytes = int(self._offsets[stop] - self._offsets[start])
        per_record = self.seconds[start:stop].tolist()
        log.record("dram", "udp", nbytes)
        counters = _COUNTERS
        counters["memsys.dma.transfers"].inc(stop - start)
        counters["memsys.dma.startup_seconds"].inc_each(repeat(self.startup_s, stop - start))
        counters["memsys.dram.bytes_read"].inc(nbytes)
        counters["memsys.dram.seconds"].inc_each(per_record)
        counters["memsys.dram.energy_j"].inc_each(self.energy_j[start:stop].tolist())
        for s in per_record:
            seconds += s
        return seconds
