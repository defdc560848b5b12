"""The L1I / L1D / shared-L2 / DRAM stack.

Latencies follow Table 1: 2-cycle L1s, 12-cycle shared L2, 300-cycle memory.
The hierarchy reports where each access was satisfied so the pipeline can
apply the paper's squash-on-L2-miss optimization, and counts accesses per
structure so the power model can attribute energy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..config import MachineConfig
from .cache import Cache


class MemLevel(enum.Enum):
    """Where an access was satisfied."""

    L1 = "l1"
    L2 = "l2"
    MEMORY = "memory"


@dataclass(frozen=True)
class MemAccessResult:
    """Latency and servicing level of one data or instruction access."""

    latency: int
    level: MemLevel

    @property
    def is_l2_miss(self) -> bool:
        return self.level is MemLevel.MEMORY


class MemoryHierarchy:
    """Shared memory system of the SMT core.

    Both SMT contexts share every level (the L1s are shared in the paper's
    machine as in real SMT implementations), so one thread's conflict misses
    evict the other's lines — an effect the Figure-2 kernel relies on only for
    its own address stream, but which the simulator models for all threads.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.l1i = Cache(config.l1i)
        self.l1d = Cache(config.l1d)
        self.l2 = Cache(config.l2)
        self.memory_latency = config.memory_latency
        # The six possible outcomes, built once: every access returns one
        # of these frozen objects instead of a new one.
        l2 = config.l2.latency
        memory = l2 + self.memory_latency
        self._i_results = (
            MemAccessResult(config.l1i.latency, MemLevel.L1),
            MemAccessResult(config.l1i.latency + l2, MemLevel.L2),
            MemAccessResult(config.l1i.latency + memory, MemLevel.MEMORY),
        )
        self._d_results = (
            MemAccessResult(config.l1d.latency, MemLevel.L1),
            MemAccessResult(config.l1d.latency + l2, MemLevel.L2),
            MemAccessResult(config.l1d.latency + memory, MemLevel.MEMORY),
        )
        # Per-structure access counters, drained by the power accountant.
        self.icache_accesses = 0
        self.dcache_accesses = 0
        self.l2_accesses = 0

    # -- instruction side ----------------------------------------------------

    def access_instruction(self, address: int) -> MemAccessResult:
        """Fetch path: L1I, then L2, then memory."""
        self.icache_accesses += 1
        if self.l1i.access(address):
            return self._i_results[0]
        self.l2_accesses += 1
        if self.l2.access(address):
            return self._i_results[1]
        return self._i_results[2]

    # -- data side -----------------------------------------------------------

    def access_data(self, address: int, is_store: bool = False) -> MemAccessResult:
        """Load/store path: L1D, then L2, then memory.

        Stores are modeled write-allocate / write-back, so they traverse the
        same path; the LSQ hides their latency from commit.
        """
        self.dcache_accesses += 1
        if self.l1d.access(address):
            return self._d_results[0]
        self.l2_accesses += 1
        if self.l2.access(address):
            return self._d_results[1]
        return self._d_results[2]

    def fork(self) -> "MemoryHierarchy":
        """Mid-run clone of every level plus the power access counters."""
        clone = MemoryHierarchy.__new__(MemoryHierarchy)
        clone.config = self.config
        clone.l1i = self.l1i.fork()
        clone.l1d = self.l1d.fork()
        clone.l2 = self.l2.fork()
        clone.memory_latency = self.memory_latency
        clone._i_results = self._i_results
        clone._d_results = self._d_results
        clone.icache_accesses = self.icache_accesses
        clone.dcache_accesses = self.dcache_accesses
        clone.l2_accesses = self.l2_accesses
        return clone

    def drain_access_counts(self) -> dict[str, int]:
        """Return and reset per-structure access counts (for power)."""
        counts = {
            "icache": self.icache_accesses,
            "dcache": self.dcache_accesses,
            "l2": self.l2_accesses,
        }
        self.icache_accesses = 0
        self.dcache_accesses = 0
        self.l2_accesses = 0
        return counts

    def flush_all(self) -> None:
        self.l1i.flush()
        self.l1d.flush()
        self.l2.flush()
