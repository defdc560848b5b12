"""Temperature sensors: periodic sampling and threshold-crossing detection.

The paper's pipeline "senses the temperature every 20,000 cycles (well under
the thermal RC time-constant of any resource)".  Sensors here wrap the RC
model with crossing detection so DTM policies can count emergencies and react
to upper/lower threshold events per block.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from ..blocks import NUM_BLOCKS, block_name
from .rcmodel import RCThermalModel


def add_sensor_noise(temperatures, rng: random.Random, sigma: float) -> None:
    """Add one ``rng.gauss(0, sigma)`` draw per block, in block order.

    The one place sensor noise is drawn, for the scalar bank and for every
    batch lane alike, so a lane's draw sequence is the scalar run's.
    """
    gauss = rng.gauss
    for block in range(NUM_BLOCKS):
        temperatures[block] += gauss(0.0, sigma)


@dataclass
class SensorReading:
    """One sensor sample: temperatures plus upward emergency crossings."""

    cycle: int
    temperatures: np.ndarray
    emergency_crossings: list[int] = field(default_factory=list)

    @property
    def hottest_block(self) -> int:
        return int(np.argmax(self.temperatures))

    @property
    def hottest_k(self) -> float:
        return float(np.max(self.temperatures))


class SensorBank:
    """Per-block sensors with edge-triggered emergency detection.

    ``noise_k`` adds zero-mean Gaussian error (1 sigma, Kelvin) to every
    reading, modeling real on-die sensor imprecision; it is seeded for
    reproducibility.
    """

    def __init__(
        self,
        model: RCThermalModel,
        emergency_k: float,
        noise_k: float = 0.0,
        noise_seed: int = 1234,
    ) -> None:
        self.model = model
        self.emergency_k = emergency_k
        self.noise_k = noise_k
        self._rng = random.Random(noise_seed)
        self._above_emergency = [False] * NUM_BLOCKS
        self.emergencies_per_block = [0] * NUM_BLOCKS
        self.total_emergencies = 0
        self.peak_k = float(np.max(model.temperatures()))
        #: optional :class:`repro.faults.injectors.SensorFaultInjector`; the
        #: Simulator sets this when the config carries a sensor fault plan.
        #: Faults corrupt the *reported* values after measurement noise but
        #: before crossing detection, so a stuck or dropped sensor misleads
        #: every downstream consumer (DTM policy, sedation FSM, telemetry)
        #: exactly as real bad hardware would.
        self.fault_injector = None

    def sample(self, cycle: int) -> SensorReading:
        """Read every sensor; record upward crossings of the emergency point."""
        temperatures = self.model.temperatures()
        if self.noise_k > 0.0:
            add_sensor_noise(temperatures, self._rng, self.noise_k)
        if self.fault_injector is not None:
            self.fault_injector.apply(cycle, temperatures)
        crossings: list[int] = []
        for block in range(NUM_BLOCKS):
            above = temperatures[block] >= self.emergency_k
            if above and not self._above_emergency[block]:
                crossings.append(block)
                self.emergencies_per_block[block] += 1
                self.total_emergencies += 1
            self._above_emergency[block] = above
        hottest = float(np.max(temperatures))
        if hottest > self.peak_k:
            self.peak_k = hottest
        return SensorReading(cycle, temperatures, crossings)

    def blocks_at_or_above(self, threshold_k: float) -> list[int]:
        temperatures = self.model.temperatures()
        return [b for b in range(NUM_BLOCKS) if temperatures[b] >= threshold_k]

    def summary(self) -> dict[str, int]:
        """Emergency counts keyed by block name (non-zero entries only)."""
        return {
            block_name(block): count
            for block, count in enumerate(self.emergencies_per_block)
            if count
        }


class BatchCrossingDetector:
    """Edge-triggered emergency detection over ``B`` lock-step lanes.

    The vector form of :meth:`SensorBank.sample`'s detection loop: given a
    ``(B, NUM_BLOCKS)`` matrix of reported temperatures per sensor
    boundary, it records upward crossings of each lane's emergency point,
    per-block and total counts, and the running peak — all with the exact
    comparisons the scalar bank performs, so a lane's counters are
    bit-equal to a scalar run fed the same readings.
    """

    def __init__(
        self,
        emergency_k: np.ndarray,
        initial_peak_k: np.ndarray,
    ) -> None:
        lanes = len(emergency_k)
        self.emergency_k = np.asarray(
            emergency_k, dtype=float
        ).reshape(lanes, 1)
        self._above_emergency = np.zeros((lanes, NUM_BLOCKS), dtype=bool)
        self.emergencies_per_block = np.zeros(
            (lanes, NUM_BLOCKS), dtype=np.int64
        )
        self.total_emergencies = np.zeros(lanes, dtype=np.int64)
        self.peak_k = np.asarray(initial_peak_k, dtype=float).copy()

    def observe(self, temperatures: np.ndarray) -> None:
        """Fold one ``(B, NUM_BLOCKS)`` reading into every lane's counters."""
        above = temperatures >= self.emergency_k
        crossings = above & ~self._above_emergency
        self._above_emergency = above
        self.emergencies_per_block += crossings
        self.total_emergencies += crossings.sum(axis=1)
        self.peak_k = np.maximum(self.peak_k, temperatures.max(axis=1))

    def take(self, indices: np.ndarray) -> "BatchCrossingDetector":
        """New detector carrying the selected lanes' counters and edges.

        Used when a cohort splits: every per-lane row (threshold, edge
        state, counts, peak) moves to the child as a copy — fancy indexing
        — so sibling cohorts never alias each other's crossing state.
        """
        clone = object.__new__(BatchCrossingDetector)
        clone.emergency_k = self.emergency_k[indices]
        clone._above_emergency = self._above_emergency[indices]
        clone.emergencies_per_block = self.emergencies_per_block[indices]
        clone.total_emergencies = self.total_emergencies[indices]
        clone.peak_k = self.peak_k[indices]
        return clone
