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

    @classmethod
    def for_model(cls, model: RCThermalModel) -> "SensorBank":
        """The bank a run reads ``model`` through, set by the model's config."""
        thermal = model.config
        return cls(
            model,
            thermal.emergency_k,
            noise_k=thermal.sensor_noise_k,
            noise_seed=thermal.sensor_noise_seed,
        )

    def sample(self, cycle: int) -> SensorReading:
        """Read every sensor; record upward crossings of the emergency point."""
        temperatures = self.model.temperatures()
        if self.noise_k > 0.0:
            # One draw per block, in block order.
            gauss = self._rng.gauss
            for block in range(NUM_BLOCKS):
                temperatures[block] += gauss(0.0, self.noise_k)
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
