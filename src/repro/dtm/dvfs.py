"""Global dynamic voltage/frequency scaling, for comparison with stop-and-go.

The paper argues (§4) that DVS performs comparably to stop-and-go for these
workloads and scales poorly with technology (shrinking Vdd-to-threshold gap),
so stop-and-go is the baseline.  This policy exists to let benchmarks verify
the "performs comparably" claim inside our model: when hot, the core runs at
``1/slowdown`` of full speed with dynamic power scaled by
``power_scale ≈ (f/f0)·(V/V0)²``.

A cycle-level simulator cannot literally stretch its clock, so the simulator
realizes ``slowdown`` by gating the pipeline on all but every n-th cycle —
the standard discrete approximation.
"""

from __future__ import annotations

import math

from ..telemetry.events import EventType
from ..thermal.sensors import SensorReading
from .base import DTMPolicy

#: Default frequency divisor while engaged.
DEFAULT_SLOWDOWN = 2

#: Default voltage ratio while engaged; dynamic power scales by its square.
DEFAULT_VOLTAGE_RATIO = 0.85


class DVFS(DTMPolicy):
    """Halve frequency (and scale voltage) when hot; restore when cool."""

    name = "dvfs"

    def __init__(
        self,
        emergency_k: float,
        resume_k: float,
        slowdown: int = DEFAULT_SLOWDOWN,
        voltage_ratio: float = DEFAULT_VOLTAGE_RATIO,
    ) -> None:
        super().__init__()
        if resume_k >= emergency_k:
            raise ValueError("resume threshold must be below emergency")
        if slowdown < 2:
            raise ValueError("slowdown must be >= 2")
        self.emergency_k = emergency_k
        self.resume_k = resume_k
        self._scaled_slowdown = slowdown
        # The frequency factor of P ∝ f·V² emerges naturally from gating
        # (fewer accesses per wall-clock second); only V² is applied here.
        self._scaled_power = voltage_ratio * voltage_ratio
        self.throttled = False

    def on_sensor(self, reading: SensorReading) -> None:
        hottest = reading.hottest_k
        if self.throttled:
            if hottest <= self.resume_k:
                self.throttled = False
                self.slowdown = 1
                self.power_scale = 1.0
                self._emit_step(reading, hottest)
        elif hottest >= self.emergency_k:
            self.throttled = True
            self.slowdown = self._scaled_slowdown
            self.power_scale = self._scaled_power
            self.engagements += 1
            self._emit_step(reading, hottest)

    def quiet_band(self) -> tuple[float, float]:
        if self.throttled:
            return self.resume_k, math.inf
        return -math.inf, self.emergency_k

    def _emit_step(self, reading: SensorReading, hottest: float) -> None:
        self.telemetry.emit(
            EventType.DVFS_STEP,
            reading.cycle,
            value=hottest,
            data={
                "mechanism": "dvfs",
                "slowdown": self.slowdown,
                "power_scale": self.power_scale,
            },
        )
