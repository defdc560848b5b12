"""Fetch gating: a gentler global DTM baseline.

A classic pre-hot-spot-era DTM technique: when the chip gets hot, gate the
front end on a duty cycle instead of stalling outright — the back end drains
and dynamic power falls.  Modeled as a pipeline slowdown of 2 between the
emergency and resume points.  Like stop-and-go and DVFS it is *global*:
every thread pays, which is why none of these baselines stop heat stroke
(only selective sedation is per-thread).
"""

from __future__ import annotations

import math

from ..telemetry.events import EventType
from ..thermal.sensors import SensorReading
from .base import DTMPolicy


class FetchGating(DTMPolicy):
    """Halve the front-end duty cycle when hot; restore when cool."""

    name = "fetch_gating"

    def __init__(self, emergency_k: float, resume_k: float) -> None:
        super().__init__()
        if resume_k >= emergency_k:
            raise ValueError("resume threshold must be below emergency")
        self.emergency_k = emergency_k
        self.resume_k = resume_k
        self.gating = False

    def on_sensor(self, reading: SensorReading) -> None:
        hottest = reading.hottest_k
        if self.gating:
            if hottest <= self.resume_k:
                self.gating = False
                self.slowdown = 1
                self._emit_step(reading, hottest)
        elif hottest >= self.emergency_k:
            self.gating = True
            self.slowdown = 2
            self.engagements += 1
            self._emit_step(reading, hottest)

    def quiet_band(self) -> tuple[float, float]:
        if self.gating:
            return self.resume_k, math.inf
        return -math.inf, self.emergency_k

    def _emit_step(self, reading: SensorReading, hottest: float) -> None:
        self.telemetry.emit(
            EventType.DVFS_STEP,
            reading.cycle,
            value=hottest,
            data={
                "mechanism": "fetch_gating",
                "slowdown": self.slowdown,
                "power_scale": self.power_scale,
            },
        )
