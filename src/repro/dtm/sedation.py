"""Selective sedation as a DTM policy.

Wraps :class:`~repro.core.sedation.SelectiveSedationController` and layers
the paper's stop-and-go *safety net* underneath: if, despite sedation, any
block reaches the emergency temperature (e.g., the last unsedated thread is
itself an attacker), the whole pipeline stalls until the hot spot cools to
normal operation, and all sedated threads are restored.
"""

from __future__ import annotations

import math

from ..core.sedation import SelectiveSedationController
from ..telemetry.events import EventType
from ..thermal.sensors import SensorReading
from .base import DTMPolicy


class SedationPolicy(DTMPolicy):
    """Per-thread sedation with a global stop-and-go safety net."""

    name = "sedation"

    def __init__(
        self,
        controller: SelectiveSedationController,
        emergency_k: float,
        resume_k: float,
    ) -> None:
        super().__init__()
        if resume_k >= emergency_k:
            raise ValueError("resume threshold must be below emergency")
        self.controller = controller
        self.emergency_k = emergency_k
        self.resume_k = resume_k
        self.safety_net_engagements = 0

    def attach_telemetry(self, session) -> None:
        super().attach_telemetry(session)
        self.controller.telemetry = session

    def on_sensor(self, reading: SensorReading) -> None:
        if self.global_stall:
            if reading.hottest_k <= self.resume_k:
                self.global_stall = False
                self.telemetry.emit(
                    EventType.STOPGO_DISENGAGE,
                    reading.cycle,
                    value=reading.hottest_k,
                )
            return
        if reading.hottest_k >= self.emergency_k:
            self.global_stall = True
            self.engagements += 1
            self.safety_net_engagements += 1
            self.telemetry.emit(
                EventType.STOPGO_ENGAGE,
                reading.cycle,
                block=reading.hottest_block,
                value=reading.hottest_k,
                # repro: noqa(RPR008) safety-net engage is a deliberate
                # variant of the plain stop-and-go event; consumers filter
                # on key presence
                data={"safety_net": True},
            )
            self.controller.on_safety_net(reading.cycle, reading.hottest_k)
            return
        self.controller.on_sensor(reading)

    def quiet_band(self) -> tuple[float, float]:
        if self.global_stall:
            return self.resume_k, math.inf
        return -math.inf, min(self.emergency_k, self.controller.quiet_below())

    @property
    def reports(self):
        return self.controller.reports
