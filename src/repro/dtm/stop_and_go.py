"""Stop-and-go (global clock gating): the paper's base-case DTM.

At any sensor reading with a block at or above the emergency temperature, the
entire pipeline is stalled; it resumes when the hottest block has cooled to
the normal operating temperature.  The paper chooses this as the baseline
because it performs within noise of DVS for these workloads (their §4,
citing HotSpot's Figure 6) and is what shipping processors implement.

This policy is exactly what heat stroke exploits: heating is fast, cooling is
slow, and the stall is *global*, so one thread's hot spot stalls everyone.
"""

from __future__ import annotations

import math

from ..telemetry.events import EventType
from ..thermal.sensors import SensorReading
from .base import DTMPolicy


class StopAndGo(DTMPolicy):
    """Global stall at emergency; resume at normal operating temperature."""

    name = "stop_and_go"

    def __init__(self, emergency_k: float, resume_k: float) -> None:
        super().__init__()
        if resume_k >= emergency_k:
            raise ValueError("resume threshold must be below emergency")
        self.emergency_k = emergency_k
        self.resume_k = resume_k

    def on_sensor(self, reading: SensorReading) -> None:
        hottest = reading.hottest_k
        if self.global_stall:
            if hottest <= self.resume_k:
                self.global_stall = False
                self.telemetry.emit(
                    EventType.STOPGO_DISENGAGE, reading.cycle, value=hottest
                )
        elif hottest >= self.emergency_k:
            self.global_stall = True
            self.engagements += 1
            self.telemetry.emit(
                EventType.STOPGO_ENGAGE,
                reading.cycle,
                block=reading.hottest_block,
                value=hottest,
            )

    def quiet_band(self) -> tuple[float, float]:
        if self.global_stall:
            return self.resume_k, math.inf
        return -math.inf, self.emergency_k
