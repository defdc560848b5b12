"""Temperature-Tracking Dynamic Frequency Scaling (TTDFS).

The paper discusses TTDFS (from the HotSpot work) and rejects it as a base
case: it "allows the processor to heat above its maximum temperature by
slowing the clock and relaxing timing constraints", is "effective only if
the sole limitation on power density is circuit timing", and "does not
reduce maximum temperature or prevent physical overheating".  It is
implemented here so the ablation benchmark can demonstrate exactly that
failure mode: under TTDFS the pipeline keeps running (slower) while the hot
spot keeps climbing past the emergency point.

Model: above a tracking threshold the clock is stepped down one notch per
degree (slowdown 2, 3, 4 ...), scaling dynamic power with frequency; there
is no stall and no upper bound on temperature.
"""

from __future__ import annotations

import math

from ..telemetry.events import EventType
from ..thermal.sensors import SensorReading
from .base import DTMPolicy

#: How far (K) the tracking threshold sits below the emergency point when
#: a TTDFS policy is built from a config.
TRACKING_OFFSET_K = 1.0

#: Default kelvin per frequency notch.
DEFAULT_DEGREES_PER_STEP = 1.0

#: Default deepest frequency divisor.
DEFAULT_MAX_SLOWDOWN = 4

#: How far (K) :meth:`TTDFS.quiet_band` keeps inside each notch edge, so
#: float rounding in the notch arithmetic can never act inside the band.
_EDGE_MARGIN_K = 1e-9


class TTDFS(DTMPolicy):
    """Frequency tracks temperature; nothing ever stalls."""

    name = "ttdfs"

    def __init__(
        self,
        tracking_threshold_k: float,
        degrees_per_step: float = DEFAULT_DEGREES_PER_STEP,
        max_slowdown: int = DEFAULT_MAX_SLOWDOWN,
    ) -> None:
        super().__init__()
        if degrees_per_step <= 0:
            raise ValueError("degrees_per_step must be positive")
        if max_slowdown < 2:
            raise ValueError("max_slowdown must be >= 2")
        self.tracking_threshold_k = tracking_threshold_k
        self.degrees_per_step = degrees_per_step
        self.max_slowdown = max_slowdown

    def on_sensor(self, reading: SensorReading) -> None:
        hottest = reading.hottest_k
        over = hottest - self.tracking_threshold_k
        if over <= 0:
            if self.slowdown != 1:
                self.slowdown = 1
                self.power_scale = 1.0
                self._emit_step(reading, hottest)
            return
        steps = 1 + int(over / self.degrees_per_step)
        new_slowdown = min(self.max_slowdown, 1 + steps)
        if new_slowdown != self.slowdown:
            self.slowdown = new_slowdown
            # P ∝ f·V²: the frequency factor emerges from gating; keep V
            # constant (TTDFS relaxes timing, it does not lower voltage).
            self.power_scale = 1.0
            self.engagements += 1
            self._emit_step(reading, hottest)

    def quiet_band(self) -> tuple[float, float]:
        tracking = self.tracking_threshold_k
        if self.slowdown == 1:
            return -math.inf, tracking
        # The readings whose notch count maps back to the current slowdown.
        step = self.degrees_per_step
        lo = tracking + (self.slowdown - 2) * step + _EDGE_MARGIN_K
        if self.slowdown >= self.max_slowdown:
            return lo, math.inf
        return lo, tracking + (self.slowdown - 1) * step - _EDGE_MARGIN_K

    def _emit_step(self, reading: SensorReading, hottest: float) -> None:
        self.telemetry.emit(
            EventType.DVFS_STEP,
            reading.cycle,
            value=hottest,
            data={
                "mechanism": "ttdfs",
                "slowdown": self.slowdown,
                "power_scale": self.power_scale,
            },
        )
