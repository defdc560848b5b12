"""Dynamic thermal management policy interface.

A policy observes sensor readings and controls the pipeline through three
knobs the simulator honors:

* ``global_stall`` — clock-gate the whole core (stop-and-go's mechanism);
* ``slowdown`` / ``power_scale`` — run the core at a fraction of full speed
  with scaled dynamic power (DVFS's mechanism);
* direct per-thread sedation through the core (selective sedation).

All policies see the same sensor stream the paper assumes: one reading per
sensor interval, every block instrumented.
"""

from __future__ import annotations

import math

from ..telemetry.session import NULL_TELEMETRY
from ..thermal.sensors import SensorReading


class DTMPolicy:
    """Base policy: never throttles (the ideal-sink companion)."""

    name = "ideal"

    def __init__(self) -> None:
        self.global_stall = False
        self.slowdown = 1
        self.power_scale = 1.0
        self.engagements = 0
        #: telemetry session; inert by default, so emission sites can call
        #: it unconditionally at state *transitions* (never per sensor tick)
        self.telemetry = NULL_TELEMETRY

    def attach_telemetry(self, session) -> None:
        """Route this policy's state transitions to a telemetry session."""
        self.telemetry = session

    def on_sensor(self, reading: SensorReading) -> None:
        """Observe a sensor reading; update throttle state."""
        return None

    def quiet_band(self) -> tuple[float, float]:
        """Open interval ``(lo, hi)`` of hottest readings that change nothing.

        Contract: with no telemetry attached, :meth:`on_sensor` leaves every
        attribute of the policy untouched while ``lo < hottest_k < hi``.
        The band depends on the current state, so it must be re-read after
        every call that may have changed it.  The lock-step batch kernel
        calls only the lanes whose reading falls outside their band.
        """
        return -math.inf, math.inf

    def describe(self) -> str:
        return f"{self.name} (engaged {self.engagements}x)"
