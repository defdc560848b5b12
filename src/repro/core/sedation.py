"""Selective sedation: the paper's defense (§3.2).

Per potential-hot-spot resource, two temperature triggers (the paper's
356 K / 355 K; this reproduction's calibrated values are the canonical
``UPPER_THRESHOLD_K`` / ``LOWER_THRESHOLD_K`` in :mod:`repro.config`):

* **upper threshold** (just below the ``EMERGENCY_TEMPERATURE_K``
  emergency) — identify the thread with the highest weighted-average access
  rate at that resource and sedate it (stop fetching from it);
* **lower threshold** (just above normal operation) — release every
  thread sedated for that resource.

Because one sedation does not guarantee cool-down when *multiple* threads
have power-density problems, the controller re-examines the resource after
**twice** the expected cooling time ("twice" because a still-running thread
keeps generating some heat) and sedates the next-highest-average thread if
the resource has not cooled.  The last unsedated thread is never sedated — it
cannot degrade anyone else, and if it drives the resource to the emergency
temperature the global stop-and-go safety net shuts the pipeline down and
releases everyone.

Sedations are reported to the OS (:mod:`repro.core.reporting`).
"""

from __future__ import annotations

import math

from ..blocks import NUM_BLOCKS
from ..config import SedationConfig
from ..pipeline.smt import SMTCore
from ..telemetry.events import EventType
from ..telemetry.session import NULL_TELEMETRY
from ..thermal.sensors import SensorReading
from .detector import culprit_margin, identify_culprit
from .reporting import OffenderReport, OSReportLog, ReportKind
from .usage import UsageMonitor

#: Per-resource FSM states.
_IDLE = 0
_WAITING = 1


class SelectiveSedationController:
    """The per-resource sedation state machine."""

    def __init__(
        self,
        core: SMTCore,
        monitor: UsageMonitor,
        config: SedationConfig,
        expected_cooling_cycles: int,
        report_log: OSReportLog | None = None,
    ) -> None:
        self.core = core
        self.monitor = monitor
        self.config = config
        self.expected_cooling_cycles = max(1, expected_cooling_cycles)
        # Note: an empty OSReportLog is falsy (it has __len__), so this must
        # be an identity check, not ``or``.
        self.reports = report_log if report_log is not None else OSReportLog()
        self._state = [_IDLE] * NUM_BLOCKS
        self._deadline = [0] * NUM_BLOCKS
        self._sedated_for: list[set[int]] = [set() for _ in range(NUM_BLOCKS)]
        self.sedations = 0
        self.releases = 0
        #: telemetry session (inert by default); SedationPolicy propagates
        #: the simulator's session here via ``attach_telemetry``.
        self.telemetry = NULL_TELEMETRY
        self._above_upper = [False] * NUM_BLOCKS
        #: optional :class:`repro.faults.injectors.ActuatorInjector`; when
        #: set, sedate/release commands are routed through it (and may be
        #: dropped or delayed).  The FSM's bookkeeping is unconditional —
        #: the controller *believes* its command landed — so a dropped
        #: actuation leaves a thread marked sedated that is still fetching,
        #: which is exactly the failure the safety net must absorb.
        self.actuator = None

    # -- queries -----------------------------------------------------------

    def is_sedated(self, tid: int) -> bool:
        return any(tid in sedated for sedated in self._sedated_for)

    def sedated_threads(self) -> set[int]:
        result: set[int] = set()
        for sedated in self._sedated_for:
            result |= sedated
        return result

    def _candidates(self) -> list[int]:
        """Unsedated, unhalted threads — eligible for sedation."""
        return [
            t.tid
            for t in self.core.threads
            if not t.sedated and not t.throttle_modulus and not t.halted
        ]

    # -- the FSM -------------------------------------------------------------

    def on_sensor(self, reading: SensorReading) -> None:
        """Advance every per-resource state machine with a fresh reading."""
        upper = self.config.upper_threshold_k
        lower = self.config.lower_threshold_k
        wait = int(
            self.config.cooling_wait_multiplier * self.expected_cooling_cycles
        )
        if self.actuator is not None:
            self.actuator.drain(reading.cycle)
        telemetry = self.telemetry
        for block in range(NUM_BLOCKS):
            temperature = float(reading.temperatures[block])
            if telemetry.enabled:
                above = temperature >= upper
                if above != self._above_upper[block]:
                    self._above_upper[block] = above
                    telemetry.emit(
                        EventType.THRESHOLD_CROSS,
                        reading.cycle,
                        block=block,
                        value=temperature,
                        data={
                            "threshold": "upper",
                            "direction": "rise" if above else "fall",
                        },
                    )
            if self._state[block] == _IDLE:
                if temperature >= upper:
                    if self._sedate_culprit(block, reading.cycle, temperature):
                        self._state[block] = _WAITING
                        self._deadline[block] = reading.cycle + wait
            else:  # _WAITING
                if temperature <= lower:
                    self._release_block(block, reading.cycle, temperature)
                elif reading.cycle >= self._deadline[block]:
                    # Not cooling: another thread must also have a
                    # power-density problem — sedate the next one.
                    self._sedate_culprit(block, reading.cycle, temperature)
                    self._deadline[block] = reading.cycle + wait

    def quiet_below(self) -> float:
        """Hottest reading below which :meth:`on_sensor` changes nothing.

        With every resource IDLE only an upper-threshold crossing acts; a
        WAITING resource may release or re-examine on any reading, so then
        no reading is quiet.  Holds with no telemetry and no actuator fault
        model attached.
        """
        if _WAITING in self._state:
            return -math.inf
        return self.config.upper_threshold_k

    def _apply(self, tid: int) -> None:
        """Engage the configured slowdown on one thread."""
        if self.config.sedation_mode == "throttle":
            self.core.set_throttled(tid, self.config.throttle_modulus)
        else:
            self.core.set_sedated(tid, True)

    def _clear(self, tid: int) -> None:
        if self.config.sedation_mode == "throttle":
            self.core.set_throttled(tid, 0)
        else:
            self.core.set_sedated(tid, False)

    def _actuate(self, cycle: int, action: str, tid: int, block: int | None,
                 fn) -> None:
        """Issue one actuation command, through the fault model if present."""
        if self.actuator is None:
            fn()
        else:
            self.actuator.submit(cycle, action, tid, block, fn)

    def _sedate_culprit(self, block: int, cycle: int, temperature: float) -> bool:
        candidates = self._candidates()
        if len(candidates) < 2:
            # The last unsedated thread cannot degrade any other thread:
            # let it run; the stop-and-go safety net guards the emergency.
            return False
        culprit = identify_culprit(self.monitor, block, candidates)
        if culprit is None:
            return False
        margin = culprit_margin(self.monitor, block, candidates)
        self._sedated_for[block].add(culprit)
        tid = culprit
        self._actuate(cycle, "sedate", tid, block, lambda: self._apply(tid))
        self.sedations += 1
        self.telemetry.emit(
            EventType.SEDATE,
            cycle,
            thread=culprit,
            block=block,
            value=temperature,
            data={
                "ewma": self.monitor.weighted_average(culprit, block),
                "margin": margin,
            },
        )
        if self.config.report_to_os:
            self.reports.record(
                OffenderReport(
                    cycle,
                    ReportKind.SEDATED,
                    culprit,
                    block,
                    temperature,
                    self.monitor.weighted_average(culprit, block),
                )
            )
        return True

    def _release_block(self, block: int, cycle: int, temperature: float) -> None:
        for tid in sorted(self._sedated_for[block]):
            self._sedated_for[block].discard(tid)
            if not self.is_sedated(tid):
                self._actuate(
                    cycle, "release", tid, block,
                    lambda tid=tid: self._clear(tid),
                )
            self.releases += 1
            self.telemetry.emit(
                EventType.RELEASE,
                cycle,
                thread=tid,
                block=block,
                value=temperature,
                data={"ewma": self.monitor.weighted_average(tid, block)},
            )
            if self.config.report_to_os:
                self.reports.record(
                    OffenderReport(
                        cycle,
                        ReportKind.RELEASED,
                        tid,
                        block,
                        temperature,
                        self.monitor.weighted_average(tid, block),
                    )
                )
        self._state[block] = _IDLE

    def on_safety_net(self, cycle: int, temperature: float) -> None:
        """Global stop-and-go engaged: release everyone, reset all FSMs.

        The paper: "Stop-and-go stalls the entire pipeline until the resource
        cools down to normal operating temperature, restoring all sedated
        threads to normal execution."
        """
        if self.telemetry.enabled:
            for block in range(NUM_BLOCKS):
                for tid in sorted(self._sedated_for[block]):
                    self.telemetry.emit(
                        EventType.RELEASE,
                        cycle,
                        thread=tid,
                        block=block,
                        value=temperature,
                        # repro: noqa(RPR008) deliberate variant of the
                        # per-block RELEASE payload: flags the global reset
                        data={"safety_net": True},
                    )
        # The safety net is the global reset path: it bypasses the actuator
        # fault model entirely (stop-and-go is a chip-wide clock gate, not a
        # per-thread command) and wipes any still-pending delayed commands.
        if self.actuator is not None:
            self.actuator.clear()
        for tid in self.sedated_threads():
            self._clear(tid)
        for block in range(NUM_BLOCKS):
            self._sedated_for[block].clear()
            self._state[block] = _IDLE
        if self.config.report_to_os:
            self.reports.record(
                OffenderReport(cycle, ReportKind.SAFETY_NET, None, None, temperature)
            )
