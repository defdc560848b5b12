"""The co-simulator: SMT pipeline + power + thermal + DTM policy.

Each run advances the pipeline cycle-by-cycle between *event boundaries*:
access-rate samples (for the sedation monitor) and thermal sensor readings
(for power accounting, RC integration, and the DTM policy).  Global-stall
periods (stop-and-go cooling) skip pipeline execution entirely and advance
only the thermal model — both faithful (the core is clock-gated) and fast,
since heat-stroke runs spend most of their time cooling.

Per-thread cycle classification follows the paper's Figure 6: *normal*
(running, including memory stalls), *cooling* (globally stalled, or DVFS
throttle cycles), *sedated* (fetch gated by selective sedation).
"""

from __future__ import annotations

import time

from ..config import SimulationConfig
from ..core.reporting import OSReportLog
from ..core.usage import UsageMonitor
from ..dtm import DTMPolicy, SedationPolicy, build_policy
from ..errors import SimulationError
from ..faults.injectors import SAMPLE_MISS, FaultController
from ..perf import PerfCounters
from ..blocks import INT_RF, NUM_BLOCKS
from ..pipeline.smt import SMTCore
from ..pipeline.source import UopSource
from ..power import EnergyModel, PowerAccountant
from ..telemetry import TelemetrySession, trace_row
from ..thermal import Floorplan, RCThermalModel, SensorBank
from ..workloads.registry import is_malicious, make_source
from .stats import RunResult, ThreadStats


def build_pipeline(config: SimulationConfig, workloads: list[str]) -> SMTCore:
    """Construct the SMT core with seeded, prefilled workload sources.

    Exactly the pipeline a :class:`Simulator` builds for the same config and
    workload names — shared with the lock-step batch engine
    (:mod:`repro.sim.batch`), which drives one core on behalf of many
    config-variant lanes.  Of the config, only ``machine``, ``seed``, and
    the thermal time base (``time_scale``/``frequency_hz``, via
    ``cycles_from_seconds`` in the malicious-variant sources) influence the
    result; that is what makes pipeline sharing across thermal/DTM variants
    sound.
    """
    machine = config.machine
    if len(workloads) != machine.num_threads:
        raise SimulationError(
            f"need {machine.num_threads} workloads, got {len(workloads)}"
        )
    sources = [
        make_source(name, tid, machine, config.thermal, seed=config.seed)
        for tid, name in enumerate(workloads)
    ]
    core = SMTCore(machine, sources)
    for source in sources:
        prefill = getattr(source, "prefill", None)
        if prefill is not None:
            prefill(core.hierarchy)
    return core


def run_span(core: SMTCore, slowdown: int, span: int) -> None:
    """Run the pipeline for ``span`` cycles, honoring a DVFS ``slowdown``.

    The scalar run loop and every batch cohort advance through this one
    function, so per-thread cycle classification cannot drift between them.
    """
    if slowdown > 1:
        active = span // slowdown
        throttled = span - active
        if active:
            core.run_cycles(active)
        if throttled:
            core.skip_cycles(throttled)
        for thread in core.threads:
            thread.cycles_cooling += throttled
            if thread.sedated:
                thread.cycles_sedated += active
            else:
                thread.cycles_normal += active
        return
    core.run_cycles(span)
    for thread in core.threads:
        if thread.sedated:
            thread.cycles_sedated += span
        else:
            thread.cycles_normal += span


def policy_counts(policy: DTMPolicy) -> tuple[int, int, int]:
    """``(sedations, safety-net engagements, engagements)`` of a policy."""
    if isinstance(policy, SedationPolicy):
        return (
            policy.controller.sedations,
            policy.safety_net_engagements,
            policy.engagements,
        )
    return 0, 0, policy.engagements


class Simulator:
    """One SMT machine instance under one DTM policy."""

    def __init__(
        self,
        config: SimulationConfig,
        workloads: list[str] | None = None,
        sources: list[UopSource] | None = None,
        energy: EnergyModel | None = None,
        floorplan: Floorplan | None = None,
        telemetry: TelemetrySession | None = None,
    ) -> None:
        self.config = config
        machine = config.machine
        if sources is None:
            if workloads is None:
                raise SimulationError("provide workload names or uop sources")
            self.core = build_pipeline(config, list(workloads))
            self.workload_names = tuple(workloads)
        else:
            if len(sources) != machine.num_threads:
                raise SimulationError(
                    f"need {machine.num_threads} sources, got {len(sources)}"
                )
            self.workload_names = tuple(
                workloads
                if workloads
                else [type(s).__name__ for s in sources]
            )
            self.core = SMTCore(machine, sources)
            for source in sources:
                prefill = getattr(source, "prefill", None)
                if prefill is not None:
                    prefill(self.core.hierarchy)
        self.energy = energy or EnergyModel.default()
        self.thermal = RCThermalModel(config.thermal, floorplan, self.energy)
        self.sensors = SensorBank(
            self.thermal,
            config.thermal.emergency_k,
            noise_k=config.thermal.sensor_noise_k,
            noise_seed=config.thermal.sensor_noise_seed,
        )
        self.accountant = PowerAccountant(
            self.core, self.energy, config.thermal.frequency_hz
        )
        self.monitor = UsageMonitor(self.core, config.sedation)
        self.reports = OSReportLog()
        self.policy = build_policy(
            config, self.core, self.monitor, self.thermal, self.reports
        )
        #: optional observability session (``None`` = zero-overhead default);
        #: the policy, sedation controller, and pipeline all share it
        self.telemetry = telemetry
        if telemetry is not None:
            self.policy.attach_telemetry(telemetry)
            self.core.telemetry = telemetry
        self._last_thermal_cycle = self.core.cycle
        #: fault-injection controller (:mod:`repro.faults`); ``None`` for a
        #: healthy run, so the fast path stays branch-free.
        self.faults: FaultController | None = None
        plan = config.faults
        if plan is not None and plan.any_runtime_faults:
            controller = FaultController(plan, NUM_BLOCKS)
            if controller.sensor is not None:
                self.sensors.fault_injector = controller.sensor
            controller.bind_attacker(
                self.core,
                tuple(
                    tid
                    for tid, name in enumerate(self.workload_names)
                    if is_malicious(name)
                ),
            )
            if controller.actuator is not None and isinstance(
                self.policy, SedationPolicy
            ):
                self.policy.controller.actuator = controller.actuator
            if telemetry is not None:
                controller.attach_telemetry(telemetry)
            self.faults = controller

    # -- the run loop ------------------------------------------------------------

    def run(self, quantum_cycles: int | None = None, trace: bool = False) -> RunResult:
        """Simulate one OS quantum and return the collected statistics."""
        quantum = (
            self.config.quantum_cycles if quantum_cycles is None else quantum_cycles
        )
        if quantum <= 0:
            raise SimulationError("quantum must be positive")
        core = self.core
        policy = self.policy
        thermal_cfg = self.config.thermal
        sensor_interval = thermal_cfg.sensor_interval
        sample_interval = self.config.sedation.sample_interval
        seconds_per_cycle = thermal_cfg.seconds_per_cycle

        telemetry = self.telemetry
        faults = self.faults
        fault_sampler = faults.sampler if faults is not None else None
        attacker_gate = faults.attacker if faults is not None else None
        sampler_late_fire = False
        start = core.cycle
        target = start + quantum
        next_sample = start + sample_interval
        next_sensor = start + sensor_interval
        if attacker_gate is not None:
            # Establish the schedule's phase at quantum start (a start_on
            # =False plan pauses its threads before the first fetch).
            attacker_gate.on_boundary(start)
        trace_rows: list[tuple[int, float, float]] = []
        # Snapshot cumulative counters so the result reports THIS run only
        # (simulators may be run for several consecutive quanta).
        baseline = self._snapshot()
        # Wall-clock time feeds PerfCounters only (compare=False diagnostics);
        # it never influences simulated state or the cached statistics.
        wall_start = time.perf_counter()  # repro: noqa(RPR001) perf diagnostics only

        while core.cycle < target:
            if policy.global_stall:
                chunk = min(sensor_interval, target - core.cycle)
                core.skip_cycles(chunk)
                powers = self.accountant.idle_powers(chunk)
                self._advance_thermal(powers)
                self.monitor.skip()
                for thread in core.threads:
                    thread.cycles_cooling += chunk
                reading = self.sensors.sample(core.cycle)
                if telemetry is not None:
                    sample_event = telemetry.observe_reading(
                        reading, thermal_cfg.emergency_k
                    )
                    if trace:
                        trace_rows.append(trace_row(sample_event))
                elif trace:
                    trace_rows.append(
                        (core.cycle, reading.hottest_k, float(reading.temperatures[0]))
                    )
                policy.on_sensor(reading)
                if attacker_gate is not None:
                    attacker_gate.on_boundary(core.cycle)
                next_sample = core.cycle + sample_interval
                next_sensor = core.cycle + sensor_interval
                sampler_late_fire = False  # the stall supersedes a late tick
                continue

            boundary = min(next_sample, next_sensor, target)
            span = boundary - core.cycle
            if span > 0:
                run_span(core, policy.slowdown, span)
            if core.cycle >= next_sample:
                fire = True
                if fault_sampler is not None and not sampler_late_fire:
                    verdict, delay = fault_sampler.on_tick(core.cycle)
                    if verdict == SAMPLE_MISS:
                        # Lost tick: the next sample averages over the
                        # widened window (UsageMonitor keeps its snapshot).
                        fire = False
                        self.monitor.miss_sample()
                        next_sample += sample_interval
                    elif delay:
                        # Deferred tick: fires late, then the grid resumes
                        # from the late firing point.
                        fire = False
                        sampler_late_fire = True
                        next_sample = core.cycle + delay
                if fire:
                    sampler_late_fire = False
                    self.monitor.sample()
                    if telemetry is not None:
                        telemetry.maybe_ewma_snapshot(
                            core.cycle, INT_RF, self.monitor.averages_at(INT_RF)
                        )
                    next_sample += sample_interval
            if core.cycle >= next_sensor:
                powers = self.accountant.block_powers(policy.power_scale)
                self._advance_thermal(powers)
                reading = self.sensors.sample(core.cycle)
                if telemetry is not None:
                    sample_event = telemetry.observe_reading(
                        reading, thermal_cfg.emergency_k
                    )
                    if trace:
                        trace_rows.append(trace_row(sample_event))
                elif trace:
                    trace_rows.append(
                        (core.cycle, reading.hottest_k, float(reading.temperatures[0]))
                    )
                policy.on_sensor(reading)
                if attacker_gate is not None:
                    attacker_gate.on_boundary(core.cycle)
                next_sensor += sensor_interval

        wall_seconds = time.perf_counter() - wall_start  # repro: noqa(RPR001) perf diagnostics only
        return self._collect(start, baseline, trace_rows, wall_seconds)

    def _snapshot(self) -> dict:
        sedations, safety_nets, engagements = policy_counts(self.policy)
        return {
            "threads": [
                (t.committed, t.fetched, t.cycles_normal, t.cycles_cooling,
                 t.cycles_sedated)
                for t in self.core.threads
            ],
            "counts": [list(c) for c in self.core.access_counts],
            "emergencies": self.sensors.total_emergencies,
            "per_block": list(self.sensors.emergencies_per_block),
            "sedations": sedations,
            "safety_nets": safety_nets,
            "engagements": engagements,
            "perf": (
                self.core.perf_idle_skipped,
                self.core.perf_stall_skipped,
                self.thermal.perf_advances,
                self.thermal.perf_propagator_builds,
            ),
        }

    def _advance_thermal(self, powers: list[float]) -> None:
        cycles = self.core.cycle - self._last_thermal_cycle
        if cycles <= 0:
            return
        self.thermal.advance(
            cycles * self.config.thermal.seconds_per_cycle, powers
        )
        self._last_thermal_cycle = self.core.cycle

    # -- result assembly ------------------------------------------------------------

    def _collect(
        self,
        start: int,
        baseline: dict,
        trace_rows: list[tuple[int, float, float]],
        wall_seconds: float = 0.0,
    ) -> RunResult:
        core = self.core
        cycles = core.cycle - start
        current = self._snapshot()
        idle_skipped, stall_skipped, advances, builds = (
            now - before
            for now, before in zip(current["perf"], baseline["perf"], strict=True)
        )
        perf = PerfCounters(
            cycles=cycles,
            stepped_cycles=cycles - idle_skipped - stall_skipped,
            idle_skipped_cycles=idle_skipped,
            stall_skipped_cycles=stall_skipped,
            wall_seconds=wall_seconds,
            thermal_advances=advances,
            propagator_builds=builds,
        )
        threads = tuple(
            ThreadStats(
                thread=t.tid,
                workload=self.workload_names[t.tid],
                committed=t.committed - baseline["threads"][t.tid][0],
                fetched=t.fetched - baseline["threads"][t.tid][1],
                cycles=cycles,
                cycles_normal=t.cycles_normal - baseline["threads"][t.tid][2],
                cycles_cooling=t.cycles_cooling - baseline["threads"][t.tid][3],
                cycles_sedated=t.cycles_sedated - baseline["threads"][t.tid][4],
                access_counts=tuple(
                    now - before
                    for now, before in zip(
                        core.access_counts[t.tid], baseline["counts"][t.tid],
                        strict=True,
                    )
                ),
            )
            for t in core.threads
        )
        per_block = tuple(
            now - before
            for now, before in zip(
                current["per_block"], baseline["per_block"], strict=True
            )
        )
        telemetry = None
        if self.telemetry is not None:
            # Gauges reflect the most recent quantum; counters/histograms
            # accumulate over the session (i.e. across a campaign's quanta).
            for stats in threads:
                self.telemetry.metrics.set_gauge(
                    f"duty_cycle.t{stats.thread}", stats.normal_fraction
                )
                self.telemetry.metrics.set_gauge(
                    f"sedated_fraction.t{stats.thread}", stats.sedated_fraction
                )
            self.telemetry.metrics.set_gauge(
                "peak_temperature_k", self.sensors.peak_k
            )
            self.telemetry.metrics.set_gauge(
                "time_above_emergency_fraction",
                (
                    self.telemetry.metrics.counters.get(
                        "cycles_above_emergency", 0
                    )
                    / cycles
                    if cycles
                    else 0.0
                ),
            )
            telemetry = self.telemetry.snapshot()
        return RunResult(
            workloads=self.workload_names,
            policy=self.policy.name,
            cycles=cycles,
            threads=threads,
            emergencies=current["emergencies"] - baseline["emergencies"],
            emergencies_per_block=per_block,
            peak_temperature_k=self.sensors.peak_k,
            sedations=current["sedations"] - baseline["sedations"],
            safety_net_engagements=(
                current["safety_nets"] - baseline["safety_nets"]
            ),
            stall_engagements=current["engagements"] - baseline["engagements"],
            trace=tuple(trace_rows),
            perf=perf,
            telemetry=telemetry,
        )


def run_workloads(
    config: SimulationConfig,
    workloads: list[str],
    quantum_cycles: int | None = None,
    trace: bool = False,
    telemetry: TelemetrySession | None = None,
) -> RunResult:
    """One-shot convenience: build a simulator and run one quantum."""
    simulator = Simulator(config, workloads=workloads, telemetry=telemetry)
    return simulator.run(quantum_cycles=quantum_cycles, trace=trace)
