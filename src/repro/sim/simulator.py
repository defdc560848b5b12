"""The co-simulator: SMT pipeline + power + thermal + DTM policy.

Each run advances the pipeline cycle-by-cycle between *event boundaries*:
access-rate samples (for the sedation monitor) and thermal sensor readings
(for power accounting, RC integration, and the DTM policy).  Global-stall
periods (stop-and-go cooling) skip pipeline execution entirely and advance
only the thermal model — both faithful (the core is clock-gated) and fast,
since heat-stroke runs spend most of their time cooling.

That loop is written once, in :func:`run_loop`.  It drives two kinds of
*unit*: a :class:`Simulator` (one run, one policy) and a lock-step batch
cohort (:class:`repro.sim.cohort.Cohort`: many config-variant runs on one
shared pipeline).  Pipeline construction (:func:`build_core`) and result
assembly (:func:`tally` + :func:`build_result`) are shared the same way.
"""

from __future__ import annotations

import time
from dataclasses import replace

from ..config import SimulationConfig
from ..core.reporting import OSReportLog
from ..core.usage import UsageMonitor
from ..dtm import DTMPolicy, SedationPolicy, build_policy
from ..errors import SimulationError
from ..faults.injectors import SAMPLE_MISS, FaultController
from ..perf import PerfCounters
from ..blocks import INT_RF, NUM_BLOCKS
from ..pipeline.smt import SMTCore
from ..pipeline.banks import stream_cursor
from ..pipeline.source import RowSource
from ..power import EnergyModel, PowerAccountant
from ..telemetry import TelemetrySession, trace_row
from ..thermal import Floorplan, RCThermalModel, SensorBank
from ..workloads.registry import is_malicious, make_source
from .stats import RunResult, ThreadStats


def build_core(machine, names: list, make) -> SMTCore:
    """The SMT core over one stream cursor per hardware thread, caches prefilled.

    Every pipeline is built here: the scalar simulator's (a new stream per
    thread over a workload name's or caller-supplied source) and each
    batch trajectory's (shared streams, :class:`repro.pipeline.banks.StreamBank`).
    ``make(tid, name)`` turns entry ``tid`` of ``names`` into its cursor.
    """
    if len(names) != machine.num_threads:
        raise SimulationError(
            f"need {machine.num_threads} workloads, got {len(names)}"
        )
    cursors = [make(tid, name) for tid, name in enumerate(names)]
    core = SMTCore(machine, cursors)
    for cursor in cursors:
        cursor.prefill(core.hierarchy)
    return core


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
    return build_core(
        machine,
        workloads,
        lambda tid, name: stream_cursor(
            tid, make_source(name, tid, machine, config.thermal, seed=config.seed)
        ),
    )


def run_span(core: SMTCore, slowdown: int, span: int) -> None:
    """Run the pipeline for ``span`` cycles, honoring a DVFS ``slowdown``."""
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


def run_loop(unit, target: int, sample_interval: int, sensor_interval: int):
    """Run ``unit`` to cycle ``target``, or until one of its readings splits it.

    The co-simulation loop of both engines.  The pipeline runs between
    usage samples and sensor readings; a global stall (stop-and-go, the
    sedation safety net) skips straight to the next reading and advances
    only the thermal model, since the core is clock-gated.  A *unit* is a
    :class:`Simulator` or a batch :class:`~repro.sim.cohort.Cohort`.  The
    loop reads its ``core``, ``accountant`` and ``monitors``, its
    pipeline-visible ``stalled``/``slowdown``/``power_scale``, and its
    ``next_sample``/``next_sensor`` grid, and calls back into it at three
    points:

    * ``advance_thermal(powers)`` — integrate the thermal state up to the
      current cycle under ``powers``;
    * ``on_sample()`` — one usage-sample tick (``next_sample`` has already
      moved one interval on; the unit may move it elsewhere);
    * ``on_reading(stalled)`` — read the sensors and run the DTM policy.
      A non-``None`` return (a cohort's children after a split) stops the
      loop and is returned.

    Per-thread cycle classification follows the paper's Figure 6:
    *normal* (running, including memory stalls), *cooling* (globally
    stalled, or DVFS throttle cycles), *sedated* (fetch gated).
    """
    core = unit.core
    accountant = unit.accountant
    monitors = unit.monitors
    while core.cycle < target:
        if unit.stalled:
            chunk = min(sensor_interval, target - core.cycle)
            core.skip_cycles(chunk)
            unit.advance_thermal(accountant.idle_powers(chunk))
            for monitor in monitors:
                monitor.skip()
            for thread in core.threads:
                thread.cycles_cooling += chunk
            # The stall supersedes both grids: they restart from here.
            unit.next_sample = core.cycle + sample_interval
            unit.next_sensor = core.cycle + sensor_interval
            children = unit.on_reading(True)
            if children is not None:
                return children
            continue

        boundary = min(unit.next_sample, unit.next_sensor, target)
        span = boundary - core.cycle
        if span > 0:
            run_span(core, unit.slowdown, span)
        if core.cycle >= unit.next_sample:
            unit.next_sample += sample_interval
            unit.on_sample()
        if core.cycle >= unit.next_sensor:
            unit.advance_thermal(accountant.block_powers(unit.power_scale))
            unit.next_sensor += sensor_interval
            children = unit.on_reading(False)
            if children is not None:
                return children
    return None


def tally(core: SMTCore, policy: DTMPolicy, sensors: SensorBank) -> dict:
    """The cumulative counters a :class:`RunResult` reports, for one run.

    ``sensors`` is the run's sensor bank — a batch lane's is the one its
    cohort keeps for the lane's thermal config — and its model supplies the
    thermal perf counters.
    """
    sedations = safety_nets = 0
    if isinstance(policy, SedationPolicy):
        sedations = policy.controller.sedations
        safety_nets = policy.safety_net_engagements
    return {
        "threads": tuple(
            (t.committed, t.fetched, t.cycles_normal, t.cycles_cooling,
             t.cycles_sedated, tuple(core.access_counts[t.tid]))
            for t in core.threads
        ),
        "emergencies": sensors.total_emergencies,
        "per_block": tuple(sensors.emergencies_per_block),
        "policy": (sedations, safety_nets, policy.engagements),
        "perf": (core.perf_idle_skipped, core.perf_stall_skipped,
                 sensors.model.perf_advances,
                 sensors.model.perf_propagator_builds),
    }


def _minus(now, before):
    """Elementwise ``now - before`` over a tally's (nested) counters."""
    if isinstance(now, dict):
        return {key: _minus(now[key], before[key]) for key in now}
    if isinstance(now, tuple):
        return tuple(_minus(a, b) for a, b in zip(now, before, strict=True))
    return now - before


def build_result(
    workloads: tuple[str, ...],
    policy: str,
    cycles: int,
    now: dict,
    before: dict | None,
    peak_k: float,
    wall_seconds: float,
    trace: tuple = (),
) -> RunResult:
    """One run's :class:`RunResult`: the ``now`` tally minus ``before``.

    A scalar quantum subtracts the tally taken at its start (simulators
    may run several consecutive quanta); a batch lane ran from cycle 0,
    so its ``before`` is ``None`` (zero).
    """
    run = now if before is None else _minus(now, before)
    idle_skipped, stall_skipped, advances, builds = run["perf"]
    sedations, safety_nets, engagements = run["policy"]
    return RunResult(
        workloads=workloads,
        policy=policy,
        cycles=cycles,
        threads=tuple(
            ThreadStats(
                thread=tid,
                workload=workloads[tid],
                committed=committed,
                fetched=fetched,
                cycles=cycles,
                cycles_normal=normal,
                cycles_cooling=cooling,
                cycles_sedated=sedated,
                access_counts=counts,
            )
            for tid, (committed, fetched, normal, cooling, sedated, counts)
            in enumerate(run["threads"])
        ),
        emergencies=run["emergencies"],
        emergencies_per_block=run["per_block"],
        peak_temperature_k=float(peak_k),
        sedations=sedations,
        safety_net_engagements=safety_nets,
        stall_engagements=engagements,
        trace=trace,
        perf=PerfCounters(
            cycles=cycles,
            stepped_cycles=cycles - idle_skipped - stall_skipped,
            idle_skipped_cycles=idle_skipped,
            stall_skipped_cycles=stall_skipped,
            wall_seconds=wall_seconds,
            thermal_advances=advances,
            propagator_builds=builds,
        ),
    )


class Simulator:
    """One SMT machine instance under one DTM policy.

    A run-loop unit (:func:`run_loop`): the pipeline-visible state is the
    policy's, and the callbacks add what only a scalar run has — sampler
    faults, the telemetry session, trace rows and the attacker gate.
    """

    def __init__(
        self,
        config: SimulationConfig,
        workloads: list[str] | None = None,
        sources: list[RowSource] | None = None,
        energy: EnergyModel | None = None,
        floorplan: Floorplan | None = None,
        telemetry: TelemetrySession | None = None,
    ) -> None:
        self.config = config
        if sources is None:
            if workloads is None:
                raise SimulationError("provide workload names or uop sources")
            self.core = build_pipeline(config, list(workloads))
            self.workload_names = tuple(workloads)
        else:
            self.core = build_core(config.machine, sources, stream_cursor)
            self.workload_names = tuple(
                workloads
                if workloads
                else [type(s).__name__ for s in sources]
            )
        self.energy = energy or EnergyModel.default()
        self.thermal = RCThermalModel(config.thermal, floorplan, self.energy)
        self.sensors = SensorBank.for_model(self.thermal)
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
        # Per-quantum loop state, reset by every run().
        self.next_sample = self.next_sensor = self.core.cycle
        self._late_tick = False
        self._trace: list[tuple[int, float, float]] | None = None

    # -- the pipeline-visible state ----------------------------------------------

    @property
    def stalled(self) -> bool:
        return self.policy.global_stall

    @property
    def slowdown(self) -> int:
        return self.policy.slowdown

    @property
    def power_scale(self) -> float:
        return self.policy.power_scale

    # -- the run loop ------------------------------------------------------------

    @property
    def monitors(self) -> tuple[UsageMonitor, ...]:
        """The usage monitors :func:`run_loop` advances through a stall."""
        return (self.monitor,)

    def run(self, quantum_cycles: int | None = None, trace: bool = False) -> RunResult:
        """Simulate one OS quantum and return the collected statistics."""
        quantum = (
            self.config.quantum_cycles if quantum_cycles is None else quantum_cycles
        )
        if quantum <= 0:
            raise SimulationError("quantum must be positive")
        sample_interval = self.config.sedation.sample_interval
        sensor_interval = self.config.thermal.sensor_interval
        start = self.core.cycle
        self.next_sample = start + sample_interval
        self.next_sensor = start + sensor_interval
        self._late_tick = False
        self._trace = [] if trace else None
        if self.faults is not None and self.faults.attacker is not None:
            # Establish the schedule's phase at quantum start (a start_on
            # =False plan pauses its threads before the first fetch).
            self.faults.attacker.on_boundary(start)
        # Snapshot cumulative counters so the result reports THIS run only
        # (simulators may be run for several consecutive quanta).
        baseline = self._tally()
        # Wall-clock time feeds PerfCounters only (compare=False diagnostics);
        # it never influences simulated state or the cached statistics.
        wall_start = time.perf_counter()  # repro: noqa(RPR001) perf diagnostics only
        run_loop(self, start + quantum, sample_interval, sensor_interval)
        wall_seconds = time.perf_counter() - wall_start  # repro: noqa(RPR001) perf diagnostics only
        result = build_result(
            self.workload_names,
            self.policy.name,
            self.core.cycle - start,
            self._tally(),
            baseline,
            self.sensors.peak_k,
            wall_seconds,
            tuple(self._trace or ()),
        )
        if self.telemetry is not None:
            result = replace(result, telemetry=self._telemetry_snapshot(result))
        return result

    def advance_thermal(self, powers: list[float]) -> None:
        """Integrate the RC model over the cycles since its last advance."""
        cycles = self.core.cycle - self._last_thermal_cycle
        if cycles <= 0:
            return
        self.thermal.advance(
            cycles * self.config.thermal.seconds_per_cycle, powers
        )
        self._last_thermal_cycle = self.core.cycle

    def on_sample(self) -> None:
        """One usage-sample tick, through the sampler fault model if any."""
        sampler = self.faults.sampler if self.faults is not None else None
        if sampler is not None and not self._late_tick:
            verdict, delay = sampler.on_tick(self.core.cycle)
            if verdict == SAMPLE_MISS:
                # Lost tick: the next sample averages over the widened
                # window (UsageMonitor keeps its snapshot).
                self.monitor.miss_sample()
                return
            if delay:
                # Deferred tick: fires late, then the grid resumes from
                # the late firing point.
                self._late_tick = True
                self.next_sample = self.core.cycle + delay
                return
        self._late_tick = False
        self.monitor.sample()
        if self.telemetry is not None:
            self.telemetry.maybe_ewma_snapshot(
                self.core.cycle, INT_RF, self.monitor.averages_at(INT_RF)
            )

    def on_reading(self, stalled: bool) -> None:
        """Read the sensors, log the reading, and run the DTM policy."""
        cycle = self.core.cycle
        reading = self.sensors.sample(cycle)
        rows = self._trace
        if self.telemetry is not None:
            sample_event = self.telemetry.observe_reading(
                reading, self.config.thermal.emergency_k
            )
            if rows is not None:
                rows.append(trace_row(sample_event))
        elif rows is not None:
            rows.append(
                (cycle, reading.hottest_k, float(reading.temperatures[0]))
            )
        self.policy.on_sensor(reading)
        if stalled:
            self._late_tick = False  # the stall supersedes a late tick
        if self.faults is not None and self.faults.attacker is not None:
            self.faults.attacker.on_boundary(cycle)

    # -- result assembly ------------------------------------------------------------

    def _tally(self) -> dict:
        return tally(self.core, self.policy, self.sensors)

    def _telemetry_snapshot(self, result: RunResult) -> dict:
        # Gauges reflect the most recent quantum; counters/histograms
        # accumulate over the session (i.e. across a campaign's quanta).
        metrics = self.telemetry.metrics
        for stats in result.threads:
            metrics.set_gauge(f"duty_cycle.t{stats.thread}", stats.normal_fraction)
            metrics.set_gauge(
                f"sedated_fraction.t{stats.thread}", stats.sedated_fraction
            )
        metrics.set_gauge("peak_temperature_k", self.sensors.peak_k)
        cycles = result.cycles
        metrics.set_gauge(
            "time_above_emergency_fraction",
            (
                metrics.counters.get("cycles_above_emergency", 0) / cycles
                if cycles
                else 0.0
            ),
        )
        return self.telemetry.snapshot()


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
