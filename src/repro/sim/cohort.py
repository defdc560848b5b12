"""Cohorts: lock-step lane groups, each lane with its own scalar DTM policy.

The batch engine (:mod:`repro.sim.batch`) runs one SMT pipeline on behalf
of many config-variant lanes.  That is sound exactly as long as every lane
would drive the pipeline identically — and a DTM action is the one thing
that breaks it.  Every lane therefore owns the ordinary policy object a
scalar :class:`~repro.sim.simulator.Simulator` would build
(:func:`repro.dtm.build_policy`), and this module defines the
**pipeline-visible divergence contract** that decides when lanes can no
longer share a pipeline:

A cohort is a unit of the one run loop both engines share
(:func:`repro.sim.simulator.run_loop`): it exposes the loop's state and
callbacks.  Its observers are the scalar ones, one per distinct input
rather than one per lane: lanes share the core, and so its block powers,
the sampling grid and the sedation history.  Lanes with equal
:class:`~repro.config.ThermalConfig` therefore read one
:class:`~repro.thermal.sensors.SensorBank` over one RC model — noise
draws, edge state, emergency counts and peak included — and sedation lanes
with equal ``ewma_shift`` read one :class:`~repro.core.usage.UsageMonitor`.

*Pipeline-visible state* is everything the run loop or the shared power
accountant consumes:

* ``global_stall`` — the policy's stall flag (stop-and-go, sedation's
  safety net), which selects the run loop's skip branch;
* ``slowdown`` — the DVFS/TTDFS/fetch-gating frequency divisor, which
  changes how a span is split into run and skip cycles;
* ``power_scale`` — the dynamic-power factor handed to
  ``PowerAccountant.block_powers`` (the accountant advances its snapshot
  once per boundary, so lanes sharing it must agree on the scale);
* the per-thread ``sedated`` / ``throttle_modulus`` actuation flags, which
  gate fetch inside the pipeline.

Everything else a policy owns — engagement counters, the sedation
controller's per-resource FSM states, deadlines and culprit sets — is
*invisible*: it influences nothing until it changes one of the visible
knobs, so it rides along per lane without constraining the batch.

A :class:`Cohort` is a set of lanes whose visible state (and therefore
whole visible *history*) is identical.  At every sensor boundary the
cohort calls the policies of the lanes whose hottest reading lies outside
their :meth:`~repro.dtm.base.DTMPolicy.quiet_band` — one vectorized
compare finds them — and if the resulting visible keys disagree, the
cohort **splits**: lanes are partitioned by :func:`visible_key`, the
largest partition keeps the live pipeline, and every other partition
forks the pipeline/accountant at the boundary — a snapshot of the shared
prefix — and continues as its own (possibly width-1) lock-step group.
Nothing ever restarts from cycle 0.  A lane's policy object moves by
reference into its child cohort; a forked child copies the sensor banks and
usage monitors its lanes read onto its own core and models.

Sedation lanes cannot actuate the shared core directly: their controller
acts on a :class:`LanePort` holding the lane's own thread flags, and the
cohort applies the agreed flags to the core.  Exactness is by
construction: every lane runs the scalar policy code itself, fed the
reading a scalar run would see.
"""

from __future__ import annotations

import copy

import numpy as np


class _LaneThread:
    """One thread as a sedation lane sees it: its own flags, the core's halt."""

    __slots__ = ("tid", "sedated", "throttle_modulus", "core_thread")

    def __init__(self, core_thread) -> None:
        self.tid = core_thread.tid
        self.sedated = False
        self.throttle_modulus = 0
        self.core_thread = core_thread

    @property
    def halted(self) -> bool:
        return self.core_thread.halted


class LanePort:
    """A sedation lane's stand-in for the core and the usage monitor.

    The controller reads ``threads`` and ``weighted_average`` and actuates
    through ``set_sedated``/``set_throttled``, exactly as it would on an
    :class:`~repro.pipeline.smt.SMTCore` and a
    :class:`~repro.core.usage.UsageMonitor`.  Flags land on the port, not
    the shared core (the cohort applies them once its lanes agree); halt
    state and EWMA values come from the lane's cohort, so the port is
    rebound whenever its lane moves to a child cohort.
    """

    def __init__(self, core, monitor) -> None:
        self.threads = [_LaneThread(thread) for thread in core.threads]
        #: per-thread ``(sedated, throttle_modulus)``, ``None`` when all clear
        self.flags: tuple | None = None
        self.bind(core, monitor)

    def bind(self, core, monitor) -> None:
        """Point the port at the lane's (new) cohort core and usage monitor."""
        for view, thread in zip(self.threads, core.threads, strict=True):
            view.core_thread = thread
        self.monitor = monitor

    def set_sedated(self, tid: int, sedated: bool) -> None:
        self.threads[tid].sedated = sedated
        self._refresh_flags()

    def set_throttled(self, tid: int, modulus: int) -> None:
        self.threads[tid].throttle_modulus = modulus
        self._refresh_flags()

    def weighted_average(self, tid: int, block: int) -> float:
        return self.monitor.weighted_average(tid, block)

    def _refresh_flags(self) -> None:
        flags = tuple(
            (view.sedated, view.throttle_modulus) for view in self.threads
        )
        self.flags = flags if any(s or m for s, m in flags) else None


def _port_monitors(ports: list) -> tuple:
    """The distinct usage monitors a cohort's sedation ports read."""
    return tuple(
        dict.fromkeys(port.monitor for port in ports if port is not None)
    )


def visible_key(policy, port: LanePort | None) -> tuple:
    """The pipeline-visible state of one lane: what a cohort's lanes share."""
    return (
        policy.global_stall,
        policy.slowdown,
        policy.power_scale,
        None if port is None else port.flags,
    )


class Cohort:
    """One lock-step group: lanes with identical pipeline-visible history.

    Owns one pipeline (+ power accountant), one scalar
    :class:`~repro.thermal.sensors.SensorBank` over its own RC model per
    distinct thermal config among its lanes, the usage monitors its
    sedation lanes' ports read (one per distinct ``ewma_shift``), and one
    DTM policy (and, for sedation lanes, one :class:`LanePort`) per lane
    with the lanes' quiet bands.  ``lanes`` maps row position → original
    spec index and ``sensors`` → the lane's bank; ``banks`` lists the
    distinct banks and ``bank_rows`` each lane's ordinal among them.
    ``workloads`` names the trajectory every lane of this cohort shares
    (heterogeneous batches run one cohort tree per trajectory).
    """

    __slots__ = (
        "lanes",
        "workloads",
        "core",
        "accountant",
        "monitors",
        "sensors",
        "banks",
        "bank_rows",
        "policies",
        "ports",
        "quiet_lo",
        "quiet_hi",
        "key",
        "stalled",
        "slowdown",
        "power_scale",
        "next_sample",
        "next_sensor",
        "last_thermal",
        "seconds_per_cycle",
    )

    def __init__(
        self,
        lanes,
        workloads,
        core,
        accountant,
        sensors,
        policies,
        ports,
        next_sample: int,
        next_sensor: int,
        seconds_per_cycle: float,
    ) -> None:
        self.lanes = np.asarray(lanes, dtype=np.int64)
        self.workloads = tuple(workloads)
        self.core = core
        self.accountant = accountant
        self._observe(list(sensors))
        self.policies = list(policies)
        self.ports = list(ports)
        self.monitors = _port_monitors(self.ports)
        bands = [policy.quiet_band() for policy in self.policies]
        self.quiet_lo = np.array([lo for lo, _ in bands])
        self.quiet_hi = np.array([hi for _, hi in bands])
        self.next_sample = next_sample
        self.next_sensor = next_sensor
        self.last_thermal = core.cycle
        self.seconds_per_cycle = seconds_per_cycle
        self.adopt_visible()

    def _observe(self, sensors: list) -> None:
        """Adopt the lanes' sensor banks: the distinct ones, and lane ordinals."""
        self.sensors = sensors
        self.banks = tuple(dict.fromkeys(sensors))
        ordinals = {bank: row for row, bank in enumerate(self.banks)}
        self.bank_rows = np.array(
            [ordinals[bank] for bank in sensors], dtype=np.int64
        )

    def advance_thermal(self, powers: list[float]) -> None:
        """Advance every bank's model over the cycles since the last advance."""
        cycle = self.core.cycle
        cycles = cycle - self.last_thermal
        if cycles <= 0:
            return
        dt = cycles * self.seconds_per_cycle
        for bank in self.banks:
            bank.model.advance(dt, powers)
        self.last_thermal = cycle

    def on_sample(self) -> None:
        """One usage-sample tick for every monitor the lanes read."""
        for monitor in self.monitors:
            monitor.sample()

    def on_reading(self, stalled: bool) -> list["Cohort"] | None:
        """Sample each bank once; feed the lanes outside their quiet band.

        Returns the child cohorts when the lanes' visible states no longer
        agree, ``None`` while they still do.
        """
        cycle = self.core.cycle
        readings = [bank.sample(cycle) for bank in self.banks]
        rows = self.bank_rows
        if len(readings) == 1:
            hottest = readings[0].hottest_k
        else:
            hottest = np.array([reading.hottest_k for reading in readings])[rows]
        acting = np.flatnonzero(
            (hottest <= self.quiet_lo) | (hottest >= self.quiet_hi)
        )
        diverged = False
        for position in acting.tolist():
            policy = self.policies[position]
            policy.on_sensor(readings[rows[position]])
            self.quiet_lo[position], self.quiet_hi[position] = policy.quiet_band()
            if visible_key(policy, self.ports[position]) != self.key:
                diverged = True
        return self._settle() if diverged else None

    def _settle(self) -> list["Cohort"] | None:
        """Regroup after a divergence: split by visible key, or adopt it."""
        # Partitions keep first-occurrence order.
        partitions: dict[tuple, list[int]] = {}
        for position, (policy, port) in enumerate(
            zip(self.policies, self.ports, strict=True)
        ):
            partitions.setdefault(visible_key(policy, port), []).append(position)
        if len(partitions) > 1:
            return self.split(list(partitions.values()))
        self.adopt_visible()
        return None

    def adopt_visible(self) -> None:
        """Make the cohort (and its pipeline) match its lanes' visible state.

        Callable only when every lane agrees, so lane 0 speaks for the
        cohort.  Thread flags are applied through the core's own setters,
        exactly as the scalar controller would.
        """
        self.key = visible_key(self.policies[0], self.ports[0])
        self.stalled, self.slowdown, self.power_scale, flags = self.key
        core = self.core
        for tid, thread in enumerate(core.threads):
            sedated, modulus = (False, 0) if flags is None else flags[tid]
            if thread.sedated != sedated:
                core.set_sedated(tid, sedated)
            if thread.throttle_modulus != modulus:
                core.set_throttled(tid, modulus)

    def split(self, partitions: list[list[int]]) -> list["Cohort"]:
        """Divide into one child per partition of lane positions.

        The largest partition (first on ties) keeps the live pipeline,
        accountant, sensor banks, and thermal models; every other
        child forks the pipeline state at this boundary — the shared
        prefix becomes each child's own history.  All children are built
        before any visible state is applied, so every copy snapshots the
        same pre-divergence pipeline.
        """
        keeper = max(
            range(len(partitions)), key=lambda index: len(partitions[index])
        )
        children = [
            self._take(positions, reuse=index == keeper)
            for index, positions in enumerate(partitions)
        ]
        for child in children:
            child.adopt_visible()
        return children

    def _take(self, positions: list[int], reuse: bool) -> "Cohort":
        indices = np.asarray(positions, dtype=np.int64)
        child = Cohort.__new__(Cohort)
        child.lanes = self.lanes[indices]
        child.workloads = self.workloads
        # Policies and ports move by reference: a lane lives in exactly
        # one cohort, so its DTM state continues wherever the lane goes.
        child.policies = [self.policies[position] for position in positions]
        child.ports = [self.ports[position] for position in positions]
        sensors = [self.sensors[position] for position in positions]
        if reuse:
            child.core = self.core
            child.accountant = self.accountant
        else:
            # Structured fork: the in-flight uop graph, caches, and
            # counters are cloned (identity-preserving); stream cursors
            # fork in O(1); the forked accountant points at the forked
            # core.
            child.core = self.core.fork()
            child.accountant = self.accountant.fork(child.core)
            # One memo copies each sensor bank and usage monitor once, onto
            # the forked core and models: noise RNG, edge, count and EWMA
            # state continue exactly, and lanes that shared an observer
            # share its copy.
            memo = {id(self.core): child.core}
            for bank in dict.fromkeys(sensors):
                memo[id(bank.model)] = bank.model.fork()
            sensors = [copy.deepcopy(bank, memo) for bank in sensors]
            for port in child.ports:
                if port is not None:
                    port.bind(child.core, copy.deepcopy(port.monitor, memo))
        child._observe(sensors)
        child.monitors = _port_monitors(child.ports)
        child.quiet_lo = self.quiet_lo[indices]
        child.quiet_hi = self.quiet_hi[indices]
        child.key = self.key
        child.stalled = self.stalled
        child.slowdown = self.slowdown
        child.power_scale = self.power_scale
        child.next_sample = self.next_sample
        child.next_sensor = self.next_sensor
        child.last_thermal = self.last_thermal
        child.seconds_per_cycle = self.seconds_per_cycle
        return child
