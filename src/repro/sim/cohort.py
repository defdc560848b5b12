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
callbacks, with per-lane observers on structure-of-arrays banks in place
of the scalar sensor bank and usage monitor.

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
Nothing ever restarts from cycle 0, and a lane's policy object moves by
reference into its child cohort, the way its noise stream does.

Sedation lanes cannot actuate the shared core directly: their controller
acts on a :class:`LanePort` holding the lane's own thread flags, and the
cohort applies the agreed flags to the core.  Exactness is by
construction: every lane runs the scalar policy code itself, fed the
reading a scalar run would see.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from ..blocks import NUM_BLOCKS
from ..thermal import RCThermalModel
from ..thermal.sensors import SensorReading
from .soa import sample_sensors


def network_key(thermal) -> str:
    """Grouping key for lanes that share one RC thermal network.

    Everything in the thermal config feeds the network except the sensor
    fields: noise perturbs only *reported* values (per lane), and the
    sensor interval is already batch-shared.  Built by deletion, so a new
    ThermalConfig field lands in the key (= splits groups) by default.
    """
    payload = dataclasses.asdict(thermal)
    del payload["sensor_noise_k"]
    del payload["sensor_noise_seed"]
    del payload["sensor_interval"]
    return json.dumps(payload, sort_keys=True)


class NetworkGroup:
    """One shared RC network: lanes with equal thermal configs.

    All lanes of a group observe the same block powers (one pipeline per
    cohort), so they share a single packed-state trajectory — the group
    advances one state vector, not one per lane.
    """

    __slots__ = ("model", "state", "ideal", "advances")

    def __init__(self, model: RCThermalModel) -> None:
        self.model = model
        self.state = model.state_vector()
        self.ideal = model.package.ideal
        self.advances = 0

    def fork(self) -> "NetworkGroup":
        """Independent continuation for a split-off cohort.

        The model fork shares the solved eigenbasis but owns its propagator
        cache and perf counters from here on — exactly the cache/counter
        state a scalar run would hold at the split cycle.
        """
        clone = NetworkGroup.__new__(NetworkGroup)
        clone.model = self.model.fork()
        clone.state = self.state.copy()
        clone.ideal = self.ideal
        clone.advances = self.advances
        return clone


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

    def __init__(self, core, monitor, row: int) -> None:
        self.threads = [_LaneThread(thread) for thread in core.threads]
        #: per-thread ``(sedated, throttle_modulus)``, ``None`` when all clear
        self.flags: tuple | None = None
        self.bind(core, monitor, row)

    def bind(self, core, monitor, row: int) -> None:
        """Point the port at the lane's (new) cohort core and monitor row."""
        for view, thread in zip(self.threads, core.threads, strict=True):
            view.core_thread = thread
        self.monitor = monitor
        self.row = row

    def set_sedated(self, tid: int, sedated: bool) -> None:
        self.threads[tid].sedated = sedated
        self._refresh_flags()

    def set_throttled(self, tid: int, modulus: int) -> None:
        self.threads[tid].throttle_modulus = modulus
        self._refresh_flags()

    def weighted_average(self, tid: int, block: int) -> float:
        return float(self.monitor.bank.values[self.row, tid, block])

    def _refresh_flags(self) -> None:
        flags = tuple(
            (view.sedated, view.throttle_modulus) for view in self.threads
        )
        self.flags = flags if any(s or m for s, m in flags) else None


def visible_key(policy, port: LanePort | None) -> tuple:
    """The pipeline-visible state of one lane: what a cohort's lanes share."""
    return (
        policy.global_stall,
        policy.slowdown,
        policy.power_scale,
        None if port is None else port.flags,
    )


def _group_layout(groups: dict, group_keys: list[str]) -> tuple[list, list[int]]:
    """Positional view of the network groups: (group list, lane → ordinal).

    ``groups`` preserves first-occurrence order of ``group_keys``, so the
    ordinal of a lane's group is stable across splits — the sensor gather
    (:func:`repro.sim.soa.sample_sensors`) indexes the stacked group states
    with the lane → ordinal array instead of a per-lane dict lookup.
    """
    ordinals = {key: position for position, key in enumerate(groups)}
    return list(groups.values()), [ordinals[key] for key in group_keys]


class Cohort:
    """One lock-step group: lanes with identical pipeline-visible history.

    Owns one pipeline (+ power accountant), one usage-monitor bank, one
    crossing detector, the per-lane sensor-noise RNG bank, one DTM policy
    (and, for sedation lanes, one :class:`LanePort`) per lane with the
    lanes' quiet bands, and one thermal network group per distinct thermal
    config among its lanes.  ``lanes`` maps row position → original spec
    index; ``workloads`` names the trajectory every lane of this cohort
    shares (heterogeneous batches run one cohort tree per trajectory).
    ``temps`` is the ``(width, blocks)`` buffer each reading fills.
    """

    __slots__ = (
        "lanes",
        "workloads",
        "core",
        "accountant",
        "monitor",
        "detector",
        "rng",
        "policies",
        "ports",
        "quiet_lo",
        "quiet_hi",
        "key",
        "groups",
        "group_keys",
        "group_list",
        "group_rows",
        "stalled",
        "slowdown",
        "power_scale",
        "next_sample",
        "next_sensor",
        "last_thermal",
        "seconds_per_cycle",
        "temps",
    )

    def __init__(
        self,
        lanes,
        workloads,
        core,
        accountant,
        monitor,
        detector,
        rng,
        policies,
        ports,
        groups,
        group_keys,
        next_sample: int,
        next_sensor: int,
        seconds_per_cycle: float,
    ) -> None:
        self.lanes = np.asarray(lanes, dtype=np.int64)
        self.workloads = tuple(workloads)
        self.core = core
        self.accountant = accountant
        self.monitor = monitor
        self.detector = detector
        self.rng = rng
        self.policies = list(policies)
        self.ports = list(ports)
        bands = [policy.quiet_band() for policy in self.policies]
        self.quiet_lo = np.array([lo for lo, _ in bands])
        self.quiet_hi = np.array([hi for _, hi in bands])
        self.groups = dict(groups)
        self.group_keys = list(group_keys)
        self.group_list, rows = _group_layout(self.groups, self.group_keys)
        self.group_rows = np.array(rows, dtype=np.int64)
        self.next_sample = next_sample
        self.next_sensor = next_sensor
        self.last_thermal = core.cycle
        self.seconds_per_cycle = seconds_per_cycle
        self.temps = np.empty((len(self.lanes), NUM_BLOCKS))
        self.adopt_visible()

    def advance_thermal(self, powers: list[float]) -> None:
        """Advance every network group over the cycles since the last advance."""
        cycle = self.core.cycle
        cycles = cycle - self.last_thermal
        if cycles <= 0:
            return
        dt = cycles * self.seconds_per_cycle
        for group in self.group_list:
            if group.ideal:
                continue
            state_prop, input_prop = group.model.propagator(dt)
            source = group.model.source_vector(powers)
            # The exact scalar advance expression, applied to the group's
            # packed state: same operands, same bits.
            group.state = state_prop @ group.state + input_prop @ source
            group.advances += 1
        self.last_thermal = cycle

    def on_sample(self) -> None:
        """One usage-sample tick; sedated threads keep their EWMAs frozen."""
        threads = self.core.threads
        frozen = None
        if any(thread.sedated for thread in threads):
            frozen = np.array([thread.sedated for thread in threads], dtype=bool)
        self.monitor.sample(frozen)

    def on_reading(self, stalled: bool) -> list["Cohort"] | None:
        """Read every lane's sensors and feed the lanes outside their quiet band.

        Returns the child cohorts when the lanes' visible states no longer
        agree, ``None`` while they still do.
        """
        temps = self.temps
        sample_sensors(self, temps)
        hottest = temps.max(axis=1)
        acting = np.flatnonzero(
            (hottest <= self.quiet_lo) | (hottest >= self.quiet_hi)
        )
        diverged = False
        cycle = self.core.cycle
        for position in acting.tolist():
            policy = self.policies[position]
            policy.on_sensor(SensorReading(cycle, temps[position]))
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
        accountant, thermal models, and propagator caches; every other
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
        child.monitor = self.monitor.take(indices, child.core)
        child.detector = self.detector.take(indices)
        child.rng = self.rng.take(indices)
        # Policies and ports move by reference: a lane lives in exactly
        # one cohort, so its DTM state continues wherever the lane goes.
        child.policies = [self.policies[position] for position in positions]
        child.ports = [self.ports[position] for position in positions]
        for row, port in enumerate(child.ports):
            if port is not None:
                port.bind(child.core, child.monitor, row)
        child.quiet_lo = self.quiet_lo[indices]
        child.quiet_hi = self.quiet_hi[indices]
        child.key = self.key
        child.group_keys = [self.group_keys[position] for position in positions]
        child.groups = {}
        for key in dict.fromkeys(child.group_keys):
            group = self.groups[key]
            child.groups[key] = group if reuse else group.fork()
        child.group_list, rows = _group_layout(child.groups, child.group_keys)
        child.group_rows = np.array(rows, dtype=np.int64)
        child.stalled = self.stalled
        child.slowdown = self.slowdown
        child.power_scale = self.power_scale
        child.next_sample = self.next_sample
        child.next_sensor = self.next_sensor
        child.last_thermal = self.last_thermal
        child.seconds_per_cycle = self.seconds_per_cycle
        child.temps = np.empty((len(positions), NUM_BLOCKS))
        return child
