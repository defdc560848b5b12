"""Lock-step batch execution: many heterogeneous runs, few pipelines.

Every figure in the paper is a *sweep* — dozens of runs varying thermal or
DTM knobs, workload pairs, and seeds.  The pipeline is a pure function of
(workloads, machine, seed, thermal time base), so lanes sharing those
inputs execute *the same cycle-by-cycle pipeline trajectory* no matter how
their thermal/DTM configs differ.  This engine exploits that: lanes are
grouped by :func:`trajectory_key` (workloads + seed; machine and time base
are already fingerprint-shared), each trajectory group runs **one** SMT
core, and every lane runs its own scalar DTM policy object
(:mod:`repro.sim.cohort`).  What lanes observe is scalar too, one observer
per distinct input: lanes with equal thermal configs read one
:class:`~repro.thermal.sensors.SensorBank` over one RC model, and sedation
lanes with equal ``ewma_shift`` one usage monitor.  Heterogeneous lanes
(mixed workload pairs × mixed seeds) therefore batch in a single kernel
call: one cohort tree per trajectory, one shared worklist, and one
generated uop stream per distinct ``(workload, thread, seed)`` triple
across all of them (:class:`~repro.pipeline.banks.StreamBank`).

The contract is the fast path's: results **byte-identical** to the scalar
:class:`~repro.sim.simulator.Simulator` (same RunResult JSON, same cache
keys; telemetry/trace runs are not batchable in the first place, so their
episode derivation is untouched).  Exactness is by construction:

* lanes share one pipeline, so every counter-derived statistic (committed,
  fetched, access counts, idle fast-forward) is literally the scalar value;
* lanes with equal thermal configs see the same block powers, so one
  scalar :class:`~repro.thermal.sensors.SensorBank` (its own
  :class:`~repro.thermal.RCThermalModel`, noise stream, edge state,
  emergency counts and peak) is every such lane's sensor bank — the very
  object a scalar run builds, advanced and sampled at the same cycles;
* lanes with equal ``ewma_shift`` see the same access counts, sampling
  grid and sedation history, so one scalar
  :class:`~repro.core.usage.UsageMonitor` holds every such lane's EWMAs;
* every DTM transition is the scalar policy's own code, called with the
  lane's reading whenever that reading lies outside the policy's quiet
  band (inside it, the call would change nothing).

**Divergence.**  When a lane's policy takes a *pipeline-visible* action —
a stop-and-go/safety-net stall, a DVFS/TTDFS/fetch-gating slowdown or
power-scale step, a sedation or release changing the per-thread actuation
flags (see :mod:`repro.sim.cohort` for the contract) — lanes whose visible
state still agrees can keep sharing a pipeline, and lanes that disagree no
longer can.  The batch therefore runs as a worklist of **cohorts**, each
advanced by the scalar simulator's own loop
(:func:`~repro.sim.simulator.run_loop`, with the cohort as its unit): at
every sensor boundary each cohort feeds its lanes' policies; if the
resulting visible tuples differ, the cohort splits — the largest partition
keeps the live pipeline, the others resume from a snapshot of the shared
state at the boundary — and every child continues in lock step.  Nothing is
ever re-run from cycle 0: an attack sweep whose lanes engage at five
different thresholds costs roughly six cohort segments instead of ``B``
scalar re-runs, and lanes with *identical* action histories (e.g. the
same engage/release cycles) never separate at all.

:func:`~repro.sim.parallel.run_many` uses this as its middle execution
tier: cache hit → lock-step batch groups (grouped by
:func:`batch_fingerprint`) → scalar specs, with or without a pool.
Because trajectory groups never interact, the runner can **shard** a group
by trajectory (:func:`_shard_lanes`) and run each shard as an ordinary
call over fewer trajectories, in this process or a pool worker; its lanes'
results are the same bytes.  This module is the kernel only: where a
shard runs, and what happens when it fails, is
:func:`~repro.sim.parallel.dispatch`'s business.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time

import numpy as np

from ..config import SimulationConfig, ThermalConfig
from ..core.usage import UsageMonitor
from ..dtm import build_policy
from ..errors import SimulationError
from ..pipeline.banks import StreamBank, release_cursors
from ..power import EnergyModel, PowerAccountant
from ..thermal import RCThermalModel, SensorBank
from .cohort import Cohort, LanePort
from .simulator import build_core, build_result, run_loop, tally
from .stats import RunResult

#: Batch-compatibility key schema.  Bump when the set of lane-shared inputs
#: changes (a new config field that influences the shared pipeline must be
#: added to the fingerprint payload, and vice versa).  Schema 2 dropped
#: ``workloads`` and ``seed`` from the payload: they became per-trajectory
#: inputs (:func:`trajectory_key`) instead of batch-shared ones.
BATCH_SCHEMA = 2


def batch_fingerprint(spec) -> str | None:
    """Batch-compatibility key for one spec; ``None`` = not batchable.

    Specs with equal keys may share one lock-step kernel call: everything
    that shapes the event grid or is global to the kernel must be equal
    across lanes (machine, quantum, sample/sensor intervals, and the
    thermal time base, which sizes malicious-variant bursts via
    ``cycles_from_seconds``).  Workloads and seed — the pipeline-trajectory
    inputs — may differ per lane since schema 2: the kernel runs one cohort
    tree per :func:`trajectory_key`.  Everything else — DTM policy,
    thresholds, thermal network constants, sensor noise — may vary per lane
    and is handled by the engine's per-lane state.

    Not batchable at all: trace/telemetry runs (they observe per-cycle
    state the batch engine does not replay), and any spec with a fault
    plan (runtime injectors perturb the pipeline; worker chaos hooks must
    fire in the scalar attempt path).
    """
    if getattr(spec, "trace", False) or getattr(spec, "telemetry", False):
        return None
    config = getattr(spec, "config", None)
    if not isinstance(config, SimulationConfig):
        return None
    if config.faults is not None:
        return None
    quantum = spec.quantum_cycles
    if quantum is None:
        quantum = config.quantum_cycles
    thermal = config.thermal
    payload = {
        "schema": BATCH_SCHEMA,
        "machine": dataclasses.asdict(config.machine),
        "quantum": quantum,
        "sample_interval": config.sedation.sample_interval,
        "sensor_interval": thermal.sensor_interval,
        "frequency_hz": thermal.frequency_hz,
        "time_scale": thermal.time_scale,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def trajectory_key(spec) -> str:
    """Pipeline-trajectory key: the per-group inputs driving a shared core.

    Within one batch-fingerprint group, lanes with equal trajectory keys
    would drive a pipeline identically (``build_pipeline``'s purity
    guarantee: of the config, only machine, seed, and the thermal time
    base influence the uop streams — and the fingerprint already pins the
    other two).  Equal keys → lanes share one pipeline; distinct keys →
    sibling cohort trees in the same kernel call.
    """
    return json.dumps(
        {"workloads": list(spec.workloads), "seed": spec.config.seed},
        sort_keys=True,
        separators=(",", ":"),
    )


def simulate_lockstep(specs, metrics: dict | None = None) -> dict[int, RunResult]:
    """Advance every spec in lock step, splitting cohorts as policies act.

    ``specs`` must all share one :func:`batch_fingerprint`; their workloads
    and seeds may differ (heterogeneous lanes).  Every trajectory group
    runs on one worklist in this process.  Returns input index →
    RunResult, byte-identical to the scalar simulator, for **every** lane:
    acting lanes are carried by cohort splitting.

    ``metrics``, when given, receives batch-shape diagnostics: ``lanes``
    (input width), ``trajectories`` (distinct workload/seed groups, i.e.
    root cohorts), ``cohorts`` (lock-step groups at completion), ``splits``
    (divergence events where a cohort partitioned), ``lane_cohorts`` (each
    lane's cohort ordinal, in completion order), ``streams`` and
    ``stream_rows`` (uops generated across all shared streams).
    """
    spec_list = list(specs)
    if not spec_list:
        return {}
    first_key = batch_fingerprint(spec_list[0])
    if first_key is None or any(
        batch_fingerprint(spec) != first_key for spec in spec_list
    ):
        raise SimulationError(
            "simulate_lockstep needs specs sharing one batch fingerprint"
        )
    quantum = _quantum(spec_list[0])
    if quantum <= 0:
        raise SimulationError("quantum must be positive")
    # Wall time feeds PerfCounters only (compare=False diagnostics).
    wall_start = time.perf_counter()  # repro: noqa(RPR001) perf diagnostics only

    lanes = len(spec_list)
    config0 = spec_list[0].config

    # -- trajectory groups: one root cohort per distinct workloads/seed ----
    by_trajectory = _trajectory_groups(spec_list)

    energy = EnergyModel.default()
    streams = StreamBank(config0.machine, config0.thermal)
    sample_interval = config0.sedation.sample_interval
    sensor_interval = config0.thermal.sensor_interval

    # -- the worklist: advance cohorts, splitting at visible divergence ----
    splits = 0
    finished: list[Cohort] = []
    worklist: list[Cohort] = [
        _build_root(
            spec_list, members, streams, energy,
            sample_interval, sensor_interval,
        )
        for members in by_trajectory.values()
    ]
    while worklist:
        cohort = worklist.pop()
        children = run_loop(cohort, quantum, sample_interval, sensor_interval)
        if children is None:
            finished.append(cohort)
            # A finished pipeline stops reading its streams; trimming then
            # reclaims every row behind the slowest still-live cursor.
            release_cursors(cohort.core)
            streams.trim()
        else:
            splits += 1
            worklist.extend(children)

    wall_seconds = time.perf_counter() - wall_start  # repro: noqa(RPR001) perf diagnostics only
    if metrics is not None:
        # Which cohort each lane ended the quantum in, for lane-tagged
        # campaign telemetry (cohort ordinals follow completion order).
        lane_cohorts = [0] * lanes
        for ordinal, cohort in enumerate(finished):
            for lane in cohort.lanes:
                lane_cohorts[int(lane)] = ordinal
        metrics.update(
            lanes=lanes,
            trajectories=len(by_trajectory),
            cohorts=len(finished),
            splits=splits,
            stream_rows=streams.rows_generated,
            streams=streams.stream_count,
            lane_cohorts=lane_cohorts,
        )

    # Wall time is amortized evenly over the lanes: the honest per-run cost
    # of the batch (PerfCounters are compare=False diagnostics; every
    # simulated counter below is per-run exact, not a batch total).
    results: dict[int, RunResult] = {}
    wall_share = wall_seconds / lanes
    for cohort in finished:
        core = cohort.core
        for lane, policy, bank in zip(
            cohort.lanes.tolist(), cohort.policies, cohort.sensors, strict=True
        ):
            results[lane] = build_result(
                cohort.workloads,
                policy.name,
                core.cycle,
                tally(core, policy, bank),
                None,
                bank.peak_k,
                wall_share,
            )
    return results


def _quantum(spec) -> int:
    if spec.quantum_cycles is None:
        return spec.config.quantum_cycles
    return spec.quantum_cycles


def _trajectory_groups(spec_list: list) -> dict[str, list[int]]:
    """Input indices per :func:`trajectory_key`, in first-seen order."""
    by_trajectory: dict[str, list[int]] = {}
    for index, spec in enumerate(spec_list):
        by_trajectory.setdefault(trajectory_key(spec), []).append(index)
    return by_trajectory


def _shard_lanes(
    by_trajectory: dict[str, list[int]], count: int
) -> list[list[int]]:
    """Split trajectory groups into at most ``count`` balanced shards.

    Greedy: the group with the most lanes first, each onto the shard
    carrying the fewest trajectories (then the fewest lanes).  A
    trajectory's cost is one pipeline plus its lanes' observers, so both
    counts are visible before anything runs; which workloads a group
    holds is not used.  Each shard lists its input indices in order.
    """
    count = max(1, min(count, len(by_trajectory)))
    shards: list[list[int]] = [[] for _ in range(count)]
    loads = [(0, 0)] * count
    for members in sorted(by_trajectory.values(), key=len, reverse=True):
        target = min(range(count), key=loads.__getitem__)
        shards[target].extend(members)
        trajectories, lanes = loads[target]
        loads[target] = (trajectories + 1, lanes + len(members))
    return [sorted(lanes) for lanes in shards]


def _build_root(
    spec_list: list,
    members: list[int],
    streams: StreamBank,
    energy: EnergyModel,
    sample_interval: int,
    sensor_interval: int,
) -> Cohort:
    """Root cohort for one trajectory group (lanes sharing workloads+seed).

    Builds the group's shared pipeline from the stream bank plus the
    lanes' scalar observers and policies — the heterogeneous kernel is N of
    these on one worklist, sharing generated streams wherever trajectories
    overlap.
    """
    base = spec_list[members[0]]
    config0 = base.config
    workload_names = tuple(base.workloads)
    # The scalar pipeline, fed by shared stream cursors: sibling trajectory
    # groups and split-off cohorts share one generation pass per stream.
    core = build_core(
        config0.machine,
        workload_names,
        lambda tid, name: streams.cursor(name, tid, config0.seed),
    )
    accountant = PowerAccountant(core, energy, config0.thermal.frequency_hz)

    # One sensor bank per distinct thermal config, built as a Simulator
    # builds its own (ThermalConfig is frozen, so it is the key itself).
    banks: dict[ThermalConfig, SensorBank] = {}
    # One scalar policy per lane, built exactly as the Simulator builds it;
    # sedation lanes actuate through their own port, which reads the usage
    # monitor for the lane's EWMA shift (no other policy reads an EWMA).
    monitors: dict[int, UsageMonitor] = {}
    sensors = []
    policies = []
    ports = []
    for index in members:
        config = spec_list[index].config
        thermal = config.thermal
        bank = banks.get(thermal)
        if bank is None:
            bank = banks[thermal] = SensorBank.for_model(
                RCThermalModel(thermal, None, energy)
            )
        port = None
        if config.dtm_policy == "sedation":
            shift = config.sedation.ewma_shift
            if shift not in monitors:
                monitors[shift] = UsageMonitor(core, config.sedation)
            port = LanePort(core, monitors[shift])
        sensors.append(bank)
        policies.append(build_policy(config, port, port, bank.model))
        ports.append(port)
    return Cohort(
        np.asarray(members, dtype=np.int64),
        workload_names,
        core,
        accountant,
        sensors,
        policies,
        ports,
        next_sample=sample_interval,
        next_sensor=sensor_interval,
        seconds_per_cycle=config0.thermal.seconds_per_cycle,
    )
