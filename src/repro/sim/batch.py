"""Lock-step batch execution: many heterogeneous runs, few pipelines.

Every figure in the paper is a *sweep* — dozens of runs varying thermal or
DTM knobs, workload pairs, and seeds.  The pipeline is a pure function of
(workloads, machine, seed, thermal time base), so lanes sharing those
inputs execute *the same cycle-by-cycle pipeline trajectory* no matter how
their thermal/DTM configs differ.  This engine exploits that: lanes are
grouped by :func:`trajectory_key` (workloads + seed; machine and time base
are already fingerprint-shared), each trajectory group runs **one** SMT
core, and everything that can differ per lane — thermal network state,
sensor crossing counters, peak temperatures, EWMA banks and per-lane RNG
banks — is carried as structure-of-arrays NumPy state advanced in lock
step at the shared sample/sensor boundaries, and every lane runs its own
scalar DTM policy object (:mod:`repro.sim.cohort`).  Heterogeneous lanes
(mixed workload pairs × mixed seeds) therefore batch in a single kernel
call: one cohort tree per trajectory, one shared worklist, and one
generated uop stream per distinct ``(workload, thread, seed)`` triple
across all of them
(:mod:`repro.sim.soa`).

The contract is the fast path's: results **byte-identical** to the scalar
:class:`~repro.sim.simulator.Simulator` (same RunResult JSON, same cache
keys; telemetry/trace runs are not batchable in the first place, so their
episode derivation is untouched).  Exactness is by construction:

* lanes share one pipeline, so every counter-derived statistic (committed,
  fetched, access counts, idle fast-forward) is literally the scalar value;
* lanes with identical RC-relevant thermal configs share one *network
  group* whose packed state advances with the very expression
  ``E(dt) @ state + F(dt) @ source`` the scalar model applies — same
  cached propagators, same float operations, same bits;
* EWMA updates and threshold-crossing detection are elementwise float
  comparisons with the scalar expressions, which are IEEE-identical
  whether applied to one value or an array;
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
:func:`batch_fingerprint`) → process pool / serial scalar fallback.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time

import numpy as np

from ..config import SimulationConfig
from ..core.usage import BatchUsageMonitor
from ..dtm import build_policy
from ..errors import SimulationError
from ..power import EnergyModel, PowerAccountant
from ..thermal import RCThermalModel
from ..thermal.sensors import BatchCrossingDetector
from .cohort import Cohort, LanePort, NetworkGroup, network_key
from .soa import LaneRngBank, StreamBank, release_cursors
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

    Not batchable at all: campaign specs (state persists across quanta),
    trace/telemetry runs (they observe per-cycle state the batch engine
    does not replay), and any spec with a fault plan (runtime injectors
    perturb the pipeline; worker chaos hooks must fire in the scalar
    attempt path).
    """
    if getattr(spec, "quanta", None) is not None:
        return None
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
    and seeds may differ (heterogeneous lanes).  Returns input index →
    RunResult, byte-identical to the scalar simulator, for **every** lane:
    acting lanes are carried by cohort splitting.

    ``metrics``, when given, receives batch-shape diagnostics: ``lanes``
    (input width), ``trajectories`` (distinct workload/seed groups, i.e.
    root cohorts), ``cohorts`` (lock-step groups at completion), ``splits``
    (divergence events where a cohort partitioned), ``lane_cohorts``, and
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
    # Wall time feeds PerfCounters only (compare=False diagnostics).
    wall_start = time.perf_counter()  # repro: noqa(RPR001) perf diagnostics only

    lanes = len(spec_list)
    base = spec_list[0]
    config0 = base.config
    quantum = (
        config0.quantum_cycles
        if base.quantum_cycles is None
        else base.quantum_cycles
    )
    if quantum <= 0:
        raise SimulationError("quantum must be positive")

    # -- trajectory groups: one root cohort per distinct workloads/seed ----
    by_trajectory: dict[str, list[int]] = {}
    for index, spec in enumerate(spec_list):
        by_trajectory.setdefault(trajectory_key(spec), []).append(index)

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
        metrics["lanes"] = lanes
        metrics["trajectories"] = len(by_trajectory)
        metrics["cohorts"] = len(finished)
        metrics["splits"] = splits
        metrics["stream_rows"] = streams.rows_generated
        metrics["streams"] = streams.stream_count
        # Which cohort each lane ended the quantum in, for lane-tagged
        # campaign telemetry (cohort ordinals follow completion order).
        lane_cohorts = [0] * lanes
        for ordinal, cohort in enumerate(finished):
            for lane in cohort.lanes:
                lane_cohorts[int(lane)] = ordinal
        metrics["lane_cohorts"] = lane_cohorts

    # Wall time is amortized evenly over the lanes: the honest per-run cost
    # of the batch (PerfCounters are compare=False diagnostics; every
    # simulated counter below is per-run exact, not a batch total).
    results: dict[int, RunResult] = {}
    wall_share = wall_seconds / lanes
    for cohort in finished:
        core = cohort.core
        detector = cohort.detector
        for position, lane in enumerate(cohort.lanes.tolist()):
            policy = cohort.policies[position]
            group = cohort.groups[cohort.group_keys[position]]
            results[lane] = build_result(
                cohort.workloads,
                policy.name,
                core.cycle,
                tally(
                    core,
                    policy,
                    detector.total_emergencies[position],
                    detector.emergencies_per_block[position],
                    group.advances,
                    group.model.perf_propagator_builds,
                ),
                None,
                detector.peak_k[position],
                wall_share,
            )
    return results


def _build_root(
    spec_list: list,
    members: list[int],
    streams: StreamBank,
    energy: EnergyModel,
    sample_interval: int,
    sensor_interval: int,
) -> Cohort:
    """Root cohort for one trajectory group (lanes sharing workloads+seed).

    Builds the group's shared pipeline from the stream bank plus every
    per-lane SoA bank, exactly as the homogeneous engine did for its single
    root — the heterogeneous kernel is N of these on one worklist, sharing
    generated streams wherever trajectories overlap.
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
    monitor = BatchUsageMonitor(
        core,
        [spec_list[index].config.sedation.ewma_shift for index in members],
    )

    # Per-network-group thermal state (lanes with equal thermal configs
    # share one packed trajectory within the cohort).
    groups: dict[str, NetworkGroup] = {}
    group_keys: list[str] = []
    for index in members:
        key = network_key(spec_list[index].config.thermal)
        if key not in groups:
            groups[key] = NetworkGroup(
                RCThermalModel(spec_list[index].config.thermal, None, energy)
            )
        group_keys.append(key)

    rng = LaneRngBank([spec_list[index].config.thermal for index in members])
    detector = BatchCrossingDetector(
        np.array(
            [spec_list[index].config.thermal.emergency_k for index in members]
        ),
        # The scalar bank seeds its peak with the warm-start temperatures.
        np.array(
            [
                float(np.max(groups[key].model.temperatures()))
                for key in group_keys
            ]
        ),
    )
    # One scalar policy per lane, built exactly as the Simulator builds it;
    # sedation lanes actuate through their own port.
    policies = []
    ports = []
    for row, (index, key) in enumerate(zip(members, group_keys, strict=True)):
        config = spec_list[index].config
        port = (
            LanePort(core, monitor, row)
            if config.dtm_policy == "sedation"
            else None
        )
        policies.append(build_policy(config, port, port, groups[key].model))
        ports.append(port)
    return Cohort(
        np.asarray(members, dtype=np.int64),
        workload_names,
        core,
        accountant,
        monitor,
        detector,
        rng,
        policies,
        ports,
        groups,
        group_keys,
        next_sample=sample_interval,
        next_sensor=sensor_interval,
        seconds_per_cycle=config0.thermal.seconds_per_cycle,
    )
