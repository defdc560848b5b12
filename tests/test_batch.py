"""Lock-step batch engine: the byte-identity equivalence gate.

The contract of :mod:`repro.sim.batch` is absolute: any lane it completes
must be **byte-identical** to the scalar simulator's result — same RunResult
JSON, same cache keys — and any lane it cannot guarantee that for must be
deferred to the scalar path.  These tests enforce the contract with
byte-compares of canonical JSON (only ``perf.wall_seconds`` is zeroed; wall
time is the single nondeterministic field, and ``perf`` is compare=False
diagnostics), across a grid of workloads × DTM policies × thermal/sedation
variants, plus unit-level checks of the cohorts' per-lane state.
"""

from __future__ import annotations

import dataclasses
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocks import INT_RF
from repro.config import scaled_config
from repro.errors import SimulationError
from repro.faults import FaultPlan, SensorFaultPlan
from repro.pipeline.banks import StreamBank
from repro.power import EnergyModel
from repro.sim import RunSpec, run_many
from repro.sim.batch import (
    _build_root,
    batch_fingerprint,
    simulate_lockstep,
    trajectory_key,
)
from repro.sim.parallel import spec_fingerprint
from repro.sim.results import result_to_dict
from repro.sim.simulator import Simulator, run_loop

POLICIES = ("ideal", "stop_and_go", "dvfs", "ttdfs", "fetch_gating", "sedation")


def tiny_config(policy: str = "ideal", **kwargs):
    kwargs.setdefault("time_scale", 8_000.0)
    kwargs.setdefault("quantum_cycles", 15_000)
    return scaled_config(**kwargs).with_policy(policy)


def canonical(result) -> str:
    """RunResult as canonical JSON with the wall-clock field zeroed."""
    payload = result_to_dict(result)
    payload["perf"]["wall_seconds"] = 0.0
    return json.dumps(payload, sort_keys=True)


def assert_equivalent(specs) -> None:
    """The gate: batch-tier results byte-equal the scalar path's."""
    scalar = run_many(specs, jobs=1, cache_dir=None, batch=False)
    batched = run_many(specs, jobs=1, cache_dir=None, batch=True)
    for spec, fast, slow in zip(specs, batched, scalar, strict=True):
        assert canonical(fast) == canonical(slow), spec


class TestFingerprint:
    def test_policy_and_thermal_variants_share_a_fingerprint(self):
        base = tiny_config()
        specs = [
            RunSpec(("gcc", "swim"), base.with_policy(p)) for p in POLICIES
        ]
        specs.append(RunSpec(("gcc", "swim"), base.with_ideal_sink()))
        keys = {batch_fingerprint(spec) for spec in specs}
        assert len(keys) == 1 and None not in keys

    def test_grid_inputs_split_the_fingerprint(self):
        # Since schema 2 only the kernel-global inputs (event grid, machine,
        # time base) split the fingerprint; workloads and seed became
        # per-trajectory inputs.
        base = RunSpec(("gcc", "swim"), tiny_config())
        assert batch_fingerprint(base) != batch_fingerprint(
            RunSpec(("gcc", "swim"), tiny_config(), quantum_cycles=7_000)
        )
        assert batch_fingerprint(base) != batch_fingerprint(
            RunSpec(("gcc", "swim"), tiny_config(time_scale=4_000.0))
        )

    def test_workloads_and_seed_share_a_fingerprint_but_not_a_trajectory(self):
        base = RunSpec(("gcc", "swim"), tiny_config())
        mixed = RunSpec(("gcc", "mcf"), tiny_config())
        reseeded = RunSpec(("gcc", "swim"), tiny_config(seed=99))
        assert batch_fingerprint(base) == batch_fingerprint(mixed)
        assert batch_fingerprint(base) == batch_fingerprint(reseeded)
        keys = {trajectory_key(s) for s in (base, mixed, reseeded)}
        assert len(keys) == 3

    def test_unbatchable_specs_fingerprint_to_none(self):
        config = tiny_config()
        assert batch_fingerprint(RunSpec(("gcc", "swim"), config, trace=True)) is None
        assert (
            batch_fingerprint(RunSpec(("gcc", "swim"), config, telemetry=True))
            is None
        )
        faulty = config.with_faults(
            FaultPlan(sensor=SensorFaultPlan(mode="stuck_at", blocks=(INT_RF,)))
        )
        assert batch_fingerprint(RunSpec(("gcc", "swim"), faulty)) is None


class TestEquivalenceGate:
    """Scalar-vs-batch byte-identity across the paper's run shapes."""

    @pytest.mark.parametrize("workloads", [("gcc", "swim"), ("gzip", "mcf")])
    def test_quiet_pair_all_policies(self, workloads):
        base = tiny_config()
        assert_equivalent(
            [RunSpec(workloads, base.with_policy(p)) for p in POLICIES]
        )

    @pytest.mark.parametrize("seed", [3, 17])
    def test_attack_pair_all_policies(self, seed):
        # DTM policies fire under attack: acting lanes split into cohorts
        # and the end-to-end results still byte-match the scalar path.
        base = tiny_config(seed=seed)
        assert_equivalent(
            [
                RunSpec(("gcc", "variant1"), base.with_policy(p))
                for p in POLICIES
            ]
        )

    def test_thermal_and_sedation_variant_lanes(self):
        base = tiny_config()
        noisy = dataclasses.replace(
            base.thermal, sensor_noise_k=0.25, sensor_noise_seed=42
        )
        specs = [
            RunSpec(("gcc", "swim"), base.with_policy("stop_and_go")),
            RunSpec(("gcc", "swim"), base.with_ideal_sink()),
            RunSpec(
                ("gcc", "swim"),
                dataclasses.replace(
                    base.with_policy("stop_and_go"), thermal=noisy
                ),
            ),
            RunSpec(
                ("gcc", "swim"),
                base.with_policy("stop_and_go").with_convection_resistance(
                    base.thermal.convection_resistance_k_per_w * 1.25
                ),
            ),
            RunSpec(("gcc", "swim"), base.with_policy("sedation")),
            RunSpec(
                ("gcc", "swim"),
                base.with_policy("sedation").with_thresholds(
                    base.sedation.upper_threshold_k + 0.5,
                    base.sedation.lower_threshold_k,
                ),
            ),
            RunSpec(
                ("gcc", "swim"),
                dataclasses.replace(
                    base.with_policy("sedation"),
                    sedation=dataclasses.replace(base.sedation, ewma_shift=3),
                ),
            ),
        ]
        assert_equivalent(specs)

    def test_solo_and_all_idle_lanes(self):
        # "idle" halts at cycle ~0, so these exercise the shared core's
        # idle fast-forward inside the lock-step loop.
        base = tiny_config()
        assert_equivalent(
            [
                RunSpec(("mcf", "idle"), base.with_policy(p))
                for p in ("ideal", "stop_and_go", "sedation")
            ]
            + [RunSpec(("idle", "idle"), base)]
        )

    def test_fault_plan_lane_stays_scalar_and_equivalent(self):
        base = tiny_config("stop_and_go")
        faulty = base.with_faults(
            FaultPlan(sensor=SensorFaultPlan(mode="stuck_at", blocks=(INT_RF,)))
        )
        assert_equivalent(
            [
                RunSpec(("gcc", "swim"), base),
                RunSpec(("gcc", "swim"), faulty),
                RunSpec(("gcc", "swim"), base.with_policy("ideal")),
            ]
        )

    def test_immediate_divergence_lane_stays_batched(self):
        # Upper threshold below the warm-start temperature: the sedation
        # lane acts at the very first sensor boundary.  It must split off
        # into its own cohort (not re-run from cycle 0) and still come back
        # byte-identical to the scalar path.
        base = tiny_config()
        hair_trigger = base.with_policy("sedation").with_thresholds(350.0, 349.0)
        specs = [
            RunSpec(("gcc", "variant2"), base),
            RunSpec(("gcc", "variant2"), hair_trigger),
        ]
        metrics: dict = {}
        lane_results = simulate_lockstep(specs, metrics)
        assert sorted(lane_results) == [0, 1]
        assert metrics["splits"] >= 1 and metrics["cohorts"] == 2
        assert lane_results[1].sedations > 0
        assert_equivalent(specs)

    def test_single_lane_group(self):
        spec = RunSpec(("gcc", "swim"), tiny_config())
        lane_results = simulate_lockstep([spec])
        scalar = run_many([spec], jobs=1, cache_dir=None, batch=False)[0]
        assert canonical(lane_results[0]) == canonical(scalar)

    def test_mixed_fingerprints_rejected(self):
        # Workload mixes share a fingerprint since schema 2; the event grid
        # (quantum here) still must not mix within one kernel call.
        with pytest.raises(SimulationError):
            simulate_lockstep(
                [
                    RunSpec(("gcc", "swim"), tiny_config()),
                    RunSpec(("gcc", "swim"), tiny_config(), quantum_cycles=7_000),
                ]
            )
        with pytest.raises(SimulationError):
            simulate_lockstep(
                [RunSpec(("gcc", "swim"), tiny_config(), trace=True)]
            )

    def test_duplicate_specs_still_share_one_result(self):
        spec = RunSpec(("gcc", "swim"), tiny_config())
        other = RunSpec(("gcc", "swim"), tiny_config("stop_and_go"))
        results = run_many([spec, other, spec], jobs=1, cache_dir=None, batch=True)
        assert results[0] is results[2]


class TestCohortSplitting:
    """Acting lanes stay batched: split at divergence, byte-identical."""

    @pytest.mark.parametrize("attacker", ["variant2", "variant3"])
    def test_two_phase_attack_all_policies(self, attacker):
        # The moderate two-phase variants heat more slowly than variant1,
        # so policies act mid-quantum at staggered boundaries.
        base = tiny_config()
        assert_equivalent(
            [
                RunSpec(("gcc", attacker), base.with_policy(p))
                for p in POLICIES
            ]
        )

    def test_sedation_threshold_sweep_acting_lanes(self):
        # A hair-trigger threshold ladder: every step sedates at a
        # different sensor boundary, so one batch splits repeatedly.
        base = tiny_config()
        specs = [
            RunSpec(
                ("gcc", "variant2"),
                base.with_policy("sedation").with_thresholds(
                    352.0 - 0.5 * step, 351.0 - 0.5 * step
                ),
            )
            for step in range(4)
        ]
        specs.append(RunSpec(("gcc", "variant2"), base))
        assert_equivalent(specs)

    def test_emergency_threshold_sweep_stop_and_go(self):
        # Lowering the emergency point staggers the engage boundary; each
        # rung is one action timeline (and its own thermal network group).
        base = tiny_config("stop_and_go")
        specs = [
            RunSpec(
                ("gcc", "variant1"),
                dataclasses.replace(
                    base,
                    thermal=dataclasses.replace(
                        base.thermal,
                        emergency_k=base.thermal.emergency_k - 0.5 * step,
                    ),
                ),
            )
            for step in range(3)
        ]
        assert_equivalent(specs)

    def test_cohort_split_at_boundary_matches_scalar(self):
        # Unit-level: three lanes share the pipeline until the attack
        # triggers, then partition by visible action (stall vs slowdown vs
        # quiet) into cohorts that each match an independent scalar run.
        base = tiny_config()
        specs = [
            RunSpec(("gcc", "variant1"), base.with_policy("stop_and_go")),
            RunSpec(("gcc", "variant1"), base.with_policy("dvfs")),
            RunSpec(("gcc", "variant1"), base),  # ideal: never acts
        ]
        metrics: dict = {}
        lane_results = simulate_lockstep(specs, metrics)
        assert metrics["lanes"] == 3
        assert metrics["splits"] >= 1
        assert metrics["cohorts"] == 3
        for lane, spec in enumerate(specs):
            scalar = Simulator(
                spec.config, workloads=list(spec.workloads)
            ).run()
            assert canonical(lane_results[lane]) == canonical(scalar)
        assert lane_results[0].stall_engagements > 0
        assert lane_results[1].stall_engagements > 0
        assert lane_results[2].stall_engagements == 0

    def test_identical_action_timelines_share_one_cohort(self):
        # Lanes differing only in a behavior-neutral knob (EWMA shift under
        # a non-sedation policy) act in unison and must never split.
        base = tiny_config("stop_and_go")
        specs = [
            RunSpec(
                ("gcc", "variant1"),
                dataclasses.replace(
                    base,
                    sedation=dataclasses.replace(
                        base.sedation, ewma_shift=shift
                    ),
                ),
            )
            for shift in (5, 6, 7)
        ]
        metrics: dict = {}
        lane_results = simulate_lockstep(specs, metrics)
        assert metrics["cohorts"] == 1 and metrics["splits"] == 0
        assert all(
            lane_results[lane].stall_engagements > 0 for lane in range(3)
        )
        assert_equivalent(specs)

    def test_noisy_lanes_through_a_split(self):
        # Two noisy lanes with one thermal config read one shared sensor
        # bank until their policies split them; the forked child must carry
        # a copy of the bank (noise stream, edges, counts, model), not the
        # parent's object.  A third noisy lane draws from its own seed, a
        # fourth lane is quiet.
        base = tiny_config()
        noisy = dataclasses.replace(
            base.thermal, sensor_noise_k=0.5, sensor_noise_seed=42
        )
        reseeded = dataclasses.replace(noisy, sensor_noise_seed=7)
        sedation = base.with_policy("sedation")
        specs = [
            RunSpec(
                ("gcc", "variant2"),
                dataclasses.replace(
                    base.with_policy("stop_and_go"), thermal=noisy
                ),
            ),
            RunSpec(
                ("gcc", "variant2"),
                dataclasses.replace(
                    sedation.with_thresholds(352.0, 351.0), thermal=noisy
                ),
            ),
            RunSpec(
                ("gcc", "variant2"),
                dataclasses.replace(sedation, thermal=reseeded),
            ),
            RunSpec(("gcc", "variant2"), base.with_policy("stop_and_go")),
        ]
        root = build_root(specs)
        assert root.sensors[0] is root.sensors[1]
        assert len(root.banks) == 3
        metrics: dict = {}
        lane_results = simulate_lockstep(specs, metrics)
        assert metrics["splits"] >= 1
        cohorts = metrics["lane_cohorts"]
        assert cohorts[0] != cohorts[1]
        assert lane_results[0].emergencies > 0
        assert lane_results[1].sedations > 0
        assert_equivalent(specs)


class TestCacheInterplay:
    def test_batch_written_cache_hits_read_identically(self, tmp_path):
        base = tiny_config()
        specs = [
            RunSpec(("gcc", "swim"), base.with_policy(p))
            for p in ("ideal", "stop_and_go")
        ]
        first = run_many(specs, jobs=1, cache_dir=tmp_path, batch=True)
        # The cache entries were produced by the batch tier but live under
        # the scalar fingerprints; a batch=False pass must hit them.
        for spec in specs:
            assert (tmp_path / f"{spec_fingerprint(spec)}.json").exists()
        second = run_many(specs, jobs=1, cache_dir=tmp_path, batch=False)
        for a, b in zip(first, second, strict=True):
            assert canonical(a) == canonical(b)


class TestPerfCounters:
    def test_batched_lanes_report_per_run_counters(self):
        base = tiny_config()
        specs = [
            RunSpec(("gcc", "swim"), base.with_policy(p))
            for p in ("ideal", "stop_and_go", "dvfs")
        ]
        lane_results = simulate_lockstep(specs)
        scalar = run_many(specs, jobs=1, cache_dir=None, batch=False)
        for lane, fast in lane_results.items():
            slow = scalar[lane].perf
            assert fast.perf.cycles == slow.cycles
            assert fast.perf.stepped_cycles == slow.stepped_cycles
            assert fast.perf.idle_skipped_cycles == slow.idle_skipped_cycles
            assert fast.perf.stall_skipped_cycles == slow.stall_skipped_cycles
            assert fast.perf.thermal_advances == slow.thermal_advances
            assert fast.perf.propagator_builds == slow.propagator_builds
            assert fast.perf.wall_seconds > 0.0

    def test_ideal_sink_lane_reports_zero_thermal_work(self):
        spec = RunSpec(("gcc", "swim"), tiny_config().with_ideal_sink())
        lane_results = simulate_lockstep([spec])
        assert lane_results[0].perf.thermal_advances == 0
        assert lane_results[0].perf.propagator_builds == 0


def build_root(specs):
    """The kernel's root cohort for ``specs`` (one trajectory group)."""
    config = specs[0].config
    return _build_root(
        specs,
        list(range(len(specs))),
        StreamBank(config.machine, config.thermal),
        EnergyModel.default(),
        config.sedation.sample_interval,
        config.thermal.sensor_interval,
    )


def run_cohorts(root, config, target: int) -> list:
    """Drive ``root`` and every cohort split off it to cycle ``target``."""
    finished = []
    worklist = [root]
    while worklist:
        cohort = worklist.pop()
        children = run_loop(
            cohort,
            target,
            config.sedation.sample_interval,
            config.thermal.sensor_interval,
        )
        if children is None:
            finished.append(cohort)
        else:
            worklist.extend(children)
    return finished


def hexes(matrix) -> list[list[str]]:
    """Float matrix as hex strings, so equality is bit equality."""
    return [[value.hex() for value in row] for row in matrix]


class TestLaneEwma:
    """Each sedation lane's EWMAs against a scalar run, bit for bit."""

    #: bench/unit.py's sedation ladder plus an early and a late rung
    THRESHOLDS = (
        (356.0, 354.1), (356.5, 354.2), (357.0, 354.4), (357.4, 354.8),
        (355.5, 354.0), (358.0, 355.0),
    )
    QUANTUM = 30_000

    def test_sedation_lanes_match_scalar_monitor(self):
        base = scaled_config(
            time_scale=4_000.0, quantum_cycles=self.QUANTUM
        ).with_policy("sedation")
        specs = [
            RunSpec(("gzip", "variant2"), base.with_thresholds(upper, lower))
            for upper, lower in self.THRESHOLDS
        ]
        finished = run_cohorts(build_root(specs), base, self.QUANTUM)
        assert len(finished) > 1  # the ladder splits the root
        for cohort in finished:
            for lane, port in zip(cohort.lanes.tolist(), cohort.ports):
                scalar = Simulator(
                    specs[lane].config, workloads=["gzip", "variant2"]
                )
                scalar.run(self.QUANTUM)
                assert port.monitor.core is cohort.core
                assert hexes(port.monitor.averages_matrix()) == hexes(
                    scalar.monitor.averages_matrix()
                ), lane


def state_names(obj) -> set[str]:
    """Every attribute or slot currently set on ``obj``."""
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        names.update(
            name for name in getattr(cls, "__slots__", ()) if hasattr(obj, name)
        )
    return names


def assert_gathered(original, clone, indices, width: int, derived=()) -> None:
    """``clone`` is ``original`` restricted to the lanes at ``indices``.

    Every field set on the original is set on the clone.  Per-lane arrays
    (leading axis ``width``) keep their dtype and trailing shape and hold
    ``original[indices]`` in fresh memory; ``derived`` arrays are rebuilt
    for the clone, so only their dtype and shape are checked.  Per-lane
    lists carry the same objects in the same order, except ``derived``
    lists, whose items are checked by the caller.
    """
    for name in state_names(original):
        assert hasattr(clone, name), name
        value = getattr(original, name)
        copied = getattr(clone, name)
        if isinstance(value, np.ndarray) and value.ndim and len(value) == width:
            assert copied.dtype == value.dtype, name
            assert copied.shape == (len(indices),) + value.shape[1:], name
            if name not in derived:
                assert np.array_equal(copied, value[indices]), name
                assert not np.shares_memory(copied, value), name
        elif isinstance(value, list) and len(value) == width:
            assert len(copied) == len(indices), name
            if name not in derived:
                for item, index in zip(copied, indices, strict=True):
                    assert item is value[index], name


def assert_banks_carried(root, child, positions, reuse: bool) -> None:
    """Each child lane's sensor bank holds its parent bank's exact state.

    The keeper reuses the parent's banks and models; a forked child gets
    fresh copies bound to freshly forked models (sharing only the solved
    network), and lanes that shared a bank in the parent share one copy.
    """
    assert set(map(id, child.banks)) == set(map(id, child.sensors))
    for row, bank in enumerate(child.sensors):
        assert child.banks[child.bank_rows[row]] is bank
        parent = root.sensors[positions[row]]
        model, source = bank.model, parent.model
        assert (bank is parent) == reuse
        assert (model is source) == reuse
        assert model._basis is source._basis
        assert model.t_block.base is model._state
        assert model._state.tobytes() == source._state.tobytes()
        assert model.perf_advances == source.perf_advances
        assert bank._rng.getstate() == parent._rng.getstate()
        assert bank._above_emergency == parent._above_emergency
        assert bank.emergencies_per_block == parent.emergencies_per_block
        assert bank.total_emergencies == parent.total_emergencies
        assert bank.peak_k == parent.peak_k
        if not reuse:
            assert not np.shares_memory(model._state, source._state)
            assert bank._rng is not parent._rng
            assert bank._above_emergency is not parent._above_emergency
        for other_row, other in enumerate(child.sensors):
            shared = parent is root.sensors[positions[other_row]]
            assert (bank is other) == shared


@functools.lru_cache(maxsize=None)
def clone_root():
    """A root cohort whose lanes vary every per-lane field, a little way in.

    Six lanes over four sensor banks (three lanes share the base thermal
    config): two sedation EWMA shifts (two usage monitors), a noisy sensor
    lane, and lanes without a port.
    """
    base = scaled_config(time_scale=4_000.0, quantum_cycles=2_000)
    sedation = base.with_policy("sedation")
    pair = ("gzip", "variant2")
    specs = [
        RunSpec(pair, sedation),
        RunSpec(pair, sedation.with_thresholds(357.0, 354.4)),
        RunSpec(
            pair,
            dataclasses.replace(
                sedation,
                sedation=dataclasses.replace(sedation.sedation, ewma_shift=5),
            ),
        ),
        RunSpec(
            pair,
            dataclasses.replace(
                base.with_policy("stop_and_go"),
                thermal=dataclasses.replace(
                    base.thermal, sensor_noise_k=0.5, sensor_noise_seed=9
                ),
            ),
        ),
        RunSpec(pair, base.with_ideal_sink()),
        RunSpec(pair, base.with_policy("dvfs").with_convection_resistance(0.7)),
    ]
    root = build_root(specs)
    assert run_cohorts(root, base, 2_000) == [root]  # no split yet
    return root


class TestCloneRoundTrip:
    """``Cohort._take`` carries every lane field and copies forked observers."""

    @settings(max_examples=40, deadline=None)
    @given(
        positions=st.sets(st.integers(0, 5), min_size=1).map(sorted),
        reuse=st.booleans(),
    )
    def test_take_gathers_every_lane_field(self, positions, reuse):
        root = clone_root()
        width = len(root.lanes)
        indices = np.asarray(positions, dtype=np.int64)
        bindings = [(port, port.monitor) for port in root.ports if port]
        try:
            child = root._take(positions, reuse)
            assert_gathered(
                root, child, indices, width, derived=("bank_rows", "sensors")
            )
            assert child.bank_rows.dtype == np.int64
            assert_banks_carried(root, child, positions, reuse)
            # Each port reads one of the child's monitors, on the child's
            # core, holding its parent monitor's values (a copy on a fork).
            read = {id(port.monitor) for port in child.ports if port}
            assert {id(monitor) for monitor in child.monitors} == read
            for port, parent in bindings:
                if port in child.ports:
                    assert port.monitor.core is child.core
                    assert (port.monitor is parent) == reuse
                    assert hexes(port.monitor.averages_matrix()) == hexes(
                        parent.averages_matrix()
                    )
        finally:
            for port, monitor in bindings:
                port.bind(root.core, monitor)


class TestHeterogeneousLanes:
    """Schema-2 kernel calls: mixed workloads and seeds, one batch."""

    def test_mixed_workloads_and_seeds_all_policies(self):
        # Three trajectories (two workload mixes, two seeds) x all six
        # policies ride one kernel call and byte-match the scalar path.
        base = tiny_config()
        reseeded = tiny_config(seed=99)
        specs = (
            [RunSpec(("gcc", "swim"), base.with_policy(p)) for p in POLICIES]
            + [RunSpec(("gcc", "mcf"), base.with_policy(p)) for p in POLICIES]
            + [
                RunSpec(("gcc", "swim"), reseeded.with_policy(p))
                for p in POLICIES
            ]
        )
        assert_equivalent(specs)

    def test_mixed_attack_and_benign_trajectories(self):
        # Acting and quiet trajectories share the worklist: attack lanes
        # split into cohorts on DTM divergence while benign trajectories
        # keep lock-step, all in one call.
        base = tiny_config()
        reseeded = tiny_config(seed=17)
        specs = [
            RunSpec(("gcc", "variant1"), base.with_policy(p))
            for p in POLICIES
        ]
        specs += [
            RunSpec(("gcc", "swim"), base.with_policy(p))
            for p in ("ideal", "stop_and_go", "sedation")
        ]
        specs += [
            RunSpec(("gcc", "variant1"), reseeded.with_policy(p))
            for p in ("stop_and_go", "dvfs")
        ]
        assert_equivalent(specs)

    def test_ragged_halt_lanes_mix_with_live_lanes(self):
        # Workload lengths differ across trajectories ("idle" halts at
        # cycle ~0); halted threads stop fetching inside their own
        # trajectory group's pipeline, with no cross-group masking needed.
        base = tiny_config()
        specs = [
            RunSpec(("mcf", "idle"), base.with_policy(p))
            for p in ("ideal", "stop_and_go")
        ]
        specs += [RunSpec(("idle", "idle"), base) for _ in range(2)]
        specs += [
            RunSpec(("gcc", "swim"), base.with_policy(p))
            for p in ("ideal", "stop_and_go")
        ]
        assert_equivalent(specs)

    def test_stream_sharing_across_trajectory_groups(self):
        # "gcc" at thread 0 appears in both mixes with the same seed: the
        # bank generates that stream once (3 streams for 2 x 2 workloads),
        # and each trajectory group still byte-matches its scalar twin.
        base = tiny_config("stop_and_go")
        specs = [
            RunSpec(("gcc", "swim"), base),
            RunSpec(("gcc", "swim"), base.with_policy("ideal")),
            RunSpec(("gcc", "mcf"), base),
            RunSpec(("gcc", "mcf"), base.with_policy("ideal")),
        ]
        metrics: dict = {}
        lane_results = simulate_lockstep(specs, metrics)
        assert metrics["lanes"] == 4
        assert metrics["trajectories"] == 2
        assert metrics["streams"] == 3
        scalar = run_many(specs, jobs=1, cache_dir=None, batch=False)
        for lane, spec in enumerate(specs):
            assert canonical(lane_results[lane]) == canonical(scalar[lane]), spec

    def test_distinct_seeds_make_distinct_streams(self):
        base = tiny_config()
        specs = [
            RunSpec(("gcc", "swim"), base),
            RunSpec(("gcc", "swim"), base.with_policy("stop_and_go")),
            RunSpec(("gcc", "swim"), tiny_config(seed=99)),
            RunSpec(
                ("gcc", "swim"), tiny_config(seed=99).with_policy("stop_and_go")
            ),
        ]
        metrics: dict = {}
        lane_results = simulate_lockstep(specs, metrics)
        assert metrics["trajectories"] == 2
        assert metrics["streams"] == 4  # both threads regenerate per seed


class TestStreamCursor:
    """Replay unit tests: cursors against the live scalar sources."""

    @staticmethod
    def _fields(uop):
        return (
            uop.thread,
            uop.pc,
            uop.opclass,
            uop.dest,
            uop.srcs,
            uop.address,
            uop.taken,
            uop.mispredict,
        )

    def test_cursor_replays_scalar_source_uop_for_uop(self):
        from repro.pipeline.banks import SharedStream, StreamCursor
        from repro.workloads.registry import make_source

        config = tiny_config()
        scalar = make_source(
            "gcc", 1, config.machine, config.thermal, seed=config.seed
        )
        stream = SharedStream(
            make_source("gcc", 1, config.machine, config.thermal, seed=config.seed)
        )
        cursor = StreamCursor(stream, 1)
        for _ in range(5_000):
            assert cursor.peek_pc() == scalar.peek_pc()
            mine, theirs = cursor.next_uop(), scalar.next_row()
            if theirs is None:
                assert mine is None
                break
            assert self._fields(mine) == (1, *theirs)

    def test_cursor_fork_continues_identically(self):
        from repro.pipeline.banks import SharedStream, StreamCursor
        from repro.workloads.registry import make_source

        config = tiny_config()
        stream = SharedStream(
            make_source("swim", 0, config.machine, config.thermal, seed=config.seed)
        )
        cursor = StreamCursor(stream, 0)
        for _ in range(1_000):
            cursor.next_uop()
        twin = cursor.fork()
        assert twin.index == cursor.index and twin.thread_id == 0
        for _ in range(500):
            a, b = cursor.next_uop(), twin.next_uop()
            assert self._fields(a) == self._fields(b)
            assert a is not b  # re-hydrated objects, never shared
        # cursors advance independently after the fork
        cursor.next_uop()
        assert cursor.index == twin.index + 1

    def test_peek_at_halt_matches_program_source(self):
        # "idle" is a ProgramSource: peek_pc reports the halt instruction's
        # pc (>= 0) even though next_row refuses it.  The cursor must
        # replay that quirk until its next_uop refuses the halt — the core
        # I-cache-accesses the peeked pc.
        from repro.pipeline.banks import SharedStream, StreamCursor
        from repro.workloads.registry import make_source

        config = tiny_config()
        scalar = make_source(
            "idle", 0, config.machine, config.thermal, seed=config.seed
        )
        stream = SharedStream(
            make_source("idle", 0, config.machine, config.thermal, seed=config.seed)
        )
        cursor = StreamCursor(stream, 0)
        while True:
            assert cursor.peek_pc() == scalar.peek_pc()
            mine, theirs = cursor.next_uop(), scalar.next_row()
            if theirs is None:
                assert mine is None
                break
            assert self._fields(mine) == (0, *theirs)
        # halted: the cursor peeks -1 so the core marks the thread halted,
        # and next keeps refusing
        assert cursor.peek_pc() == -1
        assert cursor.next_uop() is None

    def test_trim_respects_slowest_cursor(self):
        from repro.pipeline.banks import SharedStream, StreamCursor
        from repro.workloads.registry import make_source

        config = tiny_config()
        stream = SharedStream(
            make_source("gcc", 0, config.machine, config.thermal, seed=config.seed)
        )
        fast = StreamCursor(stream, 0)
        slow = StreamCursor(stream, 0)
        for _ in range(20_000):
            fast.next_uop()
        stream.trim()
        assert stream.base == 0  # slow cursor pins the window
        reference = fast.fork()
        for _ in range(9_000):
            slow.next_uop()
        stream.trim()
        assert stream.base == slow.index  # slack exceeded: compacting
        # surviving cursors replay unchanged across the compaction
        resumed = StreamCursor(stream, 0, reference.index)
        assert self._fields(resumed.next_uop()) == self._fields(
            reference.next_uop()
        )
        slow.release()
        assert slow not in stream.cursors


class TestTierRouting:
    """run_many routes lanes the kernel cannot amortize back to scalar."""

    def _counters(self):
        from repro.sim import RUNNER_METRICS

        counters = RUNNER_METRICS.counters
        return (
            counters.get("runner.batch_lanes", 0),
            counters.get("runner.batch_trajectories", 0),
        )

    def test_width_one_group_routes_scalar(self):
        lanes_before, _ = self._counters()
        run_many(
            [RunSpec(("gcc", "swim"), tiny_config())],
            jobs=1,
            cache_dir=None,
            batch=True,
        )
        lanes_after, _ = self._counters()
        assert lanes_after == lanes_before  # no single-lane kernel calls

    def test_unique_trajectory_lanes_route_scalar(self):
        # Same fingerprint, but every lane is its own trajectory: the
        # kernel would deep-share nothing, so all of them go scalar.
        lanes_before, _ = self._counters()
        specs = [
            RunSpec(("gcc", "swim"), tiny_config()),
            RunSpec(("gcc", "mcf"), tiny_config()),
            RunSpec(("gcc", "swim"), tiny_config(seed=99)),
        ]
        results = run_many(specs, jobs=1, cache_dir=None, batch=True)
        lanes_after, _ = self._counters()
        assert lanes_after == lanes_before
        scalar = run_many(specs, jobs=1, cache_dir=None, batch=False)
        for fast, slow in zip(results, scalar, strict=True):
            assert canonical(fast) == canonical(slow)

    def test_paired_trajectories_ride_the_kernel(self):
        base = tiny_config()
        specs = [
            RunSpec(("gcc", "swim"), base),
            RunSpec(("gcc", "swim"), base.with_policy("stop_and_go")),
            RunSpec(("gcc", "mcf"), base),
            RunSpec(("gcc", "mcf"), base.with_policy("stop_and_go")),
            RunSpec(("gcc", "gzip"), base),  # unique: stays scalar
        ]
        lanes_before, trajectories_before = self._counters()
        run_many(specs, jobs=1, cache_dir=None, batch=True)
        lanes_after, trajectories_after = self._counters()
        assert lanes_after - lanes_before == 4
        assert trajectories_after - trajectories_before == 2


def sharded_grid() -> list[RunSpec]:
    """Three trajectories (one splits on DTM divergence) plus a fault spec.

    The attack trajectory's engaging lanes diverge from its ideal lane, so
    the kernel splits at least one cohort; the faulted spec is not
    batchable and takes the scalar tier beside the kernel.
    """
    base = tiny_config(quantum_cycles=8_000)
    reseeded = tiny_config(quantum_cycles=8_000, seed=99)
    specs = [
        RunSpec(("gcc", "variant1"), base.with_policy(p))
        for p in ("ideal", "stop_and_go", "dvfs")
    ]
    specs += [
        RunSpec(("gcc", "swim"), base.with_policy(p))
        for p in ("ideal", "sedation")
    ]
    specs += [
        RunSpec(("gzip", "mcf"), reseeded.with_policy(p))
        for p in ("stop_and_go", "sedation")
    ]
    specs.append(
        RunSpec(
            ("gcc", "swim"),
            base.with_faults(
                FaultPlan(seed=5, sensor=SensorFaultPlan(mode="dropout", rate=0.2))
            ),
        )
    )
    return specs


class TestShardedKernel:
    """jobs >= 2 shards a kernel call's trajectories across the pool."""

    def test_jobs_two_matches_jobs_one_and_scalar(self):
        from repro.sim.durable import results_to_canonical_json

        specs = sharded_grid()
        runs = [
            run_many(specs, jobs=2, cache_dir=None),
            run_many(specs, jobs=1, cache_dir=None),
            run_many(specs, jobs=1, cache_dir=None, batch=False),
        ]
        texts = {results_to_canonical_json(results) for results in runs}
        assert len(texts) == 1

    def test_merged_shape_matches_one_unsharded_call(self):
        from repro.sim.parallel import RUNNER_METRICS
        from repro.telemetry import EventType, TelemetrySession

        specs = sharded_grid()

        def run(jobs):
            before = dict(RUNNER_METRICS.counters)
            session = TelemetrySession()
            results = run_many(specs, jobs=jobs, cache_dir=None,
                               telemetry=session)
            tags = {
                event.data["lane"]: (event.data["cohort"], event.data["cohorts"])
                for event in session.events()
                if event.type is EventType.LANE_COMPLETE
                and event.data["source"] == "batch"
            }
            deltas = {
                name: RUNNER_METRICS.counters.get(name, 0) - before.get(name, 0)
                for name in ("runner.batch_cohorts", "runner.batch_splits",
                             "runner.batch_pool_shards")
            }
            return results, tags, deltas

        def partition(tags):
            groups: dict = {}
            for lane, (ordinal, _) in tags.items():
                groups.setdefault(ordinal, set()).add(lane)
            return sorted(map(sorted, groups.values()))

        whole_results, whole, whole_deltas = run(1)
        results, sharded, sharded_deltas = run(2)
        assert sharded_deltas["runner.batch_pool_shards"] == 1
        assert whole_deltas["runner.batch_pool_shards"] == 0
        for name in ("runner.batch_cohorts", "runner.batch_splits"):
            assert sharded_deltas[name] == whole_deltas[name], name
        assert whole_deltas["runner.batch_splits"] >= 1
        assert sorted(sharded) == sorted(whole) == list(range(len(specs) - 1))
        # Ordinals are unique across the shards: each names one cohort,
        # every tag carries the group's total, and the cohorts are the
        # unsharded call's, lane for lane.
        total = whole_deltas["runner.batch_cohorts"]
        for tags in (whole, sharded):
            assert {ordinal for ordinal, _ in tags.values()} == set(range(total))
            assert {cohorts for _, cohorts in tags.values()} == {total}
        assert partition(sharded) == partition(whole)
        for fast, slow in zip(results, whole_results, strict=True):
            assert canonical(fast) == canonical(slow)

    def test_shards_balance_trajectories_then_lanes(self):
        from repro.sim.batch import _shard_lanes

        groups = {"a": [0, 1, 2, 3], "b": [4, 5], "c": [6, 7], "d": [8]}
        assert _shard_lanes(groups, 2) == [[0, 1, 2, 3, 8], [4, 5, 6, 7]]
        assert _shard_lanes(groups, 8) == [[0, 1, 2, 3], [4, 5], [6, 7], [8]]
        assert _shard_lanes(groups, 1) == [list(range(9))]

    def test_batch_lane_events_carry_cohort_tags(self):
        from repro.telemetry import EventType, TelemetrySession

        specs = sharded_grid()
        session = TelemetrySession()
        run_many(specs, jobs=2, cache_dir=None, telemetry=session)
        lanes = [
            event.data
            for event in session.events()
            if event.type is EventType.LANE_COMPLETE
        ]
        batch_lanes = [data for data in lanes if data["source"] == "batch"]
        assert len(batch_lanes) == len(specs) - 1
        assert all("cohort" in data and "cohorts" in data for data in batch_lanes)
        assert len({data["cohorts"] for data in batch_lanes}) == 1
