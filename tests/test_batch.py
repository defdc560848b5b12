"""Lock-step batch engine: the byte-identity equivalence gate.

The contract of :mod:`repro.sim.batch` is absolute: any lane it completes
must be **byte-identical** to the scalar simulator's result — same RunResult
JSON, same cache keys — and any lane it cannot guarantee that for must be
deferred to the scalar path.  These tests enforce the contract with
byte-compares of canonical JSON (only ``perf.wall_seconds`` is zeroed; wall
time is the single nondeterministic field, and ``perf`` is compare=False
diagnostics), across a grid of workloads × DTM policies × thermal/sedation
variants, plus the engine's unit-level vector forms.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.blocks import INT_RF, NUM_BLOCKS
from repro.config import scaled_config
from repro.core.ewma import Ewma, EwmaBank
from repro.core.usage import BatchUsageMonitor, UsageMonitor
from repro.errors import SimulationError
from repro.faults import FaultPlan, SensorFaultPlan
from repro.sim import RunSpec, run_many
from repro.sim.batch import batch_fingerprint, simulate_lockstep, trajectory_key
from repro.sim.parallel import CampaignSpec, spec_fingerprint
from repro.sim.results import result_to_dict
from repro.sim.simulator import Simulator, build_pipeline
from repro.thermal.sensors import BatchCrossingDetector, SensorBank

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
    scalar = run_many(specs, jobs=1, cache=False, batch=False)
    batched = run_many(specs, jobs=1, cache=False, batch=True)
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
        assert (
            batch_fingerprint(CampaignSpec(("gcc", "swim"), config, quanta=2))
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
        scalar = run_many([spec], jobs=1, cache=False, batch=False)[0]
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
        results = run_many([spec, other, spec], jobs=1, cache=False, batch=True)
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
        scalar = run_many(specs, jobs=1, cache=False, batch=False)
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


class TestVectorForms:
    """The batched primitives against their scalar counterparts."""

    def test_ewma_bank_matches_scalar_ewma(self):
        shifts = [0, 2, 5]
        bank = EwmaBank(np.array(shifts).reshape(3, 1), (3, 4))
        scalars = [[Ewma(shift) for _ in range(4)] for shift in shifts]
        samples = [
            [0.5, 1.25, 3.0, 0.0],
            [2.0, 0.125, 7.5, 1.0],
            [0.75, 4.5, 0.25, 2.0],
        ]
        for row in samples:
            bank.update(np.array(row))
            for lane_values in scalars:
                for ewma, value in zip(lane_values, row, strict=True):
                    ewma.update(value)
        for lane, lane_values in enumerate(scalars):
            for column, ewma in enumerate(lane_values):
                assert bank.values[lane, column] == ewma.value

    def test_crossing_detector_matches_sensor_bank(self):
        config = tiny_config()
        simulator = Simulator(config, workloads=["gcc", "swim"])
        bank = SensorBank(simulator.thermal, emergency_k=config.thermal.emergency_k)
        detector = BatchCrossingDetector(
            np.array([config.thermal.emergency_k]),
            np.array([bank.peak_k]),
        )
        rng_temps = np.asarray(simulator.thermal.temperatures())
        for offset in (0.0, 5.0, -2.0, 8.0, 8.0, -10.0, 9.0):
            temps = rng_temps + offset
            bank.model.t_block = temps.copy()
            bank.sample(cycle=0)
            detector.observe(temps[np.newaxis, :])
        assert int(detector.total_emergencies[0]) == bank.total_emergencies
        assert [
            int(count) for count in detector.emergencies_per_block[0]
        ] == bank.emergencies_per_block
        assert float(detector.peak_k[0]) == bank.peak_k

    def test_batch_usage_monitor_matches_scalar(self):
        config = tiny_config()
        core = build_pipeline(config, ["gcc", "swim"])
        scalar = UsageMonitor(core, config.sedation)
        batch = BatchUsageMonitor(core, [config.sedation.ewma_shift, 3])
        for _ in range(4):
            core.run_cycles(500)
            scalar.sample()
            batch.sample()
        assert batch.samples_taken == scalar.samples_taken
        lane0 = batch.lane_values(0)
        for tid in range(2):
            for block in range(NUM_BLOCKS):
                assert lane0[tid, block] == scalar.weighted_average(tid, block)


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
        scalar = run_many(specs, jobs=1, cache=False, batch=False)
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
            mine, theirs = cursor.next_uop(), scalar.next_uop()
            if theirs is None:
                assert mine is None
                break
            assert self._fields(mine) == self._fields(theirs)

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
        # pc (>= 0) even though next_uop refuses it.  The cursor must
        # replay that quirk — the core I-cache-accesses the peeked pc.
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
            mine, theirs = cursor.next_uop(), scalar.next_uop()
            if theirs is None:
                assert mine is None
                break
            assert self._fields(mine) == self._fields(theirs)
        # halted: peek keeps reporting the same pc, next keeps refusing
        assert cursor.peek_pc() == scalar.peek_pc()
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


class TestLaneRngBank:
    """The RNG-bank contract: scalar draw order, streams travel with lanes."""

    def test_draw_order_matches_scalar_injector_stream(self):
        import random as _random

        from repro.sim.soa import LaneRngBank

        base = tiny_config()
        noisy = dataclasses.replace(
            base.thermal, sensor_noise_k=0.25, sensor_noise_seed=42
        )
        bank = LaneRngBank([noisy, base.thermal])
        temps = np.zeros((2, NUM_BLOCKS))
        bank.fill(temps)
        reference = _random.Random(42)
        expected = [reference.gauss(0.0, 0.25) for _ in range(NUM_BLOCKS)]
        assert list(temps[0]) == expected
        assert not temps[1].any()  # quiet lane: no draws, no perturbation
        # the next boundary continues the same stream, block order again
        temps[:] = 0.0
        bank.fill(temps)
        expected = [reference.gauss(0.0, 0.25) for _ in range(NUM_BLOCKS)]
        assert list(temps[0]) == expected

    def test_draws_match_scalar_sensor_bank(self):
        from repro.sim.soa import LaneRngBank
        from repro.thermal.rcmodel import RCThermalModel

        base = tiny_config()
        noisy = dataclasses.replace(
            base.thermal, sensor_noise_k=0.5, sensor_noise_seed=7
        )
        scalar = SensorBank(
            RCThermalModel(noisy),
            emergency_k=noisy.emergency_k,
            noise_k=noisy.sensor_noise_k,
            noise_seed=noisy.sensor_noise_seed,
        )
        bank = LaneRngBank([noisy])
        for cycle in range(3):
            reading = scalar.sample(cycle)
            temps = np.array([scalar.model.temperatures()])
            bank.fill(temps)
            assert list(temps[0]) == list(reading.temperatures)

    def test_take_moves_streams_by_reference(self):
        import random as _random

        from repro.sim.soa import LaneRngBank

        base = tiny_config()
        lane_a = dataclasses.replace(
            base.thermal, sensor_noise_k=0.25, sensor_noise_seed=5
        )
        lane_b = dataclasses.replace(
            base.thermal, sensor_noise_k=1.5, sensor_noise_seed=11
        )
        bank = LaneRngBank([lane_a, lane_b])
        bank.fill(np.zeros((2, NUM_BLOCKS)))
        child = bank.take(np.array([1]))
        assert child.rngs[0] is bank.rngs[1]  # moved, not reseeded
        assert float(child.sigmas[0]) == 1.5
        temps = np.zeros((1, NUM_BLOCKS))
        child.fill(temps)
        reference = _random.Random(11)
        for _ in range(NUM_BLOCKS):  # boundary drawn before the split
            reference.gauss(0.0, 1.5)
        expected = [reference.gauss(0.0, 1.5) for _ in range(NUM_BLOCKS)]
        assert list(temps[0]) == expected

    def test_all_quiet_bank_skips_work(self):
        from repro.sim.soa import LaneRngBank

        base = tiny_config()
        bank = LaneRngBank([base.thermal, base.thermal])
        assert not bank.noisy and bank.rngs == [None, None]
        temps = np.zeros((2, NUM_BLOCKS))
        bank.fill(temps)
        assert not temps.any()


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
            cache=False,
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
        results = run_many(specs, jobs=1, cache=False, batch=True)
        lanes_after, _ = self._counters()
        assert lanes_after == lanes_before
        scalar = run_many(specs, jobs=1, cache=False, batch=False)
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
        run_many(specs, jobs=1, cache=False, batch=True)
        lanes_after, trajectories_after = self._counters()
        assert lanes_after - lanes_before == 4
        assert trajectories_after - trajectories_before == 2
