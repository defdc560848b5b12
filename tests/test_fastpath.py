"""Fast-path engine regressions: exact thermal stepping, clock skips, and
the parallel cached runner.

Every optimization in the fast-path engine claims *exactness* — same
statistics, orders of magnitude less work.  These tests pin each claim:

* the exponential propagator against the forward-Euler reference;
* :meth:`SMTCore.skip_cycles` preserving in-flight completion latencies;
* the idle fast-forward producing byte-identical pipeline state;
* :func:`run_many` returning identical results serial, parallel, and from
  the on-disk cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.blocks import INT_RF, NUM_BLOCKS
from repro.config import scaled_config
from repro.pipeline.banks import stream_cursor
from repro.sim import ExperimentRunner, RunSpec, run_many, spec_fingerprint
from repro.sim.results import load_result, save_result
from repro.thermal import RCThermalModel
from repro.workloads import make_source


def tiny_config(policy: str = "stop_and_go", **kwargs):
    kwargs.setdefault("time_scale", 20_000.0)
    kwargs.setdefault("quantum_cycles", 6_000)
    return scaled_config(**kwargs).with_policy(policy)


class TestExactThermalStepping:
    """The closed-form propagator must track the Euler reference."""

    def heat_then_cool(self, model, stepper, spans):
        """Drive one heat-then-cool trace; returns block trajectories."""
        hot = [2.0] * NUM_BLOCKS
        hot[INT_RF] = 6.0
        idle = [0.05] * NUM_BLOCKS
        trajectory = []
        for index, dt in enumerate(spans):
            powers = hot if index < len(spans) // 2 else idle
            stepper(model, dt, powers)
            trajectory.append(model.temperatures())
        return np.asarray(trajectory)

    def test_matches_euler_within_tolerance(self):
        # Default-scale config, sensor-interval spans: the trajectory the
        # simulator actually integrates.  (At spans ≫ τ_block the *Euler*
        # side is the inaccurate one — its substep is pinned at τ_block/4 —
        # so longer jumps are checked against a refined Euler below.)
        config = scaled_config().thermal
        span = config.sensor_interval * config.seconds_per_cycle
        exact = RCThermalModel(config)
        euler = RCThermalModel(config)
        spans = [span] * 400
        a = self.heat_then_cool(exact, RCThermalModel.advance, spans)
        b = self.heat_then_cool(euler, RCThermalModel.advance_euler, spans)
        assert np.max(np.abs(a - b)) < 0.05
        # The heating phase must actually heat (guard against a vacuous pass).
        assert a[len(spans) // 2 - 1, INT_RF] > a[0, INT_RF] + 1.0

    def test_long_jump_matches_refined_euler(self):
        """A 20 ms single-call jump lands where a fine Euler says it should."""
        config = scaled_config().thermal
        exact = RCThermalModel(config)
        fine = RCThermalModel(config)
        powers = [2.0] * NUM_BLOCKS
        powers[INT_RF] = 6.0
        exact.advance(2e-2, powers)
        # 1/64-τ substeps: Euler error is first-order, so this reference is
        # ~16× tighter than the production advance_euler.
        substep = config.block_time_constant_s / 64.0
        steps = int(round(2e-2 / substep))
        for _ in range(steps):
            fine.advance_euler(substep, powers)
        assert np.max(np.abs(exact.temperatures() - fine.temperatures())) < 0.05

    def test_propagator_cache_reused_across_spans(self):
        model = RCThermalModel(tiny_config().thermal)
        powers = [1.0] * NUM_BLOCKS
        for _ in range(10):
            model.advance(1e-3, powers)
        assert model.perf_advances == 10
        assert model.perf_propagator_builds == 1
        model.advance(2e-3, powers)
        assert model.perf_propagator_builds == 2

    def test_single_long_span_equals_chained_short_spans(self):
        """Exactness property Euler lacks: E(a+b) == E(b)·E(a)."""
        config = tiny_config().thermal
        one = RCThermalModel(config)
        many = RCThermalModel(config)
        powers = [3.0] * NUM_BLOCKS
        one.advance(8e-3, powers)
        for _ in range(8):
            many.advance(1e-3, powers)
        assert np.allclose(one.temperatures(), many.temperatures(), atol=1e-9)


class TestEigenbasisMemo:
    """One eigendecomposition per network per process, shared read-only."""

    def cold_memo(self, monkeypatch) -> list[int]:
        """Empty the memo and count the ``eigh`` calls that refill it."""
        from repro.thermal import rcmodel

        monkeypatch.setattr(rcmodel, "_EIGENBASES", {})
        calls: list[int] = []
        real_eigh = np.linalg.eigh

        def eigh(matrix):
            calls.append(len(matrix))
            return real_eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        return calls

    def test_cold_and_warm_memo_give_identical_bytes(self, monkeypatch):
        from repro.sim import Simulator
        from repro.sim.durable import results_to_canonical_json

        calls = self.cold_memo(monkeypatch)
        config = tiny_config("sedation")
        runs = []
        for _ in range(2):
            simulator = Simulator(config, workloads=["gzip", "variant2"])
            result = simulator.run()
            runs.append((
                results_to_canonical_json([result]),
                simulator.thermal.perf_propagator_builds,
            ))
        assert calls == [3 * NUM_BLOCKS + 1]
        assert runs[0] == runs[1]
        assert runs[0][1] >= 1

    def test_each_network_gets_its_own_basis(self, monkeypatch):
        calls = self.cold_memo(monkeypatch)
        config = tiny_config()
        default = RCThermalModel(config.thermal)
        # The ideal flag pins temperatures but leaves C and K alone, so it
        # shares the default network's basis; a heat-sink variant does not.
        ideal = RCThermalModel(config.with_ideal_sink().thermal)
        variant = RCThermalModel(config.with_convection_resistance(0.4).thermal)
        assert ideal._basis is default._basis
        assert variant._basis is not default._basis
        assert not np.array_equal(variant._modes, default._modes)
        assert len(calls) == 2

    def test_memo_stays_within_its_bound(self, monkeypatch):
        from repro.thermal import rcmodel

        calls = self.cold_memo(monkeypatch)
        config = tiny_config()
        limit = rcmodel._EIGENBASIS_LIMIT
        resistances = [0.2 + 0.01 * step for step in range(limit + 3)]
        for r_conv in resistances:
            RCThermalModel(config.with_convection_resistance(r_conv).thermal)
        assert len(rcmodel._EIGENBASES) == limit
        assert len(calls) == limit + 3
        # The newest networks are still held; the oldest was evicted.
        RCThermalModel(config.with_convection_resistance(resistances[-1]).thermal)
        assert len(calls) == limit + 3
        RCThermalModel(config.with_convection_resistance(resistances[0]).thermal)
        assert len(calls) == limit + 4
        assert len(rcmodel._EIGENBASES) == limit

    def test_shared_basis_is_read_only(self):
        model = RCThermalModel(tiny_config().thermal)
        for array in (model._modes, model._basis, model._basis_t_state,
                      model._basis_t_input):
            with pytest.raises(ValueError):
                array[0] = 0.0
        assert model.fork()._basis is model._basis


class TestSkipCycles:
    """A global stall shifts the completion wheel without losing latencies."""

    def make_core(self):
        config = tiny_config()
        sources = [
            stream_cursor(
                tid,
                make_source(name, tid, config.machine, config.thermal, config.seed),
            )
            for tid, name in enumerate(["gcc", "swim"])
        ]
        from repro.pipeline import SMTCore

        core = SMTCore(config.machine, sources)
        for source in sources:
            source.prefill(core.hierarchy)
        return core

    def test_wheel_shift_preserves_inflight_latencies(self):
        core = self.make_core()
        core.run_cycles(200)
        assert core._wheel, "expected in-flight operations after warmup"
        before = {
            when - core.cycle: [id(u) for u in uops]
            for when, uops in core._wheel.items()
        }
        core.skip_cycles(137)
        after = {
            when - core.cycle: [id(u) for u in uops]
            for when, uops in core._wheel.items()
        }
        # Same remaining latency for the same uops: the stall froze the
        # clock, it did not age anything in flight.
        assert after == before
        assert core.perf_stall_skipped == 137

    def test_progress_resumes_after_skip(self):
        stalled = self.make_core()
        straight = self.make_core()
        straight.run_cycles(200)
        stalled.run_cycles(200)
        stalled.skip_cycles(1000)
        straight.run_cycles(500)
        stalled.run_cycles(500)
        assert [t.committed for t in stalled.threads] == [
            t.committed for t in straight.threads
        ]
        assert stalled.access_counts == straight.access_counts
        assert stalled.cycle == straight.cycle + 1000


class TestIdleFastForward:
    def test_bit_exact_against_stepped_execution(self):
        config = tiny_config()
        cores = []
        for disable_skip in (False, True):
            sources = [
                stream_cursor(
                    tid,
                    make_source(name, tid, config.machine, config.thermal, config.seed),
                )
                for tid, name in enumerate(["gcc", "swim"])
            ]
            from repro.pipeline import SMTCore

            core = SMTCore(config.machine, sources)
            for source in sources:
                source.prefill(core.hierarchy)
            if disable_skip:
                core._idle_until = lambda cycle, limit: cycle
            cores.append(core)
        fast, slow = cores
        for _ in range(10):
            fast.run_cycles(1500)
            slow.run_cycles(1500)
            assert fast.cycle == slow.cycle
            assert fast.access_counts == slow.access_counts
            assert [t.committed for t in fast.threads] == [
                t.committed for t in slow.threads
            ]
        # The sweep is only meaningful if the fast core actually skipped.
        assert fast.perf_idle_skipped > 0
        assert slow.perf_idle_skipped == 0


class TestParallelCachedRunner:
    def test_fingerprint_sensitivity(self):
        config = tiny_config()
        base = RunSpec(("gcc", "swim"), config)
        assert spec_fingerprint(base) == spec_fingerprint(
            RunSpec(("gcc", "swim"), config)
        )
        assert spec_fingerprint(base) != spec_fingerprint(
            RunSpec(("swim", "gcc"), config)
        )
        assert spec_fingerprint(base) != spec_fingerprint(
            RunSpec(("gcc", "swim"), config.with_policy("sedation"))
        )
        assert spec_fingerprint(base) != spec_fingerprint(
            RunSpec(("gcc", "swim"), config, quantum_cycles=999)
        )

    def test_cache_round_trip_and_parallel_identity(self, tmp_path):
        specs = [
            RunSpec(("gcc", "swim"), tiny_config()),
            RunSpec(("gzip", "mcf"), tiny_config("sedation")),
        ]
        serial = run_many(specs, jobs=1, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 2
        cached = run_many(specs, jobs=1, cache_dir=tmp_path)
        parallel = run_many(specs, jobs=2, cache_dir=None)
        for a, b, c in zip(serial, cached, parallel, strict=True):
            assert a == b == c
        # Cached results carry the original run's perf counters.
        assert cached[0].perf is not None
        assert cached[0].perf.cycles == serial[0].perf.cycles

    def test_duplicate_specs_execute_once(self, tmp_path):
        spec = RunSpec(("gcc", "swim"), tiny_config())
        results = run_many([spec, spec], jobs=1, cache_dir=tmp_path)
        assert results[0] is results[1]

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        spec = RunSpec(("gcc", "swim"), tiny_config())
        key = spec_fingerprint(spec)
        (tmp_path / f"{key}.json").write_text("{not json")
        results = run_many([spec], jobs=1, cache_dir=tmp_path)
        assert results[0].cycles > 0

    def test_result_perf_serialization_round_trip(self, tmp_path):
        result = run_many([RunSpec(("gcc", "swim"), tiny_config())], jobs=1,
                          cache_dir=None)[0]
        path = tmp_path / "result.json"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded == result
        assert loaded.perf.to_dict() == result.perf.to_dict()


class TestExperimentRunnerBatching:
    def test_batch_matches_individual_runs(self, tmp_path):
        batched = ExperimentRunner(tiny_config(), jobs=2, cache_dir=tmp_path)
        one_by_one = ExperimentRunner(tiny_config())
        pairs = [("gcc", "swim"), ("gzip", "mcf")]
        out = batched.pair_many(pairs, policies=("stop_and_go",))
        for a, b in pairs:
            assert out[(a, b, "stop_and_go")] == one_by_one.pair(a, b)

    def test_run_batch_keys_results_by_spec(self):
        runner = ExperimentRunner(tiny_config())
        a = RunSpec(("gcc", "swim"), runner.base)
        b = RunSpec(("gzip", "mcf"), runner.base)
        first, second, again = runner.run_batch([a, b, a])
        assert first is again and first is not second
        assert runner.run_batch([RunSpec(("gzip", "mcf"), tiny_config())])[0] is second

    def test_solo_runs_via_registry_idle(self):
        runner = ExperimentRunner(tiny_config())
        result = runner.solo("gcc")
        assert result.workloads == ("gcc", "idle")
        assert result.threads[1].committed == 0
        assert result.threads[0].committed > 0


@pytest.mark.parametrize("name", ["idle"])
def test_registry_resolves_idle(name):
    config = tiny_config()
    source = make_source(name, 1, config.machine, config.thermal)
    assert source.thread_id == 1
