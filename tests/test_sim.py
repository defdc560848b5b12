"""Simulator and experiment-harness tests."""

import dataclasses
import json

import pytest

from repro.blocks import INT_RF
from repro.config import scaled_config
from repro.errors import SimulationError
from repro.pipeline import banks
from repro.sim import ExperimentRunner, RunResult, Simulator, run_workloads
from repro.sim.results import result_to_dict

CFG = scaled_config(quantum_cycles=20_000)


class TestSimulatorConstruction:
    def test_requires_workloads_or_sources(self):
        with pytest.raises(SimulationError):
            Simulator(CFG)

    def test_workload_count_must_match_threads(self):
        with pytest.raises(SimulationError):
            Simulator(CFG, workloads=["gzip"])

    def test_unknown_policy_rejected_at_build(self):
        config = dataclasses.replace(CFG, dtm_policy="stop_and_go")
        sim = Simulator(config, workloads=["gzip", "eon"])
        assert sim.policy.name == "stop_and_go"

    def test_policy_selection(self):
        for policy in ("ideal", "stop_and_go", "dvfs", "sedation"):
            sim = Simulator(CFG.with_policy(policy), workloads=["gzip", "eon"])
            assert sim.policy.name == policy


class TestRunLoop:
    def test_run_produces_consistent_cycle_accounting(self):
        result = run_workloads(CFG.with_policy("stop_and_go"), ["gzip", "variant2"])
        for stats in result.threads:
            total = stats.cycles_normal + stats.cycles_cooling + stats.cycles_sedated
            assert total == result.cycles
            assert stats.normal_fraction + stats.cooling_fraction + \
                stats.sedated_fraction == pytest.approx(1.0)

    def test_cooling_classification_shared_by_all_threads(self):
        result = run_workloads(CFG.with_policy("stop_and_go"), ["gzip", "variant2"])
        assert result.threads[0].cycles_cooling == result.threads[1].cycles_cooling

    def test_quantum_override(self):
        sim = Simulator(CFG, workloads=["gzip", "eon"])
        result = sim.run(quantum_cycles=5_000)
        assert result.cycles == 5_000

    def test_zero_quantum_rejected(self):
        sim = Simulator(CFG, workloads=["gzip", "eon"])
        with pytest.raises(SimulationError):
            sim.run(quantum_cycles=0)

    def test_trace_recording(self):
        sim = Simulator(CFG, workloads=["gzip", "eon"])
        result = sim.run(quantum_cycles=5_000, trace=True)
        assert len(result.trace) > 10
        cycles = [row[0] for row in result.trace]
        assert cycles == sorted(cycles)

    def test_determinism(self):
        a = run_workloads(CFG.with_policy("stop_and_go"), ["gzip", "variant2"])
        b = run_workloads(CFG.with_policy("stop_and_go"), ["gzip", "variant2"])
        assert a.threads[0].committed == b.threads[0].committed
        assert a.emergencies == b.emergencies

    def test_seed_changes_synthetic_outcome(self):
        a = run_workloads(CFG, ["gzip", "eon"])
        b = run_workloads(dataclasses.replace(CFG, seed=99), ["gzip", "eon"])
        assert a.threads[0].committed != b.threads[0].committed

    def test_ideal_sink_never_stalls(self):
        result = run_workloads(CFG.with_ideal_sink(), ["gzip", "variant2"])
        assert result.emergencies == 0
        assert result.threads[0].cooling_fraction == 0.0

    def test_dvfs_policy_runs(self):
        result = run_workloads(CFG.with_policy("dvfs"), ["gzip", "variant2"])
        assert result.policy == "dvfs"
        assert result.threads[0].committed > 0

    def test_consecutive_runs_continue(self):
        sim = Simulator(CFG, workloads=["gzip", "eon"])
        first = sim.run(quantum_cycles=3_000)
        second = sim.run(quantum_cycles=3_000)
        assert second.cycles == 3_000
        assert sim.core.cycle == 6_000


def canonical(result) -> str:
    """RunResult as canonical JSON with the wall-clock field zeroed."""
    payload = result_to_dict(result)
    payload["perf"]["wall_seconds"] = 0.0
    return json.dumps(payload, sort_keys=True)


class TestUopStreams:
    """Every thread reads a stream cursor, as profilers and memory expect."""

    def test_instance_hooks_see_every_uop(self):
        # The benchmark's tracer wraps these two methods on each thread's
        # source instance; the fetch loop must call the wrappers.
        config = CFG.with_policy("sedation")
        calls = {"peek_pc": 0, "next_uop": 0}

        def counted(fn, name):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        sim = Simulator(config, workloads=["gzip", "variant2"])
        for thread in sim.core.threads:
            for name in calls:
                setattr(thread.source, name, counted(getattr(thread.source, name), name))
        hooked = sim.run()
        fetched = sum(stats.fetched for stats in hooked.threads)
        assert calls["next_uop"] >= fetched > 0
        assert calls["peek_pc"] >= calls["next_uop"]
        plain = Simulator(config, workloads=["gzip", "variant2"]).run()
        assert canonical(hooked) == canonical(plain)

    def test_scalar_stream_memory_is_bounded(self):
        config = scaled_config(quantum_cycles=60_000)
        sim = Simulator(config, workloads=["gzip", "mcf"])
        sim.run()
        for thread in sim.core.threads:
            stream = thread.source.stream
            assert stream.generated > banks._CHUNK + banks._TRIM_SLACK
            assert len(stream.rows) <= banks._CHUNK + banks._TRIM_SLACK


class TestRunResult:
    def test_summary_mentions_workloads(self):
        result = run_workloads(CFG, ["gzip", "variant2"])
        text = result.summary()
        assert "gzip" in text and "variant2" in text

    def test_access_rate_uses_flat_average(self):
        result = run_workloads(CFG, ["gzip", "eon"])
        stats = result.threads[0]
        assert stats.access_rate(INT_RF) == pytest.approx(
            stats.access_counts[INT_RF] / stats.cycles
        )

    def test_total_ipc(self):
        result = run_workloads(CFG, ["gzip", "eon"])
        assert result.total_ipc == pytest.approx(
            result.threads[0].ipc + result.threads[1].ipc
        )

    def test_emergencies_at(self):
        result = run_workloads(CFG.with_policy("stop_and_go"), ["gzip", "variant2"])
        assert result.emergencies_at(INT_RF) <= result.emergencies


class TestExperimentRunner:
    def test_solo_uses_idle_companion(self):
        runner = ExperimentRunner(CFG)
        result = runner.solo("gzip")
        assert result.threads[1].committed == 0
        assert result.threads[0].committed > 0

    def test_results_memoized_by_spec(self):
        runner = ExperimentRunner(CFG)
        first = runner.solo("gzip")
        second = runner.solo("gzip")
        assert first is second

    def test_pair_with_idle_is_the_solo_run(self):
        runner = ExperimentRunner(CFG)
        assert runner.pair("gzip", "idle", policy="stop_and_go") is runner.solo("gzip")

    def test_pair_places_victim_on_thread_zero(self):
        runner = ExperimentRunner(CFG)
        result = runner.pair("gzip", "variant2")
        assert result.workloads == ("gzip", "variant2")

    def test_distinct_configs_not_conflated(self):
        runner = ExperimentRunner(CFG)
        a = runner.pair("gzip", "variant2", policy="stop_and_go")
        b = runner.pair("gzip", "variant2", policy="sedation")
        assert a is not b
