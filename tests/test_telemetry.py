"""Telemetry: events, ring buffer, JSONL, narratives, and exactness.

The pinned-sequence tests lock the canonical heat-stroke narrative
(gzip + variant2 under selective sedation at time_scale=8000) so the
attack → sedate → release story is a regression-checked property of the
event log, not just a docstring claim.
"""

import json

import pytest

from repro.analysis import (
    duty_cycle,
    duty_cycle_from_events,
    strip_chart_from_events,
)
from repro.blocks import INT_RF
from repro.cli import main
from repro.config import scaled_config
from repro.errors import SimulationError
from repro.sim import run_workloads
from repro.sim.parallel import RunSpec, run_many, spec_fingerprint
from repro.sim.results import load_result, save_result
from repro.telemetry import (
    NARRATIVE_TYPES,
    Event,
    EventBus,
    EventType,
    TelemetrySession,
    batch_narrative,
    filter_events,
    load_events,
    sedation_episodes,
    stall_episodes,
    summarize,
    trace_row,
    trace_rows,
    write_events,
)

CFG = scaled_config(time_scale=8000.0, quantum_cycles=8_000)
WORKLOADS = ["gzip", "variant2"]


@pytest.fixture(scope="module")
def canonical():
    """The canonical heat-stroke run: attacker vs gzip under sedation."""
    session = TelemetrySession()
    result = run_workloads(
        CFG.with_policy("sedation"), WORKLOADS, trace=True, telemetry=session
    )
    return session, result


@pytest.fixture(scope="module")
def stopgo():
    session = TelemetrySession()
    result = run_workloads(
        CFG.with_policy("stop_and_go"), WORKLOADS, telemetry=session
    )
    return session, result


class TestEvent:
    def test_round_trip_full(self):
        event = Event(12, EventType.SEDATE, thread=1, block=INT_RF,
                      value=356.5, data={"ewma": 9.5})
        assert Event.from_dict(event.to_dict()) == event

    def test_dict_is_sparse(self):
        payload = Event(5, EventType.IDLE_SKIP, value=40.0).to_dict()
        assert set(payload) == {"cycle", "type", "value"}

    def test_trace_row_adapter(self):
        sample = Event(100, EventType.SENSOR_SAMPLE, value=356.0,
                       data={"int_rf_k": 355.5})
        assert trace_row(sample) == (100, 356.0, 355.5)
        with pytest.raises(SimulationError):
            trace_row(Event(0, EventType.SEDATE))


class TestRingBuffer:
    def test_truncation_keeps_latest_and_counts_drops(self):
        bus = EventBus(capacity=4)
        for cycle in range(10):
            bus.emit(Event(cycle, EventType.SENSOR_SAMPLE, value=0.0))
        assert bus.emitted == 10
        assert bus.dropped == 6
        assert [e.cycle for e in bus.events()] == [6, 7, 8, 9]

    def test_unbounded_when_capacity_none(self):
        bus = EventBus(capacity=None)
        for cycle in range(100):
            bus.emit(Event(cycle, EventType.SENSOR_SAMPLE, value=0.0))
        assert bus.dropped == 0 and len(bus) == 100

    def test_bad_capacity_rejected(self):
        with pytest.raises(SimulationError):
            EventBus(capacity=0)

    def test_sink_sees_events_the_ring_dropped(self):
        seen = []
        bus = EventBus(capacity=2)
        bus.add_sink(seen.append)
        for cycle in range(5):
            bus.emit(Event(cycle, EventType.SENSOR_SAMPLE, value=0.0))
        assert len(seen) == 5 and len(bus.events()) == 2

    def test_metrics_survive_ring_truncation(self):
        session = TelemetrySession(capacity=2)
        session.emit(EventType.SEDATE, 100, thread=1, block=INT_RF)
        for cycle in range(110, 150, 10):
            session.emit(EventType.SENSOR_SAMPLE, cycle, value=355.0)
        session.emit(EventType.RELEASE, 300, thread=1, block=INT_RF)
        # The SEDATE event is long gone from the ring...
        assert all(e.type is not EventType.SEDATE for e in session.events())
        # ...but the episode histogram was derived at emit time.
        snap = session.snapshot()
        assert snap["histograms"]["sedation_cycles"]["total"] == 200
        assert snap["events"]["dropped"] > 0


class TestJsonlRoundTrip:
    def test_write_read_equality(self, canonical, tmp_path):
        session, _ = canonical
        path = tmp_path / "events.jsonl"
        count = write_events(session.events(), path)
        assert count == len(session.events())
        assert load_events(path) == session.events()

    def test_streaming_sink_equals_ring(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        session = TelemetrySession(jsonl_path=path)
        run_workloads(CFG.with_policy("sedation"), WORKLOADS,
                      telemetry=session)
        session.close()
        assert load_events(path) == session.events()

    def test_corrupt_line_is_a_loud_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"cycle": 1, "type": "sensor_sample"}\nnot json\n')
        with pytest.raises(SimulationError, match="bad.jsonl:2"):
            load_events(path)


class TestCanonicalNarrative:
    """Pinned regression for the attack → sedate → release sequence."""

    def test_event_ordering(self, canonical):
        session, _ = canonical
        events = session.events()
        for episode in sedation_episodes(events):
            assert episode["release_cycle"] is not None
            assert episode["sedate_cycle"] < episode["release_cycle"]
        # Every sedation is preceded by an upper-threshold rise at the
        # same cycle: the controller reacts to the crossing it observed.
        sedate_at = [
            i for i, e in enumerate(events) if e.type is EventType.SEDATE
        ]
        rise_at = [
            i for i, e in enumerate(events)
            if e.type is EventType.THRESHOLD_CROSS
            and (e.data or {}).get("threshold") == "upper"
            and (e.data or {}).get("direction") == "rise"
        ]
        assert len(rise_at) == len(sedate_at)
        for rise, sedate in zip(rise_at, sedate_at, strict=True):
            assert rise < sedate
            assert events[rise].cycle == events[sedate].cycle

    def test_pinned_sequence(self, canonical):
        """The canonical run's narrative, cycle for cycle.

        These numbers are a determinism contract: the simulation is a pure
        function of its config, so any drift here means the physics or the
        controller changed, not the telemetry.
        """
        session, result = canonical
        events = session.events()
        story = [e for e in events if e.type in NARRATIVE_TYPES]
        assert [e.type for e in story[:4]] == [
            EventType.THRESHOLD_CROSS,
            EventType.SEDATE,
            EventType.THRESHOLD_CROSS,
            EventType.RELEASE,
        ]
        assert story[0].cycle == 1740 and story[1].cycle == 1740
        assert story[3].cycle == 1944
        episodes = sedation_episodes(events)
        assert len(episodes) == 7 == result.sedations
        assert all(e["thread"] == 1 and e["block"] == INT_RF
                   for e in episodes)
        assert [e["sedate_cycle"] for e in episodes] == [
            1740, 2544, 3564, 4476, 5436, 6396, 7320,
        ]

    def test_sedation_targets_the_attacker(self, canonical):
        session, _ = canonical
        for event in session.events():
            if event.type is EventType.SEDATE:
                assert event.thread == 1  # variant2, the flooding thread
                assert (event.data or {}).get("ewma", 0) > 0

    def test_summary_reconstructs_story_from_log_alone(
        self, canonical, tmp_path
    ):
        session, _ = canonical
        path = tmp_path / "log.jsonl"
        write_events(session.events(), path)
        report = summarize(load_events(path))
        assert "sedation episodes:" in report
        assert "thread 1 at int_rf" in report
        assert "upper rise" in report and "release" in report

    def test_summary_batch_section(self, canonical):
        session, _ = canonical
        counters = {
            "runner.batch_groups": 2,
            "runner.batch_lanes": 12,
            "runner.batch_completed": 12,
            "runner.batch_cohorts": 5,
            "runner.batch_splits": 3,
        }
        report = summarize(session.events(), batch_counters=counters)
        assert "batch execution:" in report
        assert "12 lanes in 2 lock-step groups -> 5 cohorts" in report
        assert "(3 divergence splits)" in report
        assert "retention 100%: 12 lanes completed in-batch" in report
        # No batch activity (or no counters at all): section omitted.
        assert "batch execution:" not in summarize(session.events())
        assert batch_narrative({}) == []


class TestMetricsSnapshot:
    def test_gauges_match_thread_stats(self, canonical):
        session, result = canonical
        snap = result.telemetry
        assert snap == session.snapshot()
        for stats in result.threads:
            key = f"duty_cycle.t{stats.thread}"
            assert snap["gauges"][key] == pytest.approx(
                stats.normal_fraction
            )
            assert snap["gauges"][f"sedated_fraction.t{stats.thread}"] == (
                pytest.approx(stats.sedated_fraction)
            )
        assert snap["gauges"]["peak_temperature_k"] == (
            result.peak_temperature_k
        )

    def test_sedation_histogram_counts_episodes(self, canonical):
        session, result = canonical
        hist = result.telemetry["histograms"]["sedation_cycles"]
        assert hist["count"] == result.sedations
        assert hist["min"] > 0

    def test_stall_metrics_on_stop_and_go(self, stopgo):
        session, result = stopgo
        episodes = stall_episodes(session.events())
        assert len(episodes) == result.stall_engagements
        counters = result.telemetry["counters"]
        assert counters["events.stopgo_engage"] == result.stall_engagements


class TestExactness:
    """Telemetry is observation, never perturbation."""

    def test_instrumented_run_equals_plain_run(self, canonical):
        _, instrumented = canonical
        plain = run_workloads(
            CFG.with_policy("sedation"), WORKLOADS, trace=True
        )
        assert plain == instrumented  # telemetry excluded from equality
        assert plain.trace == instrumented.trace
        assert plain.telemetry is None
        assert instrumented.telemetry is not None


class TestResultSerialization:
    def test_telemetry_survives_save_load(self, canonical, tmp_path):
        _, result = canonical
        path = tmp_path / "result.json"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.telemetry == result.telemetry
        assert loaded == result

    def test_pre_telemetry_payloads_still_load(self, canonical, tmp_path):
        from repro.sim.results import result_from_dict, result_to_dict

        _, result = canonical
        payload = result_to_dict(result)
        del payload["telemetry"]
        assert result_from_dict(payload).telemetry is None


class TestParallelCache:
    def test_fingerprint_distinguishes_telemetry(self):
        spec = RunSpec(tuple(WORKLOADS), CFG.with_policy("sedation"))
        instrumented = RunSpec(
            tuple(WORKLOADS), CFG.with_policy("sedation"), telemetry=True
        )
        assert spec_fingerprint(spec) != spec_fingerprint(instrumented)

    def test_cached_run_keeps_telemetry(self, tmp_path):
        cfg = scaled_config(
            time_scale=20_000.0, quantum_cycles=6_000
        ).with_policy("sedation")
        spec = RunSpec(tuple(WORKLOADS), cfg, telemetry=True)
        fresh = run_many([spec], jobs=1, cache_dir=tmp_path)[0]
        assert fresh.telemetry is not None
        cached = run_many([spec], jobs=1, cache_dir=tmp_path)[0]
        assert cached == fresh
        assert cached.telemetry == fresh.telemetry


class TestAnalysisPorts:
    def test_duty_cycle_from_events_matches_result(self, stopgo):
        session, result = stopgo
        assert duty_cycle_from_events(
            session.events(), result.cycles
        ) == pytest.approx(duty_cycle(result, 1))

    def test_strip_chart_from_events(self, canonical):
        session, _ = canonical
        chart = strip_chart_from_events(session.events(), width=40)
        assert "*" in chart and "K" in chart

    def test_strip_chart_rejects_sample_free_log(self, canonical):
        session, _ = canonical
        narrative_only = filter_events(
            session.events(), types=NARRATIVE_TYPES
        )
        with pytest.raises(SimulationError):
            strip_chart_from_events(narrative_only)

    def test_filter_events_window(self, canonical):
        session, _ = canonical
        window = filter_events(
            session.events(), types={EventType.SEDATE},
            since=2000, until=5000,
        )
        assert [e.cycle for e in window] == [2544, 3564, 4476]


class TestCLI:
    def test_run_events_then_summary(self, capsys, tmp_path):
        log = tmp_path / "ev.jsonl"
        code = main([
            "run", "gzip", "variant2",
            "--time-scale", "8000", "--quantum", "8000",
            "--policy", "sedation", "--events", str(log),
        ])
        assert code == 0
        assert "emitted" in capsys.readouterr().out
        assert main(["events", str(log), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "sedation episodes:" in out
        assert "narrative:" in out
        assert "sedate" in out and "release" in out

    def test_events_filters(self, capsys, tmp_path):
        log = tmp_path / "ev.jsonl"
        main([
            "run", "gzip", "variant2",
            "--time-scale", "8000", "--quantum", "8000",
            "--policy", "sedation", "--events", str(log),
        ])
        capsys.readouterr()
        assert main([
            "events", str(log), "--type", "sedate", "--limit", "2",
        ]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if "sedate" in line]
        assert len(lines) == 2
        assert "more (raise --limit)" in out

    def test_trace_from_events_and_result(self, capsys, tmp_path):
        log = tmp_path / "ev.jsonl"
        result_path = tmp_path / "res.json"
        main([
            "run", "gzip", "variant2",
            "--time-scale", "8000", "--quantum", "8000",
            "--policy", "sedation",
            "--events", str(log), "--output", str(result_path),
        ])
        capsys.readouterr()
        assert main(["trace", "--events", str(log)]) == 0
        from_events = capsys.readouterr().out
        assert main(["trace", str(result_path)]) == 0
        from_result = capsys.readouterr().out
        assert from_events == from_result
        assert main(["trace", str(result_path), "--csv"]) == 0
        assert capsys.readouterr().out.startswith("cycle,hottest_k,int_rf_k")

    def test_trace_requires_a_source(self, capsys):
        assert main(["trace"]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_telemetry_flag_prints_snapshot(self, capsys):
        code = main([
            "run", "gzip", "eon",
            "--time-scale", "8000", "--quantum", "4000", "--telemetry",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert '"counters"' in out and '"gauges"' in out
