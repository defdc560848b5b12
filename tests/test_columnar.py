"""Columnar telemetry: packed sinks, capture control, streaming reducers,
and campaign rollups.

Two contracts anchor this file:

* **losslessness** — a columnar archive reloads to the identical events,
  so re-serializing to JSONL is byte-identical to the original log (the
  round-trip golden), and the canonical 125k-style attack run packs to a
  fraction of the JSONL size;
* **summary goldens** — the streaming summary renders the stored
  ``--summary`` text (``tests/golden/summary/``) for every log of the
  6-policy × attack/benign grid, without ever holding the event list.

Regenerate the summary goldens (only when a change is meant to alter the
report) with::

    PYTHONPATH=src python tests/test_columnar.py --write
"""

import json
import os
import sys
from pathlib import Path

import pytest

from repro.analysis import duty_cycle_from_events, strip_chart_from_events
from repro.blocks import INT_RF
from repro.cli import main
from repro.config import scaled_config
from repro.errors import SimulationError
from repro.sim import ExperimentRunner, run_workloads
from repro.sim.parallel import RunSpec, run_many, spec_fingerprint
from repro.sim.rollup import (
    build_rollup,
    list_rollups,
    load_rollup,
    rollup_key,
    write_rollup,
)
from repro.telemetry import (
    CaptureConfig,
    Event,
    EventType,
    StreamingSummary,
    StreamingTrace,
    TelemetrySession,
    columnar_meta,
    load_columnar,
    load_events,
    merge_metric_snapshots,
    summarize,
    trace_rows,
    write_columnar,
    write_events,
)

CFG = scaled_config(time_scale=8000.0, quantum_cycles=8_000)
POLICIES = ("ideal", "stop_and_go", "dvfs", "ttdfs", "fetch_gating",
            "sedation")
MIXES = {"attack": ["gzip", "variant2"], "benign": ["gzip", "gzip"]}
SUMMARY_GOLDEN = Path(__file__).resolve().parent / "golden" / "summary"


def run_grid() -> dict[tuple[str, str], TelemetrySession]:
    """One instrumented run per (policy, mix) — the summary grid."""
    sessions = {}
    for policy in POLICIES:
        for mix_name, workloads in MIXES.items():
            session = TelemetrySession()
            run_workloads(
                CFG.with_policy(policy), workloads, telemetry=session
            )
            sessions[(policy, mix_name)] = session
    return sessions


def summary_golden(policy: str, mix: str) -> Path:
    return SUMMARY_GOLDEN / f"{policy}-{mix}.txt"


@pytest.fixture(scope="module")
def grid_sessions():
    return run_grid()


@pytest.fixture(scope="module")
def canonical_events(grid_sessions):
    """The canonical attack narrative's events (sedation policy)."""
    return grid_sessions[("sedation", "attack")].events()


# -- the packed format --------------------------------------------------------


class TestColumnarFormat:
    def test_round_trip_exact(self, tmp_path, canonical_events):
        path = tmp_path / "log.npz"
        count = write_columnar(canonical_events, path)
        assert count == len(canonical_events)
        assert load_columnar(path) == canonical_events

    def test_jsonl_round_trip_golden(self, tmp_path, canonical_events):
        """columnar → load → JSONL is byte-identical to direct JSONL."""
        direct = tmp_path / "direct.jsonl"
        via = tmp_path / "via.jsonl"
        write_events(canonical_events, direct)
        packed = tmp_path / "log.npz"
        write_columnar(canonical_events, packed)
        write_events(load_columnar(packed), via)
        assert direct.read_bytes() == via.read_bytes()

    def test_compression_beats_jsonl_four_to_one(self, tmp_path):
        """The acceptance gate: canonical attack run in ≤25% of JSONL."""
        session = TelemetrySession()
        run_workloads(
            scaled_config(time_scale=4000.0, quantum_cycles=125_000)
            .with_policy("sedation"),
            ["gzip", "variant2"],
            telemetry=session,
        )
        events = session.events()
        jsonl = tmp_path / "log.jsonl"
        packed = tmp_path / "log.npz"
        write_events(events, jsonl)
        write_columnar(events, packed)
        ratio = os.path.getsize(packed) / os.path.getsize(jsonl)
        assert ratio <= 0.25, f"columnar/jsonl ratio {ratio:.3f} > 0.25"
        assert load_columnar(packed) == events

    def test_awkward_payloads_survive(self, tmp_path):
        """Schema sniffing falls back without losing a single byte."""
        events = [
            # uniform dict -> packed columns
            Event(1, EventType.SENSOR_SAMPLE, value=355.0,
                  data={"int_rf_k": 354.0}),
            # nested list -> per-type JSON blob
            Event(2, EventType.EWMA_SNAPSHOT, block=2, value=0.5,
                  data={"ewma": [0.5, 0.25]}),
            # int value -> exact int restore, not 2.0
            Event(3, EventType.DVFS_STEP, value=2,
                  data={"slowdown": 2, "mechanism": "ttdfs"}),
            # key order differs from the first SEDATE -> JSON fallback
            Event(4, EventType.SEDATE, thread=0, block=3, value=356.0,
                  data={"a": 1, "b": 2}),
            Event(5, EventType.SEDATE, thread=1, block=3, value=356.0,
                  data={"b": 2, "a": 1}),
            # unpackable value type -> overflow blob
            Event(6, EventType.IDLE_SKIP, value=2**60),
            # empty data dict -> JSON fallback, still present on reload
            Event(7, EventType.RELEASE, thread=0, block=3, data={}),
        ]
        path = tmp_path / "odd.npz"
        write_columnar(events, path)
        back = load_columnar(path)
        assert back == events
        assert type(back[2].value) is int
        # and the JSONL golden still holds for the odd shapes
        assert [json.dumps(e.to_dict(), sort_keys=True) for e in back] == [
            json.dumps(e.to_dict(), sort_keys=True) for e in events
        ]

    def test_meta_records_ring_and_capture(self, tmp_path):
        path = tmp_path / "log.npz"
        session = TelemetrySession(
            capacity=4,
            columnar_path=path,
            capture=CaptureConfig.parse(["sensor_sample:2"]),
        )
        for cycle in range(10):
            session.emit(EventType.SENSOR_SAMPLE, cycle, value=350.0)
        session.close()
        meta = columnar_meta(path)
        ring = meta["ring"]
        assert ring["capacity"] == 4
        assert ring["suppressed"] == 5
        assert ring["emitted"] == 5  # every 2nd of 10
        assert meta["capture"]["strides"] == {"sensor_sample": 2}

    def test_rejects_non_columnar_files(self, tmp_path):
        bogus = tmp_path / "bogus.npz"
        bogus.write_text("not a zip")
        with pytest.raises(SimulationError):
            load_columnar(bogus)
        with pytest.raises(SimulationError):
            columnar_meta(tmp_path / "missing.npz")


# -- capture control ----------------------------------------------------------


class TestCaptureConfig:
    def test_capture_never_changes_measurement(self):
        """Thinned recording, identical metrics — the core contract."""
        full = TelemetrySession()
        thin = TelemetrySession(
            capture=CaptureConfig.parse(["sedate", "release"])
        )
        for session in (full, thin):
            run_workloads(
                CFG.with_policy("sedation"), MIXES["attack"],
                telemetry=session,
            )
        full_snap, thin_snap = full.snapshot(), thin.snapshot()
        assert thin_snap["counters"] == full_snap["counters"]
        assert thin_snap["histograms"] == full_snap["histograms"]
        # Only sedations/releases were recorded...
        recorded = {e.type for e in thin.events()}
        assert recorded <= {EventType.SEDATE, EventType.RELEASE}
        # ...and the thinning is accounted, not silent.
        assert thin_snap["events"]["suppressed"] == thin.suppressed > 0
        assert "suppressed" not in full_snap["events"]

    def test_stride_keeps_first_then_every_nth(self):
        session = TelemetrySession(
            capture=CaptureConfig(strides=((EventType.SENSOR_SAMPLE, 4),))
        )
        for cycle in range(10):
            session.emit(EventType.SENSOR_SAMPLE, cycle, value=350.0)
        session.emit(EventType.SEDATE, 99, thread=0, block=INT_RF)
        cycles = [e.cycle for e in session.events()]
        assert cycles == [0, 4, 8, 99]  # non-strided channels untouched

    def test_parse_rejects_junk(self):
        with pytest.raises(SimulationError):
            CaptureConfig.parse(["not_a_channel"])
        with pytest.raises(SimulationError):
            CaptureConfig.parse(["sedate:zero"])
        with pytest.raises(SimulationError):
            CaptureConfig(strides=((EventType.SEDATE, 0),))

    def test_default_config_records_everything(self):
        plain = TelemetrySession()
        configured = TelemetrySession(capture=CaptureConfig())
        for session in (plain, configured):
            session.emit(EventType.SEDATE, 1, thread=0, block=INT_RF)
        assert plain.events() == configured.events()
        assert configured.suppressed == 0


# -- streaming reducers -------------------------------------------------------


class TestStreamingEquivalence:
    def test_summary_grid_byte_identical(self, grid_sessions):
        """6 policies × both mixes: streamed == the stored ``--summary``
        text, byte for byte (including the batch-counter section being
        absent)."""
        for (policy, mix), session in grid_sessions.items():
            reducer = StreamingSummary()
            reducer.feed_all(iter(session.events()))
            golden = summary_golden(policy, mix).read_text()
            assert reducer.render() + "\n" == golden, (policy, mix)

    def test_summary_streams_from_columnar_archive(
        self, tmp_path, canonical_events
    ):
        from repro.telemetry import read_columnar

        path = tmp_path / "log.npz"
        write_columnar(canonical_events, path)
        reducer = StreamingSummary()
        for event in read_columnar(path):
            reducer.feed(event)
        golden = summary_golden("sedation", "attack").read_text()
        assert reducer.render() + "\n" == golden

    def test_duty_cycle_fold_matches_result(self, grid_sessions):
        session = grid_sessions[("stop_and_go", "attack")]
        from repro.analysis import duty_cycle

        result = run_workloads(
            CFG.with_policy("stop_and_go"), MIXES["attack"]
        )
        streamed = duty_cycle_from_events(
            iter(session.events()), result.cycles
        )
        assert streamed == pytest.approx(duty_cycle(result, 1))

    def test_strip_chart_unbounded_matches_rows(self, canonical_events):
        assert strip_chart_from_events(
            iter(canonical_events)
        ) == strip_chart_from_events(canonical_events)

    def test_streaming_trace_bounds_memory(self):
        reducer = StreamingTrace(max_rows=16)
        for cycle in range(10_000):
            reducer.feed(Event(cycle, EventType.SENSOR_SAMPLE,
                               value=350.0, data={"int_rf_k": 349.0}))
        rows = reducer.rows()
        assert len(rows) <= 16
        assert reducer.stride == 1024
        # retained rows stay evenly spaced from the stream's start
        assert [c for c, _, _ in rows] == list(
            range(0, 10_000, reducer.stride)
        )

    def test_streaming_trace_unbounded_is_trace_rows(self, canonical_events):
        reducer = StreamingTrace()
        for event in canonical_events:
            reducer.feed(event)
        assert reducer.rows() == trace_rows(canonical_events)


class TestRingNarration:
    def test_drops_are_narrated_from_columnar_meta(self, tmp_path):
        path = tmp_path / "log.npz"
        session = TelemetrySession(capacity=4, columnar_path=path)
        for cycle in range(10):
            session.emit(EventType.SENSOR_SAMPLE, cycle, value=350.0)
        session.close()
        reducer = StreamingSummary()
        for event in load_columnar(path):
            reducer.feed(event)
        report = reducer.render(ring=columnar_meta(path)["ring"])
        assert "ring buffer:" in report
        assert "6 of 10 emitted events dropped" in report
        assert "(ring capacity 4)" in report

    def test_clean_logs_render_identically_with_and_without_ring(
        self, canonical_events
    ):
        """A drop-free ring adds no section — summaries stay byte-stable
        across formats (JSONL carries no ring stats at all)."""
        ring = {"emitted": len(canonical_events), "dropped": 0,
                "capacity": 65_536}
        assert summarize(canonical_events, ring=ring) == summarize(
            canonical_events
        )


# -- campaign rollups ---------------------------------------------------------


def _grid_specs(cache_tag: int = 0):
    cfg = scaled_config(time_scale=8000.0, quantum_cycles=8_000,
                        seed=42 + cache_tag)
    return [
        RunSpec(workloads=("gzip", "variant2"),
                config=cfg.with_policy("sedation")),
        RunSpec(workloads=("gzip", "variant2"),
                config=cfg.with_policy("stop_and_go")),
        RunSpec(workloads=("gzip", "gzip"), config=cfg, telemetry=True),
    ]


class TestRollups:
    def test_key_ignores_order_and_duplicates(self):
        assert rollup_key(["b", "a"]) == rollup_key(["a", "b", "a"])
        assert rollup_key(["a"]) != rollup_key(["b"])

    def test_run_many_writes_rollup_and_emits_events(self, tmp_path):
        specs = _grid_specs()
        session = TelemetrySession()
        results = run_many(
            specs, jobs=1, cache_dir=tmp_path, telemetry=session
        )
        rollups = list_rollups(tmp_path)
        assert len(rollups) == 1
        payload = rollups[0]
        assert payload["runs"] == 3 and payload["failures"] == 0
        assert set(payload["policies"]) == {"sedation", "stop_and_go"}
        assert payload["fingerprints"] == sorted(
            spec_fingerprint(s) for s in specs
        )
        # merged telemetry reflects the one instrumented spec
        assert payload["telemetry"]["runs"] == 1
        # one LANE_COMPLETE per slot + the rollup event
        lanes = [e for e in session.events()
                 if e.type is EventType.LANE_COMPLETE]
        assert [e.data["lane"] for e in lanes] == [0, 1, 2]
        assert all(e.data["cycles"] == r.cycles
                   for e, r in zip(lanes, results, strict=True))
        rollup_events = [e for e in session.events()
                         if e.type is EventType.CAMPAIGN_ROLLUP]
        assert len(rollup_events) == 1
        assert rollup_events[0].data["key"] == payload["key"]

    def test_rollup_rewrites_identical_bytes_from_cache(self, tmp_path):
        specs = _grid_specs(cache_tag=1)
        run_many(specs, jobs=1, cache_dir=tmp_path)
        key = list_rollups(tmp_path)[0]["key"]
        path = tmp_path / "rollups" / f"{key}.json"
        first = path.read_bytes()
        session = TelemetrySession()
        run_many(specs, jobs=1, cache_dir=tmp_path, telemetry=session)
        assert path.read_bytes() == first
        # cache-hit lanes are tagged as such
        lanes = [e for e in session.events()
                 if e.type is EventType.LANE_COMPLETE]
        assert {e.data["source"] for e in lanes} == {"cache"}

    def test_batch_lanes_carry_cohort_tags(self, tmp_path):
        specs = _grid_specs(cache_tag=2)[:2]  # one lock-step group
        session = TelemetrySession()
        run_many(specs, jobs=1, cache_dir=tmp_path, telemetry=session)
        lanes = [e for e in session.events()
                 if e.type is EventType.LANE_COMPLETE]
        assert [e.data["source"] for e in lanes] == ["batch", "batch"]
        assert all("cohort" in e.data and "cohorts" in e.data
                   for e in lanes)

    def test_failures_land_in_rollup_and_lane_events(self, tmp_path):
        specs = _grid_specs(cache_tag=3)[:1] + [
            RunSpec(workloads=("gzip", "no_such_workload"),
                    config=_grid_specs(cache_tag=3)[0].config),
        ]
        session = TelemetrySession()
        results = run_many(
            specs, jobs=1, cache_dir=tmp_path,
            raise_on_error=False, telemetry=session,
        )
        assert not results[1].ok
        payload = list_rollups(tmp_path)[0]
        assert payload["failures"] == 1 and payload["runs"] == 2
        lanes = [e for e in session.events()
                 if e.type is EventType.LANE_COMPLETE]
        assert lanes[1].data["error"] == "error"
        assert "ipc" not in lanes[1].data

    def test_resumed_campaign_writes_one_rollup_with_full_members(
        self, tmp_path
    ):
        """Interrupt mid-campaign -> no rollup; resume -> exactly one,
        covering every member fingerprint (docs/robustness.md)."""
        from repro.faults import FaultPlan, WorkerFaultPlan
        from repro.sim.durable import derive_campaign_id, resume_campaign, \
            run_durable

        specs = _grid_specs(cache_tag=4)
        # interrupt fires once per process per fingerprint, mid-campaign
        specs[1] = RunSpec(
            workloads=specs[1].workloads,
            config=specs[1].config.with_faults(
                FaultPlan(worker=WorkerFaultPlan(interrupt_attempts=1))
            ),
        )
        campaign = derive_campaign_id(
            [spec_fingerprint(s) for s in specs]
        )
        partial = run_durable(
            specs, cache_dir=tmp_path, jobs=1, raise_on_error=False,
        )
        assert any(not getattr(r, "ok", True) for r in partial)
        assert list_rollups(tmp_path) == []

        session = TelemetrySession()
        resumed = resume_campaign(
            campaign, cache_dir=tmp_path, jobs=1, telemetry=session
        )
        assert all(getattr(r, "ok", True) for r in resumed)
        rollups = list_rollups(tmp_path)
        assert len(rollups) == 1
        assert rollups[0]["fingerprints"] == sorted(
            spec_fingerprint(s) for s in specs
        )
        assert rollups[0]["runs"] == 3 and rollups[0]["failures"] == 0
        rollup_events = [e for e in session.events()
                         if e.type is EventType.CAMPAIGN_ROLLUP]
        assert len(rollup_events) == 1
        resume_events = [e for e in session.events()
                         if e.type is EventType.CAMPAIGN_RESUME]
        assert len(resume_events) == 1
        assert resume_events[0].data["campaign"] == campaign

    def test_load_rollup_prefix_and_errors(self, tmp_path):
        payload = build_rollup([
            (RunSpec(workloads=("gzip", "gzip"), config=CFG), "f1", None),
        ])
        write_rollup(tmp_path, payload)
        assert load_rollup(tmp_path, payload["key"][:8]) == payload
        with pytest.raises(SimulationError):
            load_rollup(tmp_path, "zzzz")
        with pytest.raises(SimulationError):
            load_rollup(tmp_path, "")  # empty prefix never matches

    def test_experiment_runner_forwards_telemetry(self, tmp_path):
        session = TelemetrySession()
        runner = ExperimentRunner(
            CFG, cache_dir=str(tmp_path), telemetry=session
        )
        runner.pair_many(
            [("gzip", "variant2")], policies=("sedation", "stop_and_go")
        )
        lanes = [e for e in session.events()
                 if e.type is EventType.LANE_COMPLETE]
        assert len(lanes) == 2
        assert list_rollups(tmp_path)


class TestMergeSnapshots:
    def test_counters_sum_gauges_average_histograms_merge(self):
        a = {"counters": {"events.sedate": 2}, "gauges": {"peak": 350.0},
             "histograms": {"h": {"count": 2, "total": 10.0, "min": 4.0,
                                  "max": 6.0, "mean": 5.0}}}
        b = {"counters": {"events.sedate": 3}, "gauges": {"peak": 352.0},
             "histograms": {"h": {"count": 1, "total": 7.0, "min": 7.0,
                                  "max": 7.0, "mean": 7.0}}}
        merged = merge_metric_snapshots([a, b, None])
        assert merged["runs"] == 2
        assert merged["counters"] == {"events.sedate": 5}
        assert merged["gauges"] == {"peak": 351.0}
        assert merged["histograms"]["h"] == {
            "count": 3, "total": 17.0, "min": 4.0, "max": 7.0,
            "mean": 17.0 / 3,
        }

    def test_empty_is_none(self):
        assert merge_metric_snapshots([]) is None
        assert merge_metric_snapshots([None, {}]) is None


# -- CLI surface --------------------------------------------------------------


class TestCli:
    def test_run_columnar_events_summary_matches_jsonl(
        self, capsys, tmp_path
    ):
        """The acceptance gate's CLI half: identical --summary output."""
        base = ["run", "gzip", "variant2", "--policy", "sedation",
                "--time-scale", "8000", "--quantum", "8000", "--events"]
        assert main(base + [str(tmp_path / "log.jsonl")]) == 0
        assert main(base + [str(tmp_path / "log.npz")]) == 0
        capsys.readouterr()
        assert main(["events", str(tmp_path / "log.jsonl"),
                     "--summary"]) == 0
        from_jsonl = capsys.readouterr().out
        assert main(["events", str(tmp_path / "log.npz"),
                     "--summary"]) == 0
        assert capsys.readouterr().out == from_jsonl
        size_ratio = os.path.getsize(tmp_path / "log.npz") / (
            os.path.getsize(tmp_path / "log.jsonl")
        )
        assert size_ratio <= 0.25

    def test_run_channel_flag_thins_recording(self, capsys, tmp_path):
        log = tmp_path / "thin.npz"
        assert main(["run", "gzip", "variant2", "--policy", "sedation",
                     "--time-scale", "8000", "--quantum", "8000",
                     "--events", str(log),
                     "--channel", "sedate", "--channel", "release"]) == 0
        assert "capture-suppressed" in capsys.readouterr().out
        recorded = {e.type for e in load_columnar(log)}
        assert recorded <= {EventType.SEDATE, EventType.RELEASE}

    def test_events_filter_and_trace_read_columnar(self, capsys, tmp_path):
        log = tmp_path / "log.npz"
        main(["run", "gzip", "variant2", "--policy", "sedation",
              "--time-scale", "8000", "--quantum", "8000",
              "--events", str(log)])
        capsys.readouterr()
        assert main(["events", str(log), "--type", "sedate",
                     "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "sedate" in out
        assert main(["trace", "--events", str(log)]) == 0

    def test_campaign_summary_lists_and_renders(self, capsys, tmp_path):
        run_many(_grid_specs(cache_tag=4), jobs=1, cache_dir=tmp_path)
        assert main(["campaign-summary", "--cache-dir", str(tmp_path)]) == 0
        listing = capsys.readouterr().out
        assert "campaign rollups" in listing and "sedation" in listing
        key = list_rollups(tmp_path)[0]["key"]
        assert main(["campaign-summary", key[:10],
                     "--cache-dir", str(tmp_path)]) == 0
        rendered = capsys.readouterr().out
        assert "3 runs" in rendered and "stop_and_go" in rendered
        assert main(["campaign-summary", key, "--json",
                     "--cache-dir", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["key"] == key

    def test_campaign_summary_errors(self, capsys, tmp_path):
        assert main(["campaign-summary", "--cache-dir",
                     str(tmp_path)]) == 0  # empty listing, not an error
        assert "no rollups" in capsys.readouterr().out
        assert main(["campaign-summary", "feed", "--cache-dir",
                     str(tmp_path)]) == 1  # unknown key -> ReproError

    def test_events_jsonl_path_still_loads(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        write_events(
            [Event(1, EventType.SEDATE, thread=0, block=INT_RF,
                   value=356.0)], log,
        )
        assert load_events(log)  # unchanged helper
        assert main(["events", str(log)]) == 0
        assert "sedate" in capsys.readouterr().out


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_columnar.py --write")
    SUMMARY_GOLDEN.mkdir(parents=True, exist_ok=True)
    for (policy, mix), session in run_grid().items():
        summary_golden(policy, mix).write_text(
            summarize(session.events()) + "\n"
        )
