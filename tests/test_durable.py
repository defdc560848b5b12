"""Durable campaigns: journal, campaign lock, checkpoint/resume, drain.

Interrupts are injected deterministically through
:class:`~repro.faults.plan.WorkerFaultPlan.interrupt_attempts` (fires once
per process per spec), so every kill-mid-campaign shape here resumes and
converges in-process; the out-of-process SIGKILL scenario lives in
``tools/chaos_smoke.py``.
"""

from __future__ import annotations

import errno
import json
import os
import select
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.config import scaled_config
from repro.errors import SimulationError
from repro.faults import FaultPlan, WorkerFaultPlan
from repro.sim import (
    RunFailure,
    RunResult,
    RunSpec,
    run_many,
    spec_fingerprint,
)
from repro.sim.durable import (
    CampaignJournal,
    _DrainSupervisor,
    _encode_spec,
    cache_stats,
    derive_campaign_id,
    list_campaigns,
    quarantine_entries,
    replay,
    results_to_canonical_json,
    resume_campaign,
    run_durable,
)
from repro.sim.parallel import RUNNER_METRICS
from repro.sim.rollup import list_rollups

SRC = Path(__file__).resolve().parent.parent / "src"


def tiny_config(**kwargs):
    kwargs.setdefault("time_scale", 20_000.0)
    kwargs.setdefault("quantum_cycles", 3_000)
    return scaled_config(**kwargs)


def plain_spec(workloads, **config_kwargs):
    return RunSpec(tuple(workloads), tiny_config(**config_kwargs))


def chaos_spec(workloads, **worker_kwargs):
    config = tiny_config().with_faults(
        FaultPlan(worker=WorkerFaultPlan(**worker_kwargs))
    )
    return RunSpec(tuple(workloads), config)


def campaign_id_of(specs):
    return derive_campaign_id([spec_fingerprint(s) for s in specs])


def kinds(results):
    return [r.kind if isinstance(r, RunFailure) else "ok" for r in results]


class TestJournal:
    def test_append_and_replay_round_trip(self, tmp_path):
        journal = CampaignJournal(tmp_path, "cafe0000")
        journal.append({"type": "failed", "fingerprint": "f1"})
        journal.append({"type": "completed", "fingerprint": "f1"})
        records = journal.records()
        assert [r["type"] for r in records] == ["failed", "completed"]
        assert [r["seq"] for r in records] == [0, 1]
        # a second journal instance continues the sequence
        again = CampaignJournal(tmp_path, "cafe0000")
        again.append({"type": "seal", "status": "complete"})
        assert [r["seq"] for r in again.records()] == [0, 1, 2]

    def test_unreadable_record_is_skipped_and_counted(self, tmp_path):
        journal = CampaignJournal(tmp_path, "cafe0001")
        journal.append({"type": "completed", "fingerprint": "f1"})
        (journal.root / f"00000001.{os.getpid()}.json").write_text("{torn")
        before = RUNNER_METRICS.counters.get("journal.unreadable_records", 0)
        assert [r["type"] for r in journal.records()] == ["completed"]
        assert (
            RUNNER_METRICS.counters["journal.unreadable_records"]
            == before + 1
        )

    def test_replay_without_submit_is_loud(self, tmp_path):
        journal = CampaignJournal(tmp_path, "cafe0002")
        journal.append({"type": "completed", "fingerprint": "f1"})
        with pytest.raises(SimulationError, match="no submit record"):
            replay(journal)

    def test_older_grammar_journal_resumes_like_run_many(self, tmp_path):
        # Older builds also journaled leases, reclaims, a circuit breaker
        # per workload mix + policy, and the siblings it skipped.  Replay
        # ignores those records: the skipped sibling runs, the failure
        # stays settled.
        specs = [
            chaos_spec(("gzip", "gzip"), fail_attempts=5),
            plain_spec(("gzip", "gzip"), seed=7),
            plain_spec(("gcc", "swim")),
        ]
        keys = [spec_fingerprint(spec) for spec in specs]
        campaign = derive_campaign_id(keys)
        family = "gzip+gzip@" + specs[0].config.dtm_policy
        dead = 2 ** 22 + 1  # beyond any default pid_max
        journal = CampaignJournal(tmp_path, campaign)
        for record in [
            {"type": "submit", "campaign": campaign, "schema": 1,
             "manifest": keys,
             "specs": {key: _encode_spec(spec)
                       for key, spec in zip(keys, specs)},
             "options": {"timeout": None, "retries": 0, "batch": True}},
            *({"type": "lease", "fingerprint": key, "pid": dead}
              for key in keys),
            {"type": "failed", "fingerprint": keys[0], "kind": "error",
             "error": "FaultError: injected transient failure (attempt 0)",
             "attempts": 1, "workloads": ["gzip", "gzip"]},
            {"type": "breaker", "family": family, "state": "open",
             "fingerprint": keys[0], "attempts": 1},
            {"type": "seal", "status": "resumable", "completed": 0,
             "failed": 1, "skipped": 0, "interrupted": 2},
            {"type": "reclaim", "fingerprint": keys[1], "pid": dead},
            {"type": "reclaim", "fingerprint": keys[2], "pid": dead},
            {"type": "resume", "campaign": campaign, "pid": dead,
             "completed": 0, "pending": 2, "reclaimed": 2, "force": False},
            {"type": "skipped", "fingerprint": keys[1], "family": family},
            {"type": "lease", "fingerprint": keys[2], "pid": dead},
        ]:
            journal.append(record)

        resumed = resume_campaign(
            campaign, cache_dir=tmp_path, jobs=1, raise_on_error=False
        )
        assert kinds(resumed) == ["error", "ok", "ok"]
        clean = run_many(specs, jobs=1, cache_dir=None, raise_on_error=False)
        assert results_to_canonical_json(resumed) == (
            results_to_canonical_json(clean)
        )
        row = list_campaigns(tmp_path)[0]
        assert (row["completed"], row["failed"]) == (2, 1)
        assert row["sealed"] == "complete"

    def test_campaign_id_is_deterministic(self):
        specs = [plain_spec(("gcc", "swim")), plain_spec(("gzip", "mcf"))]
        assert campaign_id_of(specs) == campaign_id_of(specs)
        assert campaign_id_of(specs) != campaign_id_of(specs[::-1])
        assert len(campaign_id_of(specs)) == 16


class TestRunDurable:
    def test_complete_campaign_matches_run_many(self, tmp_path):
        specs = [plain_spec(("gcc", "swim")), plain_spec(("gzip", "mcf"))]
        durable = run_durable(specs, cache_dir=tmp_path / "a", jobs=1)
        plain = run_many(specs, jobs=1, cache_dir=tmp_path / "b")
        assert results_to_canonical_json(durable) == (
            results_to_canonical_json(plain)
        )
        rows = list_campaigns(tmp_path / "a")
        assert len(rows) == 1 and rows[0]["sealed"] == "complete"
        assert rows[0]["completed"] == 2

    def test_rerun_with_existing_journal_is_an_implicit_resume(
        self, tmp_path
    ):
        specs = [plain_spec(("gcc", "swim")), plain_spec(("gzip", "mcf"))]
        first = run_durable(specs, cache_dir=tmp_path, jobs=1)
        again = run_durable(specs, cache_dir=tmp_path, jobs=1)
        assert results_to_canonical_json(first) == (
            results_to_canonical_json(again)
        )

    def test_different_manifest_same_id_is_refused(self, tmp_path):
        specs = [plain_spec(("gcc", "swim"))]
        run_durable(specs, campaign_id="pinned", cache_dir=tmp_path, jobs=1)
        with pytest.raises(SimulationError, match="different manifest"):
            run_durable(
                [plain_spec(("gzip", "mcf"))],
                campaign_id="pinned", cache_dir=tmp_path, jobs=1,
            )

    def test_needs_a_cache_dir(self):
        with pytest.raises(SimulationError, match="cache_dir"):
            run_durable([plain_spec(("gcc", "swim"))], cache_dir=None)

    def test_lane_events_name_the_real_tier(self, tmp_path):
        from repro.telemetry import EventType, TelemetrySession

        specs = [
            RunSpec(("gcc", "swim"), tiny_config().with_policy(policy))
            for policy in ("ideal", "sedation")
        ] + [plain_spec(("vpr", "art"))]

        def sources(session):
            return [
                event.data["source"]
                for event in session.events()
                if event.type is EventType.LANE_COMPLETE
            ]

        first = TelemetrySession()
        run_durable(specs, cache_dir=tmp_path, jobs=1, telemetry=first)
        assert sources(first) == ["batch", "batch", "serial"]
        again = TelemetrySession()
        resume_campaign(
            campaign_id_of(specs), cache_dir=tmp_path, jobs=1, telemetry=again
        )
        assert sources(again) == ["journal"] * 3

    def test_duplicate_specs_share_one_execution(self, tmp_path):
        spec = plain_spec(("gcc", "swim"))
        results = run_durable([spec, spec], cache_dir=tmp_path, jobs=1)
        assert results[0] == results[1]
        assert list_campaigns(tmp_path)[0]["slots"] == 2
        assert list_campaigns(tmp_path)[0]["specs"] == 1


class TestDrainAndResume:
    def test_interrupt_drains_to_resumable_then_resume_is_byte_identical(
        self, tmp_path
    ):
        specs = [
            plain_spec(("gcc", "swim")),
            chaos_spec(("gzip", "mcf"), interrupt_attempts=1),
            plain_spec(("vpr", "art")),
        ]
        campaign = campaign_id_of(specs)
        partial = run_durable(
            specs, cache_dir=tmp_path / "k", jobs=1, raise_on_error=False,
        )
        assert kinds(partial) == ["ok", "interrupted", "interrupted"]
        assert list_campaigns(tmp_path / "k")[0]["sealed"] == "resumable"
        assert list_rollups(tmp_path / "k") == []

        resumed = resume_campaign(
            campaign, cache_dir=tmp_path / "k", jobs=1, raise_on_error=False
        )
        assert kinds(resumed) == ["ok", "ok", "ok"]
        # hook already fired for these fingerprints in this process, so the
        # clean run really is uninterrupted
        clean = run_durable(
            specs, cache_dir=tmp_path / "c", jobs=1, raise_on_error=False
        )
        assert results_to_canonical_json(resumed) == (
            results_to_canonical_json(clean)
        )

    def test_interrupted_seal_raises_keyboard_interrupt_by_default(
        self, tmp_path
    ):
        specs = [chaos_spec(("gcc", "swim"), interrupt_attempts=1)]
        with pytest.raises(KeyboardInterrupt):
            run_durable(specs, cache_dir=tmp_path, jobs=1)
        assert list_campaigns(tmp_path)[0]["sealed"] == "resumable"
        drained = RUNNER_METRICS.counters.get("runner.campaign_drained", 0)
        assert drained >= 1

    def test_resume_verifies_cache_and_redispatches_divergence(
        self, tmp_path
    ):
        specs = [plain_spec(("gcc", "swim")), plain_spec(("gzip", "mcf"))]
        campaign = campaign_id_of(specs)
        first = run_durable(specs, cache_dir=tmp_path, jobs=1)
        # corrupt one completed entry behind the journal's back
        key = spec_fingerprint(specs[0])
        (tmp_path / f"{key}.json").write_text("{torn")
        before = RUNNER_METRICS.counters.get(
            "runner.campaign_reverify_missing", 0
        )
        resumed = resume_campaign(campaign, cache_dir=tmp_path, jobs=1)
        assert results_to_canonical_json(first) == (
            results_to_canonical_json(resumed)
        )
        assert RUNNER_METRICS.counters[
            "runner.campaign_reverify_missing"
        ] == before + 1
        # the corrupt entry was quarantined by the checked reader
        assert (tmp_path / "quarantine" / f"{key}.json").exists()

    def test_unknown_campaign_is_loud_and_prefix_matches(self, tmp_path):
        specs = [plain_spec(("gcc", "swim"))]
        run_durable(specs, cache_dir=tmp_path, jobs=1)
        campaign = campaign_id_of(specs)
        with pytest.raises(SimulationError, match="no campaign journal"):
            resume_campaign("feedface", cache_dir=tmp_path)
        assert kinds(
            resume_campaign(campaign[:6], cache_dir=tmp_path, jobs=1)
        ) == ["ok"]


class TestFailedSpecs:
    @pytest.fixture(autouse=True)
    def fresh_interrupts(self, monkeypatch):
        # The interrupt hook fires once per process per fingerprint; the
        # test needs it to fire on its own first run.
        from repro.sim import parallel

        monkeypatch.setattr(parallel, "_INTERRUPTED_ONCE", set())

    def test_failure_stays_settled_and_force_reruns_it(self, tmp_path):
        # The failing spec and its interrupted sibling share a workload
        # mix and policy: the resume runs the sibling like a clean run.
        specs = [
            chaos_spec(("gzip", "gzip"), fail_attempts=5),
            RunSpec(
                ("gzip", "gzip"),
                tiny_config(seed=7).with_faults(
                    FaultPlan(worker=WorkerFaultPlan(interrupt_attempts=1))
                ),
            ),
            plain_spec(("gcc", "swim")),
        ]
        campaign = campaign_id_of(specs)
        first = run_durable(
            specs, cache_dir=tmp_path / "k", jobs=1, raise_on_error=False,
        )
        assert kinds(first) == ["error", "interrupted", "interrupted"]

        resumed = resume_campaign(
            campaign, cache_dir=tmp_path / "k", jobs=1, raise_on_error=False,
        )
        assert kinds(resumed) == ["error", "ok", "ok"]
        clean = run_durable(
            specs, cache_dir=tmp_path / "c", jobs=1, raise_on_error=False,
        )
        assert results_to_canonical_json(resumed) == (
            results_to_canonical_json(clean)
        )

        forced = resume_campaign(
            campaign, cache_dir=tmp_path / "k", jobs=1, raise_on_error=False,
            force=True, retries=5,
        )
        assert kinds(forced) == ["ok", "ok", "ok"]
        assert list_campaigns(tmp_path / "k")[0]["failed"] == 0


def checkpoint_specs():
    """Four scalar specs (unique trajectories: no batch tier)."""
    mixes = [("gcc", "swim"), ("gzip", "mcf"), ("vpr", "art"), ("eon", "apsi")]
    return [plain_spec(mix) for mix in mixes]


def checkpoint_child(cache_dir: str) -> None:
    """Drive a default-shaped campaign; hard-exit as the third spec starts."""
    from repro.sim import parallel

    execute = parallel._execute
    started = []

    def dying(spec):
        started.append(spec)
        if len(started) == 3:
            os._exit(17)  # no cleanup: as if the host died
        return execute(spec)

    parallel._execute = dying
    run_durable(checkpoint_specs(), cache_dir=cache_dir, jobs=1)


class TestCheckpoint:
    def test_killed_campaign_keeps_every_finished_spec(self, tmp_path):
        specs = checkpoint_specs()
        campaign = campaign_id_of(specs)
        child = subprocess.run(
            [sys.executable, __file__, "--checkpoint-child", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 17, child.stderr
        records = CampaignJournal(tmp_path, campaign).records()
        assert sum(r["type"] == "completed" for r in records) == 2
        assert len(list(tmp_path.glob("*.json"))) == 2

        verified = RUNNER_METRICS.counters.get("runner.campaign_verified", 0)
        resumed = resume_campaign(campaign, cache_dir=tmp_path, jobs=1)
        assert RUNNER_METRICS.counters["runner.campaign_verified"] == (
            verified + 2
        )
        clean = run_many(specs, jobs=1, cache_dir=None)
        assert results_to_canonical_json(resumed) == (
            results_to_canonical_json(clean)
        )


def holding_child(cache_dir: str) -> None:
    """Drive the checkpoint campaign; hold it as the second spec starts.

    Prints ``holding`` once the first spec is journaled, waits for its
    stdin to close, then hard-exits with the campaign lock still held.
    """
    from repro.sim import parallel

    execute = parallel._execute
    started = []

    def holding(spec):
        started.append(spec)
        if len(started) == 2:
            print("holding", flush=True)
            sys.stdin.read()
            os._exit(17)  # no cleanup: the kernel drops the lock
        return execute(spec)

    parallel._execute = holding
    run_durable(checkpoint_specs(), cache_dir=cache_dir, jobs=1)


class TestCampaignLock:
    def test_a_live_driver_holds_its_campaign_until_it_exits(self, tmp_path):
        specs = checkpoint_specs()
        campaign = campaign_id_of(specs)
        child = subprocess.Popen(
            [sys.executable, __file__, "--holding-child", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            ready, _, _ = select.select([child.stdout], [], [], 300)
            assert ready and child.stdout.readline() == "holding\n"
            with pytest.raises(SimulationError, match="still being driven"):
                resume_campaign(campaign, cache_dir=tmp_path, jobs=1)
            with pytest.raises(SimulationError, match="still being driven"):
                run_durable(specs, cache_dir=tmp_path, jobs=1)
        finally:
            try:
                # Closes the child's stdin: it hard-exits, lock held.
                _, stderr = child.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                child.kill()
                raise
        assert child.returncode == 17, stderr

        resumed = resume_campaign(campaign, cache_dir=tmp_path, jobs=1)
        clean = run_many(specs, jobs=1, cache_dir=None)
        assert results_to_canonical_json(resumed) == (
            results_to_canonical_json(clean)
        )
        records = CampaignJournal(tmp_path, campaign).records()
        assert {r["type"] for r in records} == {
            "submit", "completed", "resume", "seal"
        }

    @staticmethod
    def child_can_lock(journal) -> bool:
        probe = (
            "import fcntl, sys\n"
            "handle = open(sys.argv[1], 'ab')\n"
            "try:\n"
            "    fcntl.lockf(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)\n"
            "except OSError:\n"
            "    print('held')\n"
            "else:\n"
            "    print('free')\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", probe, str(journal.root / "lock")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        return child.stdout.strip() == "free"

    def test_a_second_lock_in_the_same_process_is_refused(self, tmp_path):
        journal = CampaignJournal(tmp_path, "cafe0000")
        held = journal.lock()
        try:
            with pytest.raises(SimulationError, match="still being driven"):
                CampaignJournal(tmp_path, "cafe0000").lock()
            # The refused second lock closed no descriptor of the file.
            assert not self.child_can_lock(journal)
        finally:
            held.close()
        assert self.child_can_lock(journal)
        with journal.lock():
            assert not self.child_can_lock(journal)
        journal.lock().close()

    def test_racing_threads_in_one_process_get_one_lock(self, tmp_path):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                barrier = threading.Barrier(8)
                outcomes = []

                def attempt():
                    barrier.wait(timeout=60)
                    try:
                        outcomes.append(
                            CampaignJournal(tmp_path, "cafe0000").lock()
                        )
                    except SimulationError:
                        outcomes.append(None)

                threads = [threading.Thread(target=attempt) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                held = [lock for lock in outcomes if lock is not None]
                assert len(outcomes) == 8 and len(held) == 1
                held[0].close()
        finally:
            sys.setswitchinterval(previous)


class TestDrainSupervisor:
    def test_sigterm_translates_to_keyboard_interrupt_once(self):
        supervisor = _DrainSupervisor()
        previous = signal.getsignal(signal.SIGTERM)
        supervisor.install()
        try:
            with pytest.raises(KeyboardInterrupt, match="drain requested"):
                os.kill(os.getpid(), signal.SIGTERM)
            # the handler restored the previous disposition for signal #2
            assert signal.getsignal(signal.SIGTERM) == previous
        finally:
            supervisor.uninstall()
            signal.signal(signal.SIGTERM, previous)
        assert signal.getsignal(signal.SIGTERM) == previous

    def test_interrupt_mid_campaign_seals_resumable(self, tmp_path):
        # The SIGTERM handler and the chaos interrupt hook share the
        # KeyboardInterrupt drain machinery; this pins the seal and
        # partial-result contract downstream of either entry point.  The
        # workload mix is distinct from every other interrupt test: the
        # hook fires once per process per fingerprint.
        specs = [
            plain_spec(("gcc", "swim")),
            chaos_spec(("twolf", "lucas"), interrupt_attempts=1),
        ]
        campaign = campaign_id_of(specs)
        partial = run_durable(
            specs, cache_dir=tmp_path, jobs=1, raise_on_error=False,
        )
        assert kinds(partial) == ["ok", "interrupted"]
        assert list_campaigns(tmp_path)[0]["sealed"] == "resumable"
        resumed = resume_campaign(campaign, cache_dir=tmp_path, jobs=1)
        assert kinds(resumed) == ["ok", "ok"]


def fail_cache_writes(monkeypatch, cache_dir, keys=None):
    """Make cache-entry writes under ``cache_dir`` hit ENOSPC.

    Only ``<key>.json.<pid>.tmp`` files directly in ``cache_dir`` fail (for
    ``keys``, or every key); the journal and rollups write normally.  Like
    a full disk, the tmp file is created and half-written before the error.
    """
    real = Path.write_text

    def write_text(self, data, *args, **kwargs):
        key = self.name.split(".", 1)[0]
        if (
            self.parent == Path(cache_dir)
            and self.name.endswith(".tmp")
            and (keys is None or key in keys)
        ):
            real(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device", str(self))
        return real(self, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_text)


class TestCacheWriteFailure:
    """A failed cache write costs a re-run later, never the finished work."""

    specs = [
        plain_spec(("gcc", "swim")),
        plain_spec(("gzip", "mcf")),
        plain_spec(("vpr", "art")),
    ]

    def clean_run(self):
        return results_to_canonical_json(run_many(self.specs, jobs=1, cache_dir=None))

    def test_run_many_returns_results_and_leaves_no_tmp(
        self, tmp_path, monkeypatch
    ):
        fail_cache_writes(monkeypatch, tmp_path)
        before = RUNNER_METRICS.counters.get("cache.store_failures", 0)
        results = run_many(self.specs, jobs=1, cache_dir=tmp_path)
        assert results_to_canonical_json(results) == self.clean_run()
        assert RUNNER_METRICS.counters["cache.store_failures"] == before + 3
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(tmp_path.glob("*.json")) == []

    def test_run_durable_then_resume_resimulates_exactly_the_lost_keys(
        self, tmp_path, monkeypatch
    ):
        keys = [spec_fingerprint(spec) for spec in self.specs]
        lost = {keys[0], keys[2]}
        fail_cache_writes(monkeypatch, tmp_path, lost)
        results = run_durable(self.specs, cache_dir=tmp_path, jobs=1)
        assert results_to_canonical_json(results) == self.clean_run()
        assert list(tmp_path.glob("*.tmp")) == []
        assert {path.stem for path in tmp_path.glob("*.json")} == {keys[1]}
        row = list_campaigns(tmp_path)[0]
        assert row["completed"] == 3 and row["sealed"] == "complete"

        monkeypatch.undo()  # the disk has room again
        missing = RUNNER_METRICS.counters.get(
            "runner.campaign_reverify_missing", 0
        )
        verified = RUNNER_METRICS.counters.get("runner.campaign_verified", 0)
        resumed = resume_campaign(
            campaign_id_of(self.specs), cache_dir=tmp_path, jobs=1
        )
        assert results_to_canonical_json(resumed) == self.clean_run()
        counters = RUNNER_METRICS.counters
        assert counters["runner.campaign_reverify_missing"] == missing + 2
        assert counters["runner.campaign_verified"] == verified + 1
        assert {path.stem for path in tmp_path.glob("*.json")} == set(keys)


    @pytest.mark.parametrize("entry", ["run_many", "run_durable"])
    def test_cache_dir_under_a_file_costs_only_the_stores(
        self, tmp_path, entry
    ):
        # Root ignores directory permissions, so the unwritable cache dir
        # sits under a regular file instead: every mkdir in it raises
        # NotADirectoryError.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        counters = RUNNER_METRICS.counters
        stores = counters.get("cache.store_failures", 0)
        unjournaled = counters.get("runner.campaign_unjournaled", 0)
        run = run_many if entry == "run_many" else run_durable
        results = run(self.specs, jobs=1, cache_dir=blocker / "cache")
        assert results_to_canonical_json(results) == self.clean_run()
        # One failed store per result entry, one for the rollup.
        assert counters["cache.store_failures"] == stores + len(self.specs) + 1
        assert counters.get("runner.campaign_unjournaled", 0) == unjournaled + (
            entry == "run_durable"
        )
        assert blocker.read_text() == ""


class TestCacheInspection:
    def test_cache_stats_counts_everything(self, tmp_path):
        specs = [plain_spec(("gcc", "swim")), plain_spec(("gzip", "mcf"))]
        run_durable(specs, cache_dir=tmp_path, jobs=1)
        (tmp_path / "bogus.json").write_text("{torn")
        stats = cache_stats(tmp_path)
        assert stats["entries"] == 3 and stats["unreadable"] == 1
        assert stats["format_versions"] == {"1": 2}
        assert stats["rollups"] == 1 and stats["campaigns"] == 1
        assert stats["bytes"] > 0
        assert cache_stats(tmp_path / "missing")["entries"] == 0

    def test_quarantine_reasons_are_rederived(self, tmp_path):
        spec = plain_spec(("gcc", "swim"))
        key = spec_fingerprint(spec)
        quarantine = tmp_path / "quarantine"
        quarantine.mkdir()
        (quarantine / f"{key}.json").write_text("{torn")
        (quarantine / "deadbeef.json").write_text(
            json.dumps({"fingerprint": "something_else", "kind": "run"})
        )
        (quarantine / "feedc0de.json").write_text(
            json.dumps({"fingerprint": "feedc0de", "kind": "run",
                        "result": {"format_version": 99}})
        )
        reasons = {e["file"]: e["reason"] for e in quarantine_entries(tmp_path)}
        assert reasons == {
            f"{key}.json": "unreadable",
            "deadbeef.json": "fingerprint_mismatch",
            "feedc0de.json": "bad_shape",
        }


class TestCanonicalJson:
    def test_wall_seconds_is_normalized_out(self, tmp_path):
        spec = plain_spec(("gcc", "swim"))
        first = run_many([spec], jobs=1, cache_dir=None)
        second = run_many([spec], jobs=1, cache_dir=None)
        assert isinstance(first[0], RunResult)
        assert first[0].perf.wall_seconds != second[0].perf.wall_seconds
        assert results_to_canonical_json(first) == (
            results_to_canonical_json(second)
        )

    def test_failures_canonicalize_without_error_text(self):
        failure = RunFailure(
            workloads=("gcc", "swim"), fingerprint="f1",
            kind="interrupted", error="nondeterministic detail", attempts=2,
        )
        blob = results_to_canonical_json([failure])
        assert "interrupted" in blob and "nondeterministic" not in blob


class TestCampaignCli:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_list_show_resume_and_cache(self, tmp_path, capsys):
        specs = [
            plain_spec(("gcc", "swim")),
            # distinct mix: the interrupt hook fires once per process
            # per fingerprint, and other tests burned the common mixes
            chaos_spec(("eon", "apsi"), interrupt_attempts=1),
        ]
        campaign = campaign_id_of(specs)
        run_durable(specs, cache_dir=tmp_path, jobs=1, raise_on_error=False)
        assert self.run_cli(
            "campaign", "list", "--cache-dir", str(tmp_path)
        ) == 0
        assert "resumable" in capsys.readouterr().out

        assert self.run_cli(
            "campaign", "show", campaign[:8], "--cache-dir", str(tmp_path)
        ) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["campaign"] == campaign and shown["slots"] == 2

        assert self.run_cli(
            "campaign", "resume", campaign, "--cache-dir", str(tmp_path),
            "--jobs", "1",
        ) == 0
        assert "2 of 2 slot(s) ok" in capsys.readouterr().out

        assert self.run_cli("cache", "--cache-dir", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "campaign journals" in out and "rollups" in out

        assert self.run_cli(
            "cache", "--cache-dir", str(tmp_path), "--json"
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 2 and stats["campaigns"] == 1

    def test_show_without_id_is_an_error(self, capsys):
        assert self.run_cli("campaign", "show") == 1
        assert "needs a campaign id" in capsys.readouterr().err

    def test_empty_listing(self, tmp_path, capsys):
        assert self.run_cli(
            "campaign", "list", "--cache-dir", str(tmp_path)
        ) == 0
        assert "no campaign journals" in capsys.readouterr().out


if __name__ == "__main__":
    if sys.argv[1:2] == ["--checkpoint-child"]:
        checkpoint_child(sys.argv[2])
    elif sys.argv[1:2] == ["--holding-child"]:
        holding_child(sys.argv[2])
