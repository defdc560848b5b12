"""Hardened batch runner: retries, timeouts, crash recovery, quarantine.

Worker chaos is injected through :class:`~repro.faults.plan.WorkerFaultPlan`
on the spec's own config — deterministic per attempt number, so every
failure shape here (crash → pool break → in-process re-run, hang → timeout,
transient → retry-then-succeed) reproduces identically at any job count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import scaled_config
from repro.errors import SimulationError
from repro.faults import FaultPlan, SensorFaultPlan, WorkerFaultPlan
from repro.sim import RunFailure, RunResult, RunSpec, run_many, spec_fingerprint
from repro.sim.parallel import (
    RUNNER_METRICS,
    _backoff_seconds,
    _sweep_stale_tmp,
)


def tiny_config(policy: str = "stop_and_go", **kwargs):
    kwargs.setdefault("time_scale", 20_000.0)
    kwargs.setdefault("quantum_cycles", 3_000)
    return scaled_config(**kwargs).with_policy(policy)


def chaos_spec(workloads, **worker_kwargs):
    config = tiny_config().with_faults(
        FaultPlan(worker=WorkerFaultPlan(**worker_kwargs))
    )
    return RunSpec(tuple(workloads), config)


class TestValidation:
    def test_bad_knobs_rejected(self):
        spec = RunSpec(("gcc", "swim"), tiny_config())
        with pytest.raises(SimulationError):
            run_many([spec], retries=-1, cache_dir=None)
        with pytest.raises(SimulationError):
            run_many([spec], timeout=0.0, cache_dir=None)

    def test_backoff_is_deterministic_and_grows(self):
        assert _backoff_seconds("abc", 1) == _backoff_seconds("abc", 1)
        assert _backoff_seconds("abc", 2) > _backoff_seconds("abc", 1)
        assert _backoff_seconds("abc", 1) != _backoff_seconds("abd", 1)


class TestRetryAndTimeout:
    def test_transient_failure_retries_then_succeeds(self):
        spec = chaos_spec(("gcc", "swim"), fail_attempts=1)
        before = RUNNER_METRICS.counters.get("runner.retries", 0)
        result = run_many([spec], jobs=1, cache_dir=None, retries=1)[0]
        assert isinstance(result, RunResult) and result.cycles > 0
        assert RUNNER_METRICS.counters["runner.retries"] == before + 1

    def test_retries_exhausted_raises_by_default(self):
        spec = chaos_spec(("gcc", "swim"), fail_attempts=5)
        with pytest.raises(SimulationError, match="failed"):
            run_many([spec], jobs=1, cache_dir=None, retries=1)

    def test_hung_spec_times_out_serially(self):
        spec = chaos_spec(("gcc", "swim"), hang_attempts=5, hang_seconds=5.0)
        failure = run_many(
            [spec], jobs=1, cache_dir=None, timeout=0.2, raise_on_error=False
        )[0]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "timeout"
        assert failure.attempts == 1
        assert not failure.ok

    def test_hung_spec_times_out_in_pool_without_stalling_others(self):
        hang = chaos_spec(("gcc", "swim"), hang_attempts=5, hang_seconds=30.0)
        good = RunSpec(("gzip", "mcf"), tiny_config())
        results = run_many(
            [hang, good], jobs=2, cache_dir=None, timeout=2.0,
            raise_on_error=False,
        )
        assert isinstance(results[0], RunFailure)
        assert results[0].kind == "timeout"
        assert isinstance(results[1], RunResult)


class TestCrashRecovery:
    def test_worker_crash_falls_back_to_serial(self):
        crash = chaos_spec(("gcc", "swim"), crash_attempts=10)
        good = RunSpec(("gzip", "mcf"), tiny_config())
        before = RUNNER_METRICS.counters.get("runner.pool_breaks", 0)
        results = run_many(
            [crash, good], jobs=2, cache_dir=None, raise_on_error=False
        )
        assert RUNNER_METRICS.counters["runner.pool_breaks"] > before
        # The poisoned spec fails (in-process the crash raises FaultError);
        # every other spec still gets its result.
        assert isinstance(results[0], RunFailure)
        assert results[1] == run_many([good], jobs=1, cache_dir=None)[0]

    def test_crash_then_recover_on_retry(self):
        crash_once = chaos_spec(("gcc", "swim"), crash_attempts=1)
        good = RunSpec(("gzip", "mcf"), tiny_config())
        results = run_many([crash_once, good], jobs=2, cache_dir=None, retries=1)
        assert all(isinstance(r, RunResult) for r in results)


#: Three jobs=2 runs in a fresh interpreter, printing how many child
#: processes are alive right after each returns.
POOL_CHILD = """
import multiprocessing
from repro.config import scaled_config
from repro.sim import RunSpec, run_many

config = scaled_config(time_scale=20_000.0, quantum_cycles=3_000)
mixes = (("gcc", "swim"), ("gzip", "mcf"), ("vpr", "art"))
specs = [RunSpec(mix, config) for mix in mixes]
for _ in range(3):
    run_many(specs, jobs=2, cache_dir=None)
    print(multiprocessing.active_children())
"""


class TestPoolShutdown:
    def test_no_worker_outlives_a_normal_return(self):
        src = Path(__file__).resolve().parent.parent / "src"
        child = subprocess.run(
            [sys.executable, "-c", POOL_CHILD],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=300, check=True,
        )
        assert child.stdout.split("\n")[:3] == ["[]"] * 3
        assert "Exception ignored" not in child.stderr


class TestPartialResults:
    def test_failure_slots_are_index_aligned(self):
        good_a = RunSpec(("gcc", "swim"), tiny_config())
        bad = chaos_spec(("gzip", "mcf"), fail_attempts=5)
        good_b = RunSpec(("vpr", "art"), tiny_config())
        results = run_many(
            [good_a, bad, good_b], jobs=1, cache_dir=None, raise_on_error=False
        )
        assert isinstance(results[0], RunResult)
        assert isinstance(results[1], RunFailure)
        assert results[1].workloads == ("gzip", "mcf")
        assert results[1].fingerprint == spec_fingerprint(bad)
        assert isinstance(results[2], RunResult)

    def test_raise_names_the_failed_specs(self):
        bad = chaos_spec(("gzip", "mcf"), fail_attempts=5)
        with pytest.raises(SimulationError, match=r"gzip\+mcf.*error"):
            run_many([bad], jobs=1, cache_dir=None)

    def test_failures_are_never_cached(self, tmp_path):
        bad = chaos_spec(("gzip", "mcf"), fail_attempts=5)
        run_many([bad], jobs=1, cache_dir=tmp_path, raise_on_error=False)
        assert list(tmp_path.glob("*.json")) == []


class TestCacheHygiene:
    def test_corrupt_entry_is_quarantined_and_rerun(self, tmp_path):
        spec = RunSpec(("gcc", "swim"), tiny_config())
        key = spec_fingerprint(spec)
        (tmp_path / f"{key}.json").write_text("{not json")
        before = RUNNER_METRICS.counters.get("cache.quarantined.unreadable", 0)
        result = run_many([spec], jobs=1, cache_dir=tmp_path)[0]
        assert result.cycles > 0
        quarantined = tmp_path / "quarantine" / f"{key}.json"
        assert quarantined.read_text() == "{not json"
        assert (
            RUNNER_METRICS.counters["cache.quarantined.unreadable"]
            == before + 1
        )
        # The re-run published a fresh, loadable entry in the old slot.
        assert run_many([spec], jobs=1, cache_dir=tmp_path)[0] == result

    def test_fingerprint_mismatch_is_quarantined(self, tmp_path):
        spec = RunSpec(("gcc", "swim"), tiny_config())
        run_many([spec], jobs=1, cache_dir=tmp_path)
        key = spec_fingerprint(spec)
        entry = tmp_path / f"{key}.json"
        payload = json.loads(entry.read_text())
        payload["fingerprint"] = "0" * 64
        entry.write_text(json.dumps(payload))
        run_many([spec], jobs=1, cache_dir=tmp_path)
        assert (tmp_path / "quarantine" / f"{key}.json").exists()

    def test_bad_shape_is_quarantined(self, tmp_path):
        spec = RunSpec(("gcc", "swim"), tiny_config())
        key = spec_fingerprint(spec)
        (tmp_path / f"{key}.json").write_text(
            json.dumps({"fingerprint": key, "kind": "run", "result": {}})
        )
        before = RUNNER_METRICS.counters.get("cache.quarantined.bad_shape", 0)
        run_many([spec], jobs=1, cache_dir=tmp_path)
        assert (
            RUNNER_METRICS.counters["cache.quarantined.bad_shape"]
            == before + 1
        )

    def test_stale_tmp_swept_live_tmp_kept(self, tmp_path):
        dead = tmp_path / "aaaa.json.999999.tmp"
        dead.write_text("partial")
        live = tmp_path / f"bbbb.json.{os.getpid()}.tmp"
        live.write_text("in flight")
        unparsable = tmp_path / "cccc.json.notapid.tmp"
        unparsable.write_text("?")
        assert _sweep_stale_tmp(tmp_path) == 1
        assert not dead.exists()
        assert live.exists() and unparsable.exists()


class TestFaultedRunsThroughTheRunner:
    def faulted_spec(self):
        config = tiny_config("sedation").with_faults(
            FaultPlan(seed=9, sensor=SensorFaultPlan(mode="dropout", rate=0.2))
        )
        return RunSpec(("gzip", "variant2"), config)

    def test_cold_warm_and_parallel_byte_identity(self, tmp_path):
        spec = self.faulted_spec()
        cold = run_many([spec], jobs=1, cache_dir=tmp_path)[0]
        warm = run_many([spec], jobs=1, cache_dir=tmp_path)[0]
        parallel = run_many([spec, spec], jobs=2, cache_dir=None)
        assert cold == warm == parallel[0] == parallel[1]

    def test_fault_plan_separates_cache_entries(self, tmp_path):
        clean = RunSpec(("gzip", "variant2"), tiny_config("sedation"))
        faulted = self.faulted_spec()
        results = run_many([clean, faulted], jobs=1, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 2
        assert results[0] != results[1]


class TestGracefulInterrupt:
    """Operator interrupts drain to partial results instead of unwinding.

    The interrupt is injected via ``WorkerFaultPlan.interrupt_attempts``,
    which fires once per process per fingerprint — so every mix here is
    distinct from the other interrupt tests in the suite.
    """

    def test_serial_interrupt_books_partial_results(self, tmp_path):
        specs = [
            RunSpec(("gcc", "gzip"), tiny_config()),
            chaos_spec(("ammp", "applu"), interrupt_attempts=1),
            RunSpec(("mcf", "art"), tiny_config()),
        ]
        before = RUNNER_METRICS.counters.get("runner.interrupts", 0)
        results = run_many(
            specs, jobs=1, cache_dir=tmp_path, batch=False,
            raise_on_error=False,
        )
        assert isinstance(results[0], RunResult)
        assert [r.kind for r in results[1:]] == ["interrupted"] * 2
        assert "operator interrupt" in results[1].error
        assert RUNNER_METRICS.counters["runner.interrupts"] == before + 1
        # work already paid for is kept (and cached); nothing half-written
        fps = [spec_fingerprint(s) for s in specs]
        assert (tmp_path / f"{fps[0]}.json").exists()
        assert not (tmp_path / f"{fps[1]}.json").exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_interrupt_reraises_after_cleanup_by_default(self, tmp_path):
        specs = [chaos_spec(("apsi", "lucas"), interrupt_attempts=1)]
        with pytest.raises(KeyboardInterrupt, match="unfinished"):
            run_many(specs, jobs=1, cache_dir=tmp_path, batch=False)
        assert not list(tmp_path.glob("*.tmp"))

    def test_pool_interrupt_drains_and_fills_every_slot(self):
        specs = [
            RunSpec(("gcc", "mcf"), tiny_config()),
            chaos_spec(("art", "swim"), interrupt_attempts=1),
            RunSpec(("vpr", "twolf"), tiny_config()),
            RunSpec(("eon", "gzip"), tiny_config()),
        ]
        before = RUNNER_METRICS.counters.get("runner.interrupts", 0)
        results = run_many(
            specs, jobs=2, cache_dir=None, batch=False, raise_on_error=False
        )
        assert len(results) == len(specs)
        failures = [r for r in results if isinstance(r, RunFailure)]
        assert failures
        assert all(r.kind == "interrupted" for r in failures)
        assert all(
            isinstance(r, (RunResult, RunFailure)) for r in results
        )
        assert RUNNER_METRICS.counters["runner.interrupts"] >= before + 1


class TestShardedBatchTier:
    """jobs=2 shards the kernel; failures stay inside their own shard.

    Two trajectory groups make two shards: the larger one (three lanes)
    runs in the calling process, the smaller one (two lanes) in a pool
    worker.  Patches are installed before ``run_many`` forks its pool, so
    workers inherit them, and they tell the two sides apart through
    ``parallel._IN_WORKER``.
    """

    def specs(self):
        base = tiny_config("ideal")
        local = [
            RunSpec(("gcc", "swim"), base.with_policy(policy))
            for policy in ("ideal", "stop_and_go", "sedation")
        ]
        remote = [
            RunSpec(("gzip", "mcf"), base.with_policy(policy))
            for policy in ("ideal", "dvfs")
        ]
        return local, remote

    def counters(self):
        return dict(RUNNER_METRICS.counters)

    def delta(self, before, name):
        return RUNNER_METRICS.counters.get(name, 0) - before.get(name, 0)

    def canonical(self, results):
        from repro.sim.durable import results_to_canonical_json

        return results_to_canonical_json(results)

    def test_worker_shard_error_sends_only_its_lanes_scalar(self, monkeypatch):
        from repro.sim import batch, parallel

        local, remote = self.specs()
        specs = local + remote
        reference = run_many(specs, jobs=1, cache_dir=None, batch=False)
        real_build_root = batch._build_root

        def build_root(*args, **kwargs):
            if parallel._IN_WORKER:
                raise RuntimeError("injected shard failure")
            return real_build_root(*args, **kwargs)

        monkeypatch.setattr(batch, "_build_root", build_root)
        session_before = self.counters()
        from repro.telemetry import EventType, TelemetrySession

        session = TelemetrySession()
        results = run_many(specs, jobs=2, cache_dir=None, telemetry=session)
        assert self.canonical(results) == self.canonical(reference)
        assert self.delta(session_before, "runner.batch_errors") == 1
        assert self.delta(session_before, "runner.batch_completed") == len(local)
        for name in ("runner.attempt_error", "runner.attempt_timeout",
                     "runner.retries", "runner.failures"):
            assert self.delta(session_before, name) == 0, name
        sources = [
            event.data["source"]
            for event in session.events()
            if event.type is EventType.LANE_COMPLETE
        ]
        assert sources[: len(local)] == ["batch"] * len(local)
        assert "batch" not in sources[len(local):]

    def test_local_shard_error_sends_only_its_lanes_scalar(self, monkeypatch):
        from repro.sim import batch, parallel
        from repro.telemetry import EventType, TelemetrySession

        local, remote = self.specs()
        specs = local + remote
        reference = run_many(specs, jobs=1, cache_dir=None, batch=False)
        real_build_root = batch._build_root

        def build_root(*args, **kwargs):
            if not parallel._IN_WORKER:
                raise RuntimeError("injected local shard failure")
            return real_build_root(*args, **kwargs)

        monkeypatch.setattr(batch, "_build_root", build_root)
        before = self.counters()
        session = TelemetrySession()
        results = run_many(specs, jobs=2, cache_dir=None, telemetry=session)
        assert self.canonical(results) == self.canonical(reference)
        assert self.delta(before, "runner.batch_errors") == 1
        assert self.delta(before, "runner.batch_completed") == len(remote)
        for name in ("runner.attempt_error", "runner.attempt_timeout",
                     "runner.retries", "runner.failures"):
            assert self.delta(before, name) == 0, name
        sources = [
            event.data["source"]
            for event in session.events()
            if event.type is EventType.LANE_COMPLETE
        ]
        assert "batch" not in sources[: len(local)]
        assert sources[len(local):] == ["batch"] * len(remote)

    def test_remote_shard_overrun_sends_only_its_lanes_scalar(
        self, monkeypatch
    ):
        import time

        from repro.sim import batch, parallel

        local, remote = self.specs()
        specs = local + remote
        timeout = 1.5
        reference = run_many(specs, jobs=1, cache_dir=None, batch=False)
        real_build_root = batch._build_root

        def build_root(*args, **kwargs):
            if parallel._IN_WORKER:
                # Past the shard's timeout × lanes, measured from when the
                # caller starts waiting, so it cannot finish in time.
                time.sleep(timeout * len(remote) + 2.0)
            return real_build_root(*args, **kwargs)

        monkeypatch.setattr(batch, "_build_root", build_root)
        before = self.counters()
        results = run_many(specs, jobs=2, cache_dir=None, timeout=timeout)
        assert self.canonical(results) == self.canonical(reference)
        assert self.delta(before, "runner.batch_errors") == 1
        assert self.delta(before, "runner.batch_completed") == len(local)
        for name in ("runner.attempt_error", "runner.attempt_timeout",
                     "runner.retries", "runner.failures"):
            assert self.delta(before, name) == 0, name

    def test_every_remote_shard_is_submitted_before_the_kernel_runs(
        self, monkeypatch
    ):
        from repro.sim import parallel

        local, remote = self.specs()
        short = tiny_config("ideal", quantum_cycles=2_000)
        # A second batch fingerprint (another quantum): a second group.
        second = [
            RunSpec(spec.workloads, short.with_policy(spec.config.dtm_policy))
            for spec in local + remote
        ]
        specs = local + remote + second
        log: list[str] = []
        real_submit = parallel._Pool.submit
        real_lockstep = parallel.simulate_lockstep

        def submit(pool, fn, *args, **kwargs):
            log.append("chunk" if fn is parallel._execute_chunk else "shard")
            return real_submit(pool, fn, *args, **kwargs)

        def lockstep(*args, **kwargs):
            if not parallel._IN_WORKER:
                log.append("kernel")
            return real_lockstep(*args, **kwargs)

        monkeypatch.setattr(parallel._Pool, "submit", submit)
        monkeypatch.setattr(parallel, "simulate_lockstep", lockstep)
        before = self.counters()
        results = run_many(specs, jobs=2, cache_dir=None)
        assert self.delta(before, "runner.batch_groups") == 2
        assert self.delta(before, "runner.batch_completed") == len(specs)
        assert log.count("kernel") == 2
        first_kernel = log.index("kernel")
        assert log[:first_kernel].count("shard") == 2
        assert "shard" not in log[first_kernel:]
        reference = run_many(specs, jobs=1, cache_dir=None, batch=False)
        assert self.canonical(results) == self.canonical(reference)

    def test_pool_break_beside_a_batch_group_keeps_batch_lanes(self):
        local, remote = self.specs()
        crash = chaos_spec(("ammp", "lucas"), crash_attempts=1)
        specs = local + remote + [crash]
        before = self.counters()
        results = run_many(specs, jobs=2, cache_dir=None, retries=1)
        assert self.delta(before, "runner.pool_breaks") >= 1
        # A lost shard re-runs; it is never booked as a batch error.
        assert self.delta(before, "runner.batch_errors") == 0
        assert self.delta(before, "runner.batch_completed") == len(local + remote)
        reference = run_many(specs, jobs=1, cache_dir=None, batch=False, retries=1)
        assert self.canonical(results) == self.canonical(reference)

    def test_interrupt_in_local_shard_drains_and_books(
        self, tmp_path, monkeypatch
    ):
        import multiprocessing
        import time

        from repro.sim import batch, parallel

        local, remote = self.specs()
        scalar = RunSpec(("vpr", "twolf"), tiny_config())  # unique: pool tier
        specs = local + remote + [scalar]
        real_build_root = batch._build_root

        def build_root(*args, **kwargs):
            if not parallel._IN_WORKER:
                # Long enough for the pool to start the remote shard and
                # the scalar spec, so the drain (not a cancel) meets them.
                time.sleep(1.0)
                raise KeyboardInterrupt("injected interrupt in the local shard")
            return real_build_root(*args, **kwargs)

        monkeypatch.setattr(batch, "_build_root", build_root)
        before = self.counters()
        results = run_many(
            specs, jobs=2, cache_dir=tmp_path, raise_on_error=False
        )
        assert self.delta(before, "runner.interrupts") == 1
        assert len(results) == len(specs)
        for result in results[: len(local)]:
            assert isinstance(result, RunFailure) and result.kind == "interrupted"
        # The remote shard and the scalar spec finished within the drain
        # grace: their results are kept and cached.
        for spec, result in zip(specs[len(local):], results[len(local):],
                                strict=True):
            assert isinstance(result, RunResult)
            assert (tmp_path / f"{spec_fingerprint(spec)}.json").exists()
        for spec in local:
            assert not (tmp_path / f"{spec_fingerprint(spec)}.json").exists()
        assert not list(tmp_path.glob("*.tmp"))
        deadline = time.monotonic() + parallel.DRAIN_GRACE_S + 5.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []


class TestOneRoundLoop:
    """Every tier is one round loop; a round makes a pool only when a worker
    has work (``jobs >= 2`` and two or more specs or a remote shard), and
    every scalar attempt, in a worker or in-process, follows one discipline.
    """

    def pools(self, monkeypatch):
        """Record the worker count of every ``_Pool`` the run makes."""
        from repro.sim import parallel

        made: list[int] = []
        real_init = parallel._Pool.__init__

        def init(pool, workers):
            made.append(workers)
            real_init(pool, workers)

        monkeypatch.setattr(parallel._Pool, "__init__", init)
        return made

    def sources(self, specs, **kwargs):
        from repro.telemetry import EventType, TelemetrySession

        session = TelemetrySession()
        results = run_many(specs, cache_dir=None, telemetry=session, **kwargs)
        sources = [
            event.data["source"]
            for event in session.events()
            if event.type is EventType.LANE_COMPLETE
        ]
        return results, sources

    def canonical(self, results):
        from repro.sim.durable import results_to_canonical_json

        return results_to_canonical_json(results)

    def test_a_local_shard_and_one_scalar_spec_make_no_pool(self, monkeypatch):
        base = tiny_config("ideal")
        # One trajectory: the group is one shard, and it runs here.
        group = [
            RunSpec(("gcc", "swim"), base.with_policy(policy))
            for policy in ("ideal", "stop_and_go", "sedation")
        ]
        scalar = RunSpec(("vpr", "twolf"), tiny_config())
        made = self.pools(monkeypatch)
        results, sources = self.sources(group + [scalar], jobs=2)
        assert made == []
        assert sources == ["batch"] * len(group) + ["serial"]
        reference = run_many(group + [scalar], jobs=1, cache_dir=None, batch=False)
        assert self.canonical(results) == self.canonical(reference)

    def test_a_lone_retry_runs_in_process(self, monkeypatch):
        flaky = chaos_spec(("gcc", "swim"), fail_attempts=1)
        good = RunSpec(("gzip", "mcf"), tiny_config())
        made = self.pools(monkeypatch)
        results, sources = self.sources([flaky, good], jobs=2, retries=1)
        assert made == [2]
        assert sources == ["serial", "pool"]
        assert all(isinstance(r, RunResult) for r in results)

    def test_re_runs_after_a_pool_break_are_serial(self):
        crash_once = chaos_spec(("art", "mcf"), crash_attempts=1)
        good = RunSpec(("gzip", "vpr"), tiny_config())
        before = RUNNER_METRICS.counters.get("runner.pool_breaks", 0)
        results, sources = self.sources([crash_once, good], jobs=2, retries=1)
        assert RUNNER_METRICS.counters["runner.pool_breaks"] == before + 1
        # The crashed chunk is waited on first, so nothing was settled from
        # the pool before it broke: both specs re-run here.
        assert sources == ["serial", "serial"]
        reference = run_many([crash_once, good], jobs=1, cache_dir=None, retries=1)
        assert self.canonical(results) == self.canonical(reference)

    def test_one_attempt_discipline_at_any_job_count(self):
        specs = [
            chaos_spec(("gcc", "mcf"), fail_attempts=1),
            chaos_spec(("swim", "vpr"), hang_attempts=1, hang_seconds=5.0),
            RunSpec(("gzip", "art"), tiny_config()),
            chaos_spec(("ammp", "twolf"), fail_attempts=5),
        ]
        names = ("runner.attempt_error", "runner.attempt_timeout",
                 "runner.retries", "runner.failures")
        runs = {}
        for jobs in (1, 2):
            before = dict(RUNNER_METRICS.counters)
            results = run_many(
                specs, jobs=jobs, cache_dir=None, timeout=1.0, retries=1,
                raise_on_error=False,
            )
            deltas = {
                name: RUNNER_METRICS.counters.get(name, 0) - before.get(name, 0)
                for name in names
            }
            attempts = [r.attempts for r in results if isinstance(r, RunFailure)]
            runs[jobs] = (deltas, attempts, self.canonical(results))
        assert runs[1] == runs[2]
        deltas, attempts, _ = runs[1]
        assert deltas == {
            "runner.attempt_error": 3, "runner.attempt_timeout": 1,
            "runner.retries": 3, "runner.failures": 1,
        }
        assert attempts == [2]


class TestThermalBasisBeforeFork:
    """The driver solves every thermal network before the pool forks, so
    no worker calls LAPACK; a network it cannot solve fails only its spec."""

    def test_no_worker_calls_eigh(self, monkeypatch):
        """``np.linalg.eigh`` raises in any worker; the run must not notice."""
        import numpy as np

        from repro.sim import parallel
        from repro.sim.durable import results_to_canonical_json
        from repro.telemetry import EventType, TelemetrySession
        from repro.thermal import rcmodel

        base = tiny_config("ideal")
        specs = [
            # a local shard of three lanes and a remote one of two
            *(RunSpec(("gcc", "swim"), base.with_policy(policy))
              for policy in ("ideal", "stop_and_go", "sedation")),
            *(RunSpec(("gzip", "mcf"), base.with_policy(policy))
              for policy in ("ideal", "dvfs")),
            # two scalar specs, one on its own heat-sink network
            RunSpec(("gcc", "mcf"), base.with_convection_resistance(0.5)),
            RunSpec(("swim", "vpr"), base, trace=True),
        ]
        reference = run_many(specs, jobs=1, cache_dir=None)
        real_eigh = np.linalg.eigh

        def eigh(*args, **kwargs):
            if parallel._IN_WORKER:
                raise RuntimeError("a pool worker solved a thermal network")
            return real_eigh(*args, **kwargs)

        # A cold memo: only the driver's warm-up can fill it before the fork.
        monkeypatch.setattr(rcmodel, "_EIGENBASES", {})
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        before = dict(RUNNER_METRICS.counters)
        session = TelemetrySession()
        results = run_many(specs, jobs=2, cache_dir=None, telemetry=session)
        assert results_to_canonical_json(results) == results_to_canonical_json(
            reference
        )

        def delta(name):
            return RUNNER_METRICS.counters.get(name, 0) - before.get(name, 0)

        assert delta("runner.batch_pool_shards") == 1
        for name in ("runner.batch_errors", "runner.attempt_error",
                     "runner.failures"):
            assert delta(name) == 0, name
        sources = [
            event.data["source"]
            for event in session.events()
            if event.type is EventType.LANE_COMPLETE
        ]
        assert sources == ["batch"] * 5 + ["pool"] * 2
        assert len(rcmodel._EIGENBASES) == 2

    def test_a_network_that_cannot_be_solved_fails_only_its_spec(
        self, monkeypatch
    ):
        """Whatever building a spec's network raises, in the driver's
        warm-up or in its attempt, only that spec fails."""
        import numpy as np

        from repro.sim.durable import results_to_canonical_json
        from repro.thermal import rcmodel

        base = tiny_config()
        doomed = base.with_convection_resistance(0.5)
        specs = [
            RunSpec(("gcc", "swim"), base),
            RunSpec(("gzip", "mcf"), doomed),
            RunSpec(("swim", "vpr"), base),
        ]
        reference = run_many(
            [specs[0], specs[2]], jobs=1, cache_dir=None, batch=False
        )
        real_build = rcmodel.RCThermalModel._build_propagator_basis

        def build(model):
            if model.package.convection_resistance_k_per_w == 0.5:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            real_build(model)

        monkeypatch.setattr(rcmodel, "_EIGENBASES", {})
        monkeypatch.setattr(
            rcmodel.RCThermalModel, "_build_propagator_basis", build
        )
        results = run_many(specs, jobs=2, cache_dir=None, batch=False,
                           raise_on_error=False)
        failure = results[1]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "error" and "LinAlgError" in failure.error
        assert results_to_canonical_json(
            [results[0], results[2]]
        ) == results_to_canonical_json(reference)
