#!/usr/bin/env python3
"""Chaos smoke: drive the hardened batch runner through every failure shape.

One tiny campaign mixes healthy specs with a crashing spec, a hanging spec,
and a flaky-then-ok spec (all injected via
:class:`repro.faults.plan.WorkerFaultPlan`), runs it with
``raise_on_error=False`` against a cache pre-seeded with one corrupt entry,
and asserts the robustness contract of docs/robustness.md:

* failures are *reported* (index-aligned :class:`RunFailure` records with
  the right kinds), never raised;
* every healthy spec still returns its result — byte-identical to a clean
  serial run;
* the corrupt cache entry is quarantined, not silently overwritten;
* the flaky spec succeeds on retry.

A second scenario exercises the durable-campaign layer end to end
(docs/robustness.md): a child process drives a journaled campaign, the
parent SIGKILLs it mid-campaign (after at least two specs completed),
resumes the campaign via :func:`repro.sim.durable.resume_campaign` in its
own process, and asserts the merged result list is byte-identical
(canonical JSON, PerfCounters included) to an uninterrupted run of the
same campaign in a separate cache — with exactly one rollup covering the
full member set.

A third scenario repeats the kill-and-resume shape against the
**heterogeneous batch kernel**: the campaign makes two kernel calls (two
sample intervals), each mixing workload pairs and seeds (two trajectory
groups), and the child is SIGKILLed once the first call's lanes are
journaled, while the second call runs.  The resume re-dispatches the
second call's lanes through the same kernel and must still produce
results byte-identical to an uninterrupted run.  Runner metrics confirm
the resumed lanes actually went through the batch tier, not a scalar
fallback.  The scenario runs twice: at ``jobs=1``, and at ``jobs=2``,
where each kernel call is sharded by trajectory across the pool (the
kill takes the pool's workers with the driver, and the resume shards
again) — both compared with a clean ``jobs=1`` run.

A fourth scenario fills the disk: every cache-entry write of a small
journaled campaign fails with ENOSPC.  The campaign must still return
every result, the journal must still record every spec completed, and a
resume with a working cache must re-simulate and store every entry.

Exit status 0 = contract holds.  Runs in a few seconds; CI executes it on
every push (the ``chaos`` job), and it is equally useful locally:

    python tools/chaos_smoke.py
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import scaled_config  # noqa: E402
from repro.faults import FaultPlan, WorkerFaultPlan  # noqa: E402
from repro.sim import RunFailure, RunSpec, run_many  # noqa: E402
from repro.sim.parallel import RUNNER_METRICS, spec_fingerprint  # noqa: E402


def durable_specs() -> list[RunSpec]:
    """The kill-and-resume campaign: identical in parent and child.

    Slow enough (~0.2s per spec) that the parent can reliably SIGKILL the
    child mid-campaign, fast enough that the whole scenario stays within a
    smoke test's budget.
    """
    config = scaled_config(time_scale=8_000.0, quantum_cycles=12_000)
    mixes = [
        ("gcc", "swim"), ("gzip", "mcf"), ("vpr", "art"),
        ("twolf", "lucas"), ("eon", "apsi"), ("gcc", "gcc"),
    ]
    return [RunSpec(mix, config) for mix in mixes]


def durable_child(cache_dir: str) -> int:
    """Child mode: drive the campaign until killed (or done)."""
    from repro.sim.durable import run_durable

    run_durable(
        durable_specs(), cache_dir=cache_dir, jobs=1, raise_on_error=False
    )
    return 0


def _completed_records(journal_dir: Path) -> int:
    count = 0
    for path in journal_dir.glob("[0-9]*.json"):
        try:
            if '"type":"completed"' in path.read_text():
                count += 1
        except OSError:
            continue
    return count


def durable_checks() -> list[tuple[str, bool]]:
    """kill -9 mid-campaign -> resume -> byte-identical results."""
    from repro.sim.durable import (
        JOURNAL_DIR,
        derive_campaign_id,
        resume_campaign,
        results_to_canonical_json,
        run_durable,
    )

    specs = durable_specs()
    campaign = derive_campaign_id([spec_fingerprint(s) for s in specs])
    checks: list[tuple[str, bool]] = []
    with tempfile.TemporaryDirectory() as killed_dir, \
            tempfile.TemporaryDirectory() as clean_dir:
        child = subprocess.Popen(
            [sys.executable, __file__, "--durable-child", killed_dir],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        journal_dir = Path(killed_dir) / JOURNAL_DIR / campaign
        deadline = time.monotonic() + 120.0
        completed = 0
        while time.monotonic() < deadline:
            completed = _completed_records(journal_dir)
            if completed >= 2 or child.poll() is not None:
                break
            time.sleep(0.02)
        killed_midway = child.poll() is None and 2 <= completed < len(specs)
        child.send_signal(signal.SIGKILL)
        child.wait()
        checks.append(
            ("child SIGKILLed mid-campaign (some specs done, not all)",
             killed_midway)
        )

        resumed = resume_campaign(
            campaign, cache_dir=killed_dir, jobs=1, raise_on_error=False
        )
        checks.append(
            ("resumed campaign finished every slot",
             not any(isinstance(r, RunFailure) for r in resumed))
        )

        clean = run_durable(
            specs, cache_dir=clean_dir, jobs=1, raise_on_error=False
        )
        checks.append(
            ("resumed results byte-identical to an uninterrupted run",
             results_to_canonical_json(resumed)
             == results_to_canonical_json(clean))
        )

        rollups = sorted((Path(killed_dir) / "rollups").glob("*.json"))
        members = set()
        if len(rollups) == 1:
            members = set(
                json.loads(rollups[0].read_text()).get("fingerprints", [])
            )
        checks.append(
            ("exactly one rollup covering the full member set",
             len(rollups) == 1
             and members == {spec_fingerprint(s) for s in specs})
        )
        checks.append(
            ("resume accounted in runner metrics",
             RUNNER_METRICS.counters.get("runner.campaign_resumes", 0) >= 1)
        )
    return checks


def het_durable_specs() -> list[RunSpec]:
    """The heterogeneous kill-and-resume campaign: mixed pairs and seeds.

    Eight specs in two kernel calls (two sample intervals, so two batch
    fingerprints), listed call by call.  Each call holds two trajectory
    groups — ``(gcc, swim)`` at the base seed and ``(gzip, mcf)`` at seed
    99 — under two policies, and rides one heterogeneous kernel call.
    """
    first = scaled_config(time_scale=8_000.0, quantum_cycles=12_000)
    second = dataclasses.replace(
        first,
        sedation=dataclasses.replace(
            first.sedation, sample_interval=2 * first.sedation.sample_interval
        ),
    )
    specs = []
    for base in (first, second):
        reseeded = dataclasses.replace(base, seed=99)
        for policy in ("stop_and_go", "sedation"):
            specs.append(RunSpec(("gcc", "swim"), base.with_policy(policy)))
            specs.append(RunSpec(("gzip", "mcf"), reseeded.with_policy(policy)))
    return specs


def het_durable_child(cache_dir: str, jobs: int) -> int:
    """Child mode: drive the heterogeneous campaign until killed."""
    from repro.sim.durable import run_durable

    run_durable(
        het_durable_specs(), cache_dir=cache_dir, jobs=jobs,
        raise_on_error=False,
    )
    return 0


def het_durable_checks(jobs: int) -> list[tuple[str, bool]]:
    """SIGKILL during a heterogeneous kernel call -> resume -> identity.

    The child leads its own process group, so the kill also takes any
    pool workers it started (as a host crash would).
    """
    from repro.sim.durable import (
        JOURNAL_DIR,
        derive_campaign_id,
        resume_campaign,
        results_to_canonical_json,
        run_durable,
    )

    specs = het_durable_specs()
    campaign = derive_campaign_id([spec_fingerprint(s) for s in specs])
    checks: list[tuple[str, bool]] = []
    with tempfile.TemporaryDirectory() as killed_dir, \
            tempfile.TemporaryDirectory() as clean_dir:
        child = subprocess.Popen(
            [sys.executable, __file__, "--het-durable-child", killed_dir,
             str(jobs)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        journal_dir = Path(killed_dir) / JOURNAL_DIR / campaign
        deadline = time.monotonic() + 120.0
        completed = 0
        while time.monotonic() < deadline:
            completed = _completed_records(journal_dir)
            if completed >= 2 or child.poll() is not None:
                break
            time.sleep(0.02)
        killed_midway = child.poll() is None and 2 <= completed < len(specs)
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        checks.append(
            (f"jobs={jobs}: child SIGKILLed during a heterogeneous kernel call",
             killed_midway)
        )

        before = dict(RUNNER_METRICS.counters)
        resumed = resume_campaign(
            campaign, cache_dir=killed_dir, jobs=jobs, raise_on_error=False
        )

        def delta(name: str) -> int:
            return RUNNER_METRICS.counters.get(name, 0) - before.get(name, 0)

        checks.append(
            (f"jobs={jobs}: heterogeneous resume finished every slot",
             not any(isinstance(r, RunFailure) for r in resumed))
        )
        checks.append(
            (f"jobs={jobs}: resume rode the heterogeneous batch kernel",
             delta("runner.batch_lanes") >= 4
             and delta("runner.batch_trajectories") >= 2
             and delta("runner.batch_errors") == 0
             and (jobs < 2 or delta("runner.batch_pool_shards") >= 1))
        )

        clean = run_durable(
            specs, cache_dir=clean_dir, jobs=1, raise_on_error=False
        )
        checks.append(
            (f"jobs={jobs}: heterogeneous resume byte-identical to a clean "
             "jobs=1 run",
             results_to_canonical_json(resumed)
             == results_to_canonical_json(clean))
        )
    return checks


def cache_failure_checks() -> list[tuple[str, bool]]:
    """ENOSPC on every cache write -> results kept -> resume fills the cache."""
    from repro.sim.durable import (
        derive_campaign_id,
        list_campaigns,
        resume_campaign,
        results_to_canonical_json,
        run_durable,
    )

    config = scaled_config(time_scale=20_000.0, quantum_cycles=3_000)
    specs = [
        RunSpec(mix, config)
        for mix in (("gcc", "swim"), ("gzip", "mcf"), ("eon", "apsi"))
    ]
    keys = {spec_fingerprint(s) for s in specs}
    checks: list[tuple[str, bool]] = []
    with tempfile.TemporaryDirectory() as cache_dir:
        cache = Path(cache_dir)
        real_write_text = Path.write_text

        def full_disk(self, data, *args, **kwargs):
            # Cache entries are <key>.json.<pid>.tmp directly in the cache
            # dir; the journal and rollups live in subdirectories.
            if self.parent == cache and self.name.endswith(".tmp"):
                real_write_text(self, data[: len(data) // 2], *args, **kwargs)
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write_text(self, data, *args, **kwargs)

        Path.write_text = full_disk
        try:
            results = run_durable(
                specs, cache_dir=cache, jobs=1, raise_on_error=False
            )
        finally:
            Path.write_text = real_write_text
        clean = run_many(specs, jobs=1, cache_dir=None)
        checks.append(
            ("ENOSPC cache writes: every result returned, byte-identical",
             results_to_canonical_json(results)
             == results_to_canonical_json(clean))
        )
        rows = list_campaigns(cache)
        checks.append(
            ("ENOSPC cache writes: journal records every spec completed",
             len(rows) == 1 and rows[0].get("completed") == len(specs)
             and not list(cache.glob("*.json"))
             and not list(cache.glob("*.tmp")))
        )
        missing = RUNNER_METRICS.counters.get(
            "runner.campaign_reverify_missing", 0
        )
        resumed = resume_campaign(
            derive_campaign_id([spec_fingerprint(s) for s in specs]),
            cache_dir=cache, jobs=1, raise_on_error=False,
        )
        rerun = RUNNER_METRICS.counters.get(
            "runner.campaign_reverify_missing", 0
        ) - missing
        checks.append(
            ("resume with a working cache fills every entry",
             rerun == len(specs)
             and {path.stem for path in cache.glob("*.json")} == keys
             and results_to_canonical_json(resumed)
             == results_to_canonical_json(clean))
        )
    return checks


def main() -> int:
    config = scaled_config(time_scale=20_000.0, quantum_cycles=3_000)

    def chaos(workloads, **worker):
        return RunSpec(
            tuple(workloads),
            config.with_faults(FaultPlan(worker=WorkerFaultPlan(**worker))),
        )

    healthy_a = RunSpec(("gcc", "swim"), config)
    crash = chaos(("gzip", "mcf"), crash_attempts=10)
    hang = chaos(("vpr", "art"), hang_attempts=10, hang_seconds=30.0)
    flaky = chaos(("twolf", "lucas"), fail_attempts=1)
    healthy_b = RunSpec(("eon", "apsi"), config)
    batch = [healthy_a, crash, hang, flaky, healthy_b]

    with tempfile.TemporaryDirectory() as cache_dir:
        cache = Path(cache_dir)
        # Pre-seed one corrupt entry where healthy_a's result would land.
        corrupt_key = spec_fingerprint(healthy_a)
        (cache / f"{corrupt_key}.json").write_text("{not json")

        results = run_many(
            batch,
            jobs=2,
            cache_dir=cache,
            timeout=3.0,
            retries=1,
            raise_on_error=False,
        )

        failures = {i: r for i, r in enumerate(results)
                    if isinstance(r, RunFailure)}
        checks = [
            ("failed specs are exactly the crash and the hang",
             sorted(failures) == [1, 2]),
            ("crash reported, not raised",
             failures[1].kind == "error" and not failures[1].ok),
            ("hang reported as a timeout", failures[2].kind == "timeout"),
            ("flaky spec recovered on retry",
             not isinstance(results[3], RunFailure)),
            ("every healthy spec returned a result",
             not isinstance(results[0], RunFailure)
             and not isinstance(results[4], RunFailure)),
            ("healthy results byte-identical to a clean serial run",
             results[0] == run_many([healthy_a], jobs=1, cache_dir=None)[0]
             and results[4] == run_many([healthy_b], jobs=1, cache_dir=None)[0]),
            ("corrupt entry quarantined, evidence preserved",
             (cache / "quarantine" / f"{corrupt_key}.json").read_text()
             == "{not json"),
            ("pool break recovered serially",
             RUNNER_METRICS.counters.get("runner.pool_breaks", 0) >= 1),
            ("retry accounted",
             RUNNER_METRICS.counters.get("runner.retries", 0) >= 1),
        ]

    checks.extend(durable_checks())
    checks.extend(het_durable_checks(jobs=1))
    checks.extend(het_durable_checks(jobs=2))
    checks.extend(cache_failure_checks())

    width = max(len(label) for label, _ in checks)
    failed = 0
    for label, ok in checks:
        print(f"  {label:<{width}}  {'ok' if ok else 'FAIL'}")
        failed += 0 if ok else 1
    interesting = {
        name: value
        for name, value in sorted(RUNNER_METRICS.counters.items())
        if name.startswith(("runner.", "cache."))
    }
    print(f"runner metrics: {interesting}")
    if failed:
        print(f"chaos smoke: {failed} check(s) FAILED", file=sys.stderr)
        return 1
    print("chaos smoke: all checks passed")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--durable-child":
        sys.exit(durable_child(sys.argv[2]))
    if len(sys.argv) == 4 and sys.argv[1] == "--het-durable-child":
        sys.exit(het_durable_child(sys.argv[2], int(sys.argv[3])))
    sys.exit(main())
