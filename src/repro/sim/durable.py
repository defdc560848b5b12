"""The campaign driver, and durable campaigns: journal, resume, drain.

:func:`drive_campaign` is the one driver every campaign runs through: it
fingerprints and dedupes the slots, serves cache hits, dispatches the
misses through :func:`~repro.sim.parallel.dispatch`'s tiers (each result
cached as it lands), then fills every slot, emits the lane events,
publishes the rollup and raises.  :func:`~repro.sim.parallel.run_many` is
that driver without a journal.  The tiers survive flaky specs, hung
workers and broken pools, but only *within* one process lifetime.  Kill
the driver (OOM, SIGKILL, a pulled node) and nothing records which specs
were in flight, which had failed, which campaign the runs belonged to.
This module adds the missing process-death axis (docs/robustness.md):

* **write-ahead journal** — every campaign lifecycle transition (submit,
  lease, failure, completion, breaker trip, seal) is an append-only
  record under ``<cache_dir>/journal/<campaign_id>/``, published with the
  same tmp + ``os.replace`` + fsync discipline as the run cache, keyed by
  the existing :func:`~repro.sim.parallel.spec_fingerprint`.  Each
  outcome is journaled as it lands, after its cache entry is stored, so a
  killed campaign keeps every spec that had finished;
* **checkpoint/resume** — :func:`resume_campaign` replays the journal,
  reclaims leases orphaned by dead or stale pids, and drives the
  campaign again: the driver's cache lookup verifies every completed
  entry (divergences are quarantined and re-run) and only the unfinished
  tail is dispatched.  The merged result list is byte-identical to what
  the uninterrupted campaign would have returned;
* **supervised graceful shutdown** — :func:`run_durable` installs
  SIGTERM/SIGINT handlers that translate the signal into the runner's
  graceful drain (stop dispatching, let in-flight chunks finish inside a
  bounded grace, book ``interrupted`` slots), seals the journal
  ``resumable``, and returns partial, index-aligned results;
* **circuit breaker** — a spec that burns its retry budget trips its
  *fingerprint family* (workload mix + policy) open in the journal, so a
  resume skips known-poison specs fast instead of re-burning their
  retries; ``force=True`` re-closes breakers and re-dispatches.

Everything here is bookkeeping *around* simulation, never inside it: no
journal state feeds a fingerprint, and the only wall-clock reads are the
lease heartbeats (explicitly exempted from the determinism lint, with the
reasoning inline).
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import signal
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import SimulationError
from ..telemetry.events import EventType
from .parallel import (
    DEFAULT_CACHE_DIR,
    RUNNER_METRICS,
    RunFailure,
    RunSpec,
    _cache_load,
    _Ledger,
    _sweep_stale_tmp,
    dispatch,
    pid_alive,
    spec_fingerprint,
)
from .results import result_to_dict
from .rollup import ROLLUP_DIR, build_rollup, write_rollup
from .stats import RunResult

#: Subdirectory of the run cache that holds campaign journals.
JOURNAL_DIR = "journal"

#: Journal record schema.  Bump on incompatible record-shape changes; old
#: journals are then refused loudly rather than misread.
JOURNAL_SCHEMA = 1

#: Seconds between lease heartbeats while a campaign is executing.
HEARTBEAT_INTERVAL_S = 5.0

#: A foreign lease whose heartbeat is older than this is an orphan even if
#: its pid number is (re)used by some live process.
DEFAULT_LEASE_STALE_S = 60.0


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Publish one JSON document atomically and durably.

    tmp + fsync + ``os.replace`` + directory fsync: after this returns the
    record survives a power cut, and no reader can ever observe a torn
    write.  The directory fsync is best-effort (not every filesystem
    supports opening a directory), matching the cache's guarantees.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True,
                                    separators=(",", ":")))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        try:
            dir_fd = os.open(path.parent, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)
    finally:
        tmp.unlink(missing_ok=True)


def breaker_family(spec: RunSpec) -> str:
    """The circuit-breaker grouping key: workload mix + DTM policy.

    Coarser than the spec fingerprint on purpose — a poison workload/policy
    combination usually poisons its whole parameter sweep, and the breaker
    exists to stop a resume from re-burning retries across that sweep.
    """
    return f"{'+'.join(spec.workloads)}@{spec.config.dtm_policy}"


def _encode_spec(spec: RunSpec) -> str:
    return base64.b64encode(pickle.dumps(spec)).decode("ascii")


def _decode_spec(blob: str) -> RunSpec:
    spec = pickle.loads(base64.b64decode(blob.encode("ascii")))
    if not isinstance(spec, RunSpec):
        raise SimulationError(
            f"journal spec blob decoded to {type(spec).__name__}, "
            "not a RunSpec"
        )
    return spec


def derive_campaign_id(fingerprints: list[str]) -> str:
    """Deterministic campaign id from the slot manifest.

    The same spec list (same order) always derives the same id, so a
    driver restarted from scratch finds its own half-finished journal
    instead of starting a parallel one — the property the chaos harness's
    kill-and-resume scenario depends on.
    """
    import hashlib

    blob = json.dumps(
        {"schema": JOURNAL_SCHEMA, "manifest": fingerprints},
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class CampaignJournal:
    """Append-only record store for one campaign.

    Each record is its own file, ``<seq:08d>.<pid>.json``, so appending is
    a single atomic publish — there is no shared file to tear, and two
    writers (a zombie driver and its successor) can never corrupt each
    other, only interleave.  Replay reads records in filename order, which
    sorts by sequence number first.
    """

    def __init__(self, cache_dir: str | Path, campaign_id: str) -> None:
        self.campaign_id = campaign_id
        self.root = Path(cache_dir) / JOURNAL_DIR / campaign_id
        self._next_seq: int | None = None

    def exists(self) -> bool:
        return any(self.root.glob("[0-9]*.json"))

    def _scan_next_seq(self) -> int:
        last = -1
        for path in self.root.glob("[0-9]*.json"):
            try:
                last = max(last, int(path.name.split(".", 1)[0]))
            except ValueError:
                continue
        return last + 1

    def append(self, record: dict) -> Path:
        """Durably publish one record; returns its path."""
        self.root.mkdir(parents=True, exist_ok=True)
        if self._next_seq is None:
            self._next_seq = self._scan_next_seq()
        seq = self._next_seq
        while True:
            path = self.root / f"{seq:08d}.{os.getpid()}.json"
            if not path.exists():
                break
            seq += 1
        self._next_seq = seq + 1
        _atomic_write_json(path, dict(record, seq=seq))
        return path

    def records(self) -> list[dict]:
        """Every readable record, in append order.

        A torn or garbage record (possible only if the atomic-write
        discipline was bypassed, e.g. a filesystem that lies about fsync)
        is skipped and counted — replay degrades to re-running that
        transition's work, never to misreading it.
        """
        records = []
        for path in sorted(self.root.glob("[0-9]*.json")):
            try:
                records.append(json.loads(path.read_text()))
            except (OSError, ValueError):
                RUNNER_METRICS.inc("journal.unreadable_records")
                continue
        return records

    # -- lease heartbeats --------------------------------------------------

    def heartbeat_path(self, pid: int) -> Path:
        return self.root / "heartbeats" / f"{pid}.json"

    def heartbeat(self, pid: int, beats: int) -> None:
        """Refresh this pid's lease heartbeat (mutable, atomically rewritten).

        The wall stamp below is the one place durable campaigns read the
        clock: it decides only whether a *dead driver's* leases may be
        reclaimed, and can never reach a spec fingerprint or a result.
        """
        stamp = time.time()  # repro: noqa(RPR001) lease-liveness wall stamp, never feeds a fingerprint
        _atomic_write_json(
            self.heartbeat_path(pid),
            {"pid": pid, "beats": beats, "wall_time": stamp},
        )

    def read_heartbeat(self, pid: int) -> dict | None:
        try:
            return json.loads(self.heartbeat_path(pid).read_text())
        except (OSError, ValueError):
            return None

    def heartbeat_fresh(self, pid: int, stale_s: float) -> bool:
        """True when this pid's heartbeat exists and is recent."""
        beat = self.read_heartbeat(pid)
        if beat is None:
            return False
        now = time.time()  # repro: noqa(RPR001) lease-liveness wall read, never feeds a fingerprint
        return (now - float(beat.get("wall_time", 0.0))) <= stale_s


@dataclass
class CampaignState:
    """The journal, folded: everything a resume needs to know."""

    campaign_id: str
    manifest: list[str] = field(default_factory=list)
    specs: dict[str, RunSpec] = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    completed: set[str] = field(default_factory=set)
    failed: dict[str, dict] = field(default_factory=dict)
    leases: dict[str, int] = field(default_factory=dict)
    breakers: dict[str, dict] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)
    sealed: str | None = None
    reclaimed: int = 0

    @property
    def order(self) -> list[str]:
        """Distinct fingerprints in first-seen manifest order."""
        seen: set[str] = set()
        out: list[str] = []
        for key in self.manifest:
            if key not in seen:
                seen.add(key)
                out.append(key)
        return out


def replay(journal: CampaignJournal) -> CampaignState:
    """Fold the journal into a :class:`CampaignState`.

    Later records win: a ``completed`` record clears any earlier
    ``failed``/``skipped`` state for its spec (a forced resume re-ran it),
    and any activity after a seal reopens the campaign.
    """
    state = CampaignState(campaign_id=journal.campaign_id)
    for record in journal.records():
        kind = record.get("type")
        key = record.get("fingerprint")
        if kind == "submit":
            if record.get("schema") != JOURNAL_SCHEMA:
                raise SimulationError(
                    f"journal {journal.campaign_id} has schema "
                    f"{record.get('schema')} (this build reads schema "
                    f"{JOURNAL_SCHEMA})"
                )
            state.manifest = list(record.get("manifest", []))
            state.options = dict(record.get("options", {}))
            state.specs = {
                fp: _decode_spec(blob)
                for fp, blob in record.get("specs", {}).items()
            }
        elif kind == "lease":
            state.leases[key] = int(record.get("pid", 0))
            state.sealed = None
        elif kind == "completed":
            state.leases.pop(key, None)
            state.failed.pop(key, None)
            state.skipped.pop(key, None)
            state.completed.add(key)
        elif kind == "failed":
            state.leases.pop(key, None)
            state.failed[key] = record
        elif kind == "skipped":
            state.skipped[key] = record.get("family", "")
        elif kind == "reclaim":
            state.leases.pop(key, None)
        elif kind == "breaker":
            family = record.get("family", "")
            if record.get("state") == "open":
                state.breakers[family] = record
            else:
                state.breakers.pop(family, None)
                for fp, fam in list(state.skipped.items()):
                    if fam == family:
                        del state.skipped[fp]
        elif kind == "resume":
            state.sealed = None
        elif kind == "seal":
            state.sealed = record.get("status")
    if not state.manifest:
        raise SimulationError(
            f"journal {journal.campaign_id} has no submit record "
            f"(looked under {journal.root})"
        )
    return state


# -- supervised shutdown -----------------------------------------------------


class _DrainSupervisor:
    """Translate SIGTERM/SIGINT into the runner's graceful drain.

    Installing is a no-op off the main thread (Python only delivers
    signals there) and restores the previous handlers on uninstall, so
    nesting durable campaigns inside a larger application never clobbers
    its signal handling permanently.  The first signal raises
    ``KeyboardInterrupt`` at the next bytecode boundary — exactly the
    exception :func:`~repro.sim.parallel.run_many` drains on; a second
    signal during the drain falls through to the previous handler
    (normally: immediate abort).
    """

    def __init__(self) -> None:
        self.drain = threading.Event()
        self._previous: dict[int, object] = {}

    def _handle(self, signum: int, frame: object) -> None:
        self.drain.set()
        previous = self._previous.get(signum)
        try:
            signal.signal(signum, previous)  # second signal aborts hard
        except (ValueError, OSError, TypeError):
            pass
        raise KeyboardInterrupt(f"drain requested (signal {signum})")

    def install(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):
                continue

    def uninstall(self) -> None:
        for signum, previous in self._previous.items():
            try:
                if signal.getsignal(signum) == self._handle:
                    signal.signal(signum, previous)
            except (ValueError, OSError, TypeError):
                continue
        self._previous.clear()

    @property
    def draining(self) -> bool:
        return self.drain.is_set()


class _HeartbeatThread(threading.Thread):
    """Background lease heartbeat while this process drives a campaign."""

    def __init__(
        self, journal: CampaignJournal,
        interval: float = HEARTBEAT_INTERVAL_S,
    ) -> None:
        super().__init__(daemon=True, name="repro-campaign-heartbeat")
        self._journal = journal
        self._interval = interval
        self._halt = threading.Event()
        self.beats = 0

    def run(self) -> None:
        pid = os.getpid()
        while True:
            try:
                self._journal.heartbeat(pid, self.beats)
            except OSError:
                pass  # a full disk must not kill the campaign
            self.beats += 1
            if self._halt.wait(self._interval):
                return

    def stop(self) -> None:
        self._halt.set()
        if self.is_alive():
            self.join(timeout=2.0)


# -- the campaign driver -----------------------------------------------------


def _failure_from_record(record: dict) -> RunFailure:
    return RunFailure(
        workloads=tuple(record.get("workloads", ())),
        fingerprint=record.get("fingerprint", ""),
        kind=record.get("kind", "error"),
        error=record.get("error", ""),
        attempts=int(record.get("attempts", 0)),
    )


def _breaker_open(
    spec: RunSpec, key: str, family: str, breaker: dict
) -> RunFailure:
    return RunFailure(
        workloads=spec.workloads,
        fingerprint=key,
        kind="breaker_open",
        error=(
            f"family {family!r} breaker is open "
            f"(tripped by {str(breaker.get('fingerprint'))[:12]}; "
            "resume with force=True to re-close)"
        ),
        attempts=0,
    )


class _Campaign:
    """A journaled campaign, as :func:`drive_campaign` sees it.

    The driver tells it which specs are about to be dispatched
    (:meth:`lease`), each terminal outcome as it lands (:meth:`landed`,
    after the result's cache entry is stored) and the end (:meth:`seal`);
    :meth:`supervised` wraps the dispatch in the drain supervisor and the
    lease heartbeat.  ``resumed`` campaigns journal a ``resume`` record
    before their first lease.
    """

    def __init__(
        self,
        journal: CampaignJournal,
        state: CampaignState,
        telemetry,
        *,
        resumed: bool = False,
        force: bool = False,
    ) -> None:
        self.journal = journal
        self.state = state
        enabled = telemetry is not None and telemetry.enabled
        self.telemetry = telemetry if enabled else None
        self.resumed = resumed
        self.force = force
        self.pid = os.getpid()

    def settled(self) -> tuple[dict, dict]:
        """Outcomes and sources of the slots the journal already settled.

        Failed and breaker-skipped specs stay settled on a resume without
        ``force`` (which clears them from the state first).
        """
        state = self.state
        outcomes: dict[str, RunResult | RunFailure] = {}
        sources: dict[str, str] = {}
        for key, record in state.failed.items():
            outcomes[key] = _failure_from_record(record)
            sources[key] = "journal"
        for key, family in state.skipped.items():
            outcomes[key] = _breaker_open(
                state.specs[key], key, family, state.breakers.get(family, {})
            )
            sources[key] = "breaker"
        return outcomes, sources

    def looked_up(self, key: str, hit) -> str | None:
        """Account one cache lookup; returns the slot's source on a hit.

        A key the journal calls completed is verified by its hit, or
        re-runs on a miss (the checked reader quarantined or never found
        the entry).  A hit the journal has not recorded is journaled
        completed now.
        """
        completed = self.state.completed
        if hit is None:
            if key in completed:
                completed.discard(key)
                RUNNER_METRICS.inc("runner.campaign_reverify_missing")
            return None
        if key in completed:
            RUNNER_METRICS.inc("runner.campaign_verified")
            return "journal"
        self.journal.append({"type": "completed", "fingerprint": key})
        completed.add(key)
        return "cache"

    def lease(self, ledger: _Ledger) -> None:
        """Journal the dispatch: a lease per spec, a skip per open family.

        A spec whose family's breaker is already open is booked
        ``breaker_open`` instead of dispatched.
        """
        state = self.state
        if self.resumed:
            completed, pending = len(state.completed), len(ledger.work)
            self.journal.append(
                {"type": "resume", "campaign": state.campaign_id,
                 "pid": self.pid, "completed": completed,
                 "pending": pending, "reclaimed": state.reclaimed,
                 "force": self.force}
            )
            if self.telemetry is not None:
                self.telemetry.emit(
                    EventType.CAMPAIGN_RESUME,
                    cycle=0,
                    data={"campaign": state.campaign_id,
                          "completed": completed, "pending": pending,
                          "reclaimed": state.reclaimed},
                )
        leased = 0
        for key, spec in ledger.work:
            family = breaker_family(spec)
            breaker = state.breakers.get(family)
            if breaker is not None:
                RUNNER_METRICS.inc("runner.breaker_skipped")
                self.journal.append(
                    {"type": "skipped", "fingerprint": key, "family": family}
                )
                state.skipped[key] = family
                ledger.book(key, _breaker_open(spec, key, family, breaker),
                            "breaker")
                continue
            self.journal.append(
                {"type": "lease", "fingerprint": key, "pid": self.pid}
            )
            state.leases[key] = self.pid
            if self.telemetry is not None:
                self.telemetry.emit(
                    EventType.CAMPAIGN_LEASE,
                    cycle=leased,
                    data={"fingerprint": key, "pid": self.pid},
                )
            leased += 1

    def landed(
        self, key: str, outcome: RunResult | RunFailure
    ) -> None:
        """Journal one terminal outcome; a failure trips its family open.

        An ``interrupted`` slot keeps its lease: this pid reclaims it on
        an in-process resume, a successor once the heartbeat goes stale.
        A ``breaker_open`` slot was journaled ``skipped`` at lease time.
        """
        state = self.state
        if not isinstance(outcome, RunFailure):
            self.journal.append({"type": "completed", "fingerprint": key})
            state.completed.add(key)
        elif outcome.kind in ("interrupted", "breaker_open"):
            return
        else:
            record = {
                "type": "failed", "fingerprint": key, "kind": outcome.kind,
                "error": outcome.error, "attempts": outcome.attempts,
                "workloads": list(outcome.workloads),
            }
            self.journal.append(record)
            state.failed[key] = record
            family = breaker_family(state.specs[key])
            if family not in state.breakers:
                RUNNER_METRICS.inc("runner.breaker_trips")
                breaker = {
                    "type": "breaker", "family": family, "state": "open",
                    "fingerprint": key, "attempts": outcome.attempts,
                }
                self.journal.append(breaker)
                state.breakers[family] = breaker
                if self.telemetry is not None:
                    self.telemetry.emit(
                        EventType.BREAKER_OPEN,
                        cycle=state.manifest.index(key),
                        data={"family": family, "fingerprint": key,
                              "attempts": outcome.attempts},
                    )
        state.leases.pop(key, None)

    @contextmanager
    def supervised(self):
        """Drain on SIGTERM/SIGINT and beat the lease heartbeat meanwhile."""
        supervisor = _DrainSupervisor()
        supervisor.install()
        heartbeat = _HeartbeatThread(self.journal)
        heartbeat.start()
        try:
            yield
        finally:
            heartbeat.stop()
            supervisor.uninstall()

    def seal(self, results: list, interrupted: bool) -> None:
        state = self.state
        status = "resumable" if interrupted else "complete"
        self.journal.append(
            {
                "type": "seal",
                "status": status,
                "completed": len(state.completed),
                "failed": len(state.failed),
                "skipped": len(state.skipped),
                "interrupted": sum(
                    1 for r in results
                    if isinstance(r, RunFailure) and r.kind == "interrupted"
                ),
            }
        )
        state.sealed = status
        if interrupted:
            RUNNER_METRICS.inc("runner.campaign_drained")


def _emit_lane_events(
    telemetry,
    spec_list: list[RunSpec],
    keys: list[str],
    results: list,
    sources: dict[str, str],
    lane_info: dict[str, dict],
) -> None:
    """Emit one LANE_COMPLETE per input slot on the campaign session.

    The event's ``cycle`` is the lane index (campaign sessions count lanes,
    not simulated cycles); ``data`` names the tier that produced the slot
    (``cache``/``batch``/``pool``/``serial``, ``journal`` or ``breaker``
    on a resume, ``drained`` when interrupted) and, for batch lanes, which
    cohort the lane ended its quantum in.
    """
    for index, (spec, key) in enumerate(zip(spec_list, keys, strict=True)):
        result = results[index]
        data: dict = {
            "lane": index,
            "source": sources[key],
            "workloads": "+".join(spec.workloads),
            "policy": spec.config.dtm_policy,
        }
        info = lane_info.get(key)
        if info is not None:
            data.update(info)
        if isinstance(result, RunFailure):
            data["error"] = result.kind
        else:
            data["cycles"] = result.cycles
            data["ipc"] = result.threads[0].ipc
        telemetry.emit(
            # repro: noqa(RPR008) success and failure lanes intentionally
            # carry different keys (cycles/ipc vs error), and cohort tags
            # are batch-tier-only; tests pin this exact shape
            EventType.LANE_COMPLETE, cycle=index, data=data,
        )


def drive_campaign(
    spec_list: list[RunSpec],
    *,
    directory: Path | None,
    jobs: int | None,
    timeout: float | None,
    retries: int,
    raise_on_error: bool,
    batch: bool,
    telemetry,
    campaign: _Campaign | None = None,
) -> list[RunResult | RunFailure]:
    """The one campaign driver: specs in, index-aligned results out.

    Fingerprints and dedupes the slots, serves hits from the cache and
    hands the misses to :func:`~repro.sim.parallel.dispatch` (batch →
    pool/serial tiers, each result cached as it lands).  Then it fills
    every slot, emits one ``LANE_COMPLETE`` per slot, publishes the rollup
    (not after an interrupt) and raises as ``raise_on_error`` asks.  An
    interrupt anywhere in the dispatch leaves every unfinished slot an
    ``interrupted`` :class:`~repro.sim.parallel.RunFailure`.

    :func:`~repro.sim.parallel.run_many` is this driver without a
    ``campaign``.  With one, the journal is told what is about to be
    dispatched, each terminal outcome as it lands, and the seal, so a
    driver killed midway loses no finished spec.
    """
    if retries < 0:
        raise SimulationError("retries must be >= 0")
    if timeout is not None and timeout <= 0:
        raise SimulationError("timeout must be positive")
    if campaign is None:
        keys = [spec_fingerprint(spec) for spec in spec_list]
        outcomes: dict[str, RunResult | RunFailure] = {}
        sources: dict[str, str] = {}
    else:
        keys = campaign.state.manifest
        outcomes, sources = campaign.settled()
    if directory is not None and directory.is_dir():
        _sweep_stale_tmp(directory)

    pending: dict[str, RunSpec] = {}
    for key, spec in zip(keys, spec_list, strict=True):
        if key in outcomes or key in pending:
            continue
        hit = _cache_load(directory, key)
        source = "cache" if campaign is None else campaign.looked_up(key, hit)
        if hit is None:
            pending[key] = spec
        else:
            outcomes[key] = hit
            sources[key] = source

    ledger = _Ledger(
        list(pending.items()), directory, timeout, retries,
        None if campaign is None else campaign.landed,
    )
    try:
        with nullcontext() if campaign is None else campaign.supervised():
            if campaign is not None:
                campaign.lease(ledger)
            dispatch(ledger, jobs, batch)
    except KeyboardInterrupt:
        # Landed outside the tiers' own drain (they book and return).
        ledger.interrupt_rest()
    outcomes.update(ledger.outcomes)
    sources.update(ledger.sources)
    interrupted = ledger.interrupted
    results = [outcomes[key] for key in keys]
    if campaign is not None:
        campaign.seal(results, interrupted)

    if telemetry is not None and telemetry.enabled:
        _emit_lane_events(
            telemetry, spec_list, keys, results, sources, ledger.lane_info
        )
    if directory is not None and len(spec_list) >= 2 and not interrupted:
        payload = build_rollup(list(zip(spec_list, keys, results, strict=True)))
        try:
            write_rollup(directory, payload)
        except OSError:
            # Derived from results in hand, like a cache entry.
            RUNNER_METRICS.inc("cache.store_failures")
        if telemetry is not None and telemetry.enabled:
            telemetry.emit(
                EventType.CAMPAIGN_ROLLUP,
                cycle=len(spec_list),
                data={"key": payload["key"], "runs": payload["runs"],
                      "failures": payload["failures"]},
            )

    if not raise_on_error:
        return results
    failures = [r for r in results if isinstance(r, RunFailure)]
    where = "" if campaign is None else f" in campaign {campaign.state.campaign_id}"
    if interrupted:
        # Cleanup is done (finished outcomes cached and journaled, the
        # journal sealed resumable); now honor the interrupt so callers'
        # handlers still fire.
        unfinished = sum(1 for f in failures if f.kind == "interrupted")
        raise KeyboardInterrupt(
            f"interrupted{where}: {unfinished} of {len(keys)} spec(s) "
            "unfinished"
        )
    if failures:
        detail = "; ".join(
            f"{'+'.join(f.workloads)}: {f.kind} after {f.attempts} "
            f"attempt(s) ({f.error})"
            for f in failures[:3]
        )
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        raise SimulationError(
            f"{len(failures)} of {len(keys)} spec(s) failed{where}: "
            f"{detail}{more}"
        )
    return results


def run_durable(
    specs,
    *,
    campaign_id: str | None = None,
    cache_dir: str | Path | None = DEFAULT_CACHE_DIR,
    jobs: int | None = None,
    timeout: float | None = None,
    retries: int = 0,
    raise_on_error: bool = True,
    batch: bool = True,
    telemetry=None,
) -> list[RunResult | RunFailure]:
    """Run a campaign under the crash-safe journal.

    Semantics match :func:`~repro.sim.parallel.run_many` (input-order
    results, cache/batch/pool tiers, partial results with
    ``raise_on_error=False``) plus the durable contract: the submit and
    every lease are journaled before dispatch, each spec's outcome is
    journaled as it lands (its cache entry first), SIGTERM/SIGINT drain
    gracefully into a ``resumable`` seal, and a later
    :func:`resume_campaign` (or ``repro campaign resume``) completes the
    tail with results byte-identical to an uninterrupted run.  A driver
    killed outright keeps every spec that had finished.

    Calling :func:`run_durable` again with the same spec list and an
    existing journal is an implicit resume — the restarted driver finds
    its own half-finished campaign.
    """
    if cache_dir is None:
        raise SimulationError(
            "durable campaigns need a cache_dir (the journal lives there)"
        )
    spec_list = list(specs)
    if not spec_list:
        return []
    directory = Path(cache_dir)
    manifest = [spec_fingerprint(spec) for spec in spec_list]
    campaign_id = campaign_id or derive_campaign_id(manifest)
    journal = CampaignJournal(directory, campaign_id)

    if journal.exists():
        existing = replay(journal)
        if existing.manifest != manifest:
            raise SimulationError(
                f"campaign {campaign_id} already has a journal with a "
                f"different manifest ({len(existing.manifest)} slot(s) vs "
                f"{len(manifest)}); pick another campaign_id or resume it"
            )
        return resume_campaign(
            campaign_id,
            cache_dir=directory,
            jobs=jobs,
            raise_on_error=raise_on_error,
            telemetry=telemetry,
        )

    state = CampaignState(
        campaign_id=campaign_id,
        manifest=manifest,
        specs=dict(zip(manifest, spec_list, strict=True)),
        options={"timeout": timeout, "retries": retries, "batch": batch},
    )
    campaign: _Campaign | None = _Campaign(journal, state, telemetry)
    try:
        journal.append(
            {
                "type": "submit",
                "campaign": campaign_id,
                "schema": JOURNAL_SCHEMA,
                "manifest": manifest,
                "specs": {
                    key: _encode_spec(spec)
                    for key, spec in state.specs.items()
                },
                "options": state.options,
            }
        )
    except OSError:
        # No journal could be started (an unwritable cache dir), so there
        # is nothing to resume: run the specs as a plain batch, whose
        # failed cache writes are counted rather than raised.
        RUNNER_METRICS.inc("runner.campaign_unjournaled")
        campaign = None
    return drive_campaign(
        spec_list, directory=directory, jobs=jobs, timeout=timeout,
        retries=retries, raise_on_error=raise_on_error, batch=batch,
        telemetry=telemetry, campaign=campaign,
    )


def resume_campaign(
    campaign_id: str,
    *,
    cache_dir: str | Path | None = DEFAULT_CACHE_DIR,
    jobs: int | None = None,
    force: bool = False,
    raise_on_error: bool = True,
    telemetry=None,
    lease_stale_s: float = DEFAULT_LEASE_STALE_S,
    retries: int | None = None,
) -> list[RunResult | RunFailure]:
    """Replay a campaign's journal and finish its unfinished tail.

    Recovery steps, in order:

    1. **replay** — fold the journal (unique-prefix ``campaign_id`` match,
       like git) into the campaign state;
    2. **lease audit** — a lease held by a *live* foreign pid with a fresh
       heartbeat means another driver is still running: refuse, loudly.
       Leases whose pid is dead, whose heartbeat is stale, or that belong
       to this very process are reclaimed (journaled, counted);
    3. **breaker handling** — ``force=True`` journals every open breaker
       closed and returns failed/skipped specs to the tail; otherwise
       they stay settled, and unfinished specs of an open family are
       skipped;
    4. **dispatch** — :func:`drive_campaign` runs the rest.  Its cache
       lookup verifies every ``completed`` fingerprint through the cache's
       checked reader (``runner.campaign_verified``); a divergent entry is
       quarantined by the reader and the spec re-runs
       (``runner.campaign_reverify_missing``).  The merged per-slot
       result list is byte-identical to an uninterrupted run.

    ``retries`` overrides the journaled retry budget when given (e.g.
    granting a poison spec more retries on a forced resume).
    """
    if cache_dir is None:
        raise SimulationError(
            "durable campaigns need a cache_dir (the journal lives there)"
        )
    directory = Path(cache_dir)
    journal = _find_journal(directory, campaign_id)
    state = replay(journal)
    RUNNER_METRICS.inc("runner.campaign_resumes")
    pid = os.getpid()

    for key, holder in list(state.leases.items()):
        if (
            holder != pid
            and pid_alive(holder)
            and journal.heartbeat_fresh(holder, lease_stale_s)
        ):
            raise SimulationError(
                f"campaign {state.campaign_id} is still being driven by "
                f"pid {holder} (live heartbeat); refusing to double-run. "
                "Wait for it, or kill it and resume once its heartbeat "
                f"goes stale (> {lease_stale_s:.0f}s)"
            )
        journal.append(
            {"type": "reclaim", "fingerprint": key, "pid": holder}
        )
        del state.leases[key]
        state.reclaimed += 1
        RUNNER_METRICS.inc("runner.campaign_reclaimed")

    if force:
        for family, record in list(state.breakers.items()):
            journal.append(
                {"type": "breaker", "family": family, "state": "closed",
                 "fingerprint": record.get("fingerprint")}
            )
            del state.breakers[family]
        state.failed.clear()
        state.skipped.clear()

    options = state.options
    return drive_campaign(
        [state.specs[key] for key in state.manifest],
        directory=directory,
        jobs=jobs,
        timeout=options.get("timeout"),
        retries=int(options.get("retries", 0) if retries is None else retries),
        raise_on_error=raise_on_error,
        batch=bool(options.get("batch", True)),
        telemetry=telemetry,
        campaign=_Campaign(
            journal, state, telemetry, resumed=True, force=force
        ),
    )


def _find_journal(directory: Path, campaign_id: str) -> CampaignJournal:
    """Resolve a (possibly prefixed) campaign id to its journal."""
    root = directory / JOURNAL_DIR
    exact = root / campaign_id
    if exact.is_dir():
        return CampaignJournal(directory, campaign_id)
    matches = (
        sorted(p.name for p in root.glob(f"{campaign_id}*") if p.is_dir())
        if campaign_id
        else []
    )
    if not matches:
        raise SimulationError(
            f"no campaign journal matching {campaign_id!r} under {root}"
        )
    if len(matches) > 1:
        raise SimulationError(
            f"campaign id {campaign_id!r} is ambiguous "
            f"({len(matches)} matches under {root})"
        )
    return CampaignJournal(directory, matches[0])


def list_campaigns(cache_dir: str | Path) -> list[dict]:
    """One summary row per journal under the cache, sorted by id.

    Unreadable journals are reported as rows with an ``error`` key rather
    than skipped — a campaign you cannot resume is exactly the thing a
    listing must surface.
    """
    root = Path(cache_dir) / JOURNAL_DIR
    rows: list[dict] = []
    if not root.is_dir():
        return rows
    for path in sorted(p for p in root.iterdir() if p.is_dir()):
        journal = CampaignJournal(cache_dir, path.name)
        try:
            state = replay(journal)
        except SimulationError as error:
            rows.append({"campaign": path.name, "error": str(error)})
            continue
        rows.append(
            {
                "campaign": state.campaign_id,
                "slots": len(state.manifest),
                "specs": len(state.order),
                "completed": len(state.completed),
                "failed": len(state.failed),
                "skipped": len(state.skipped),
                "leases": len(state.leases),
                "breakers": sorted(state.breakers),
                "sealed": state.sealed or "open",
            }
        )
    return rows


# -- cache inspection (the `repro cache` verb) -------------------------------


def _classify_quarantined(path: Path) -> str:
    """Re-derive why a quarantined cache entry was rejected."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return "unreadable"
    if payload.get("fingerprint") != path.stem:
        return "fingerprint_mismatch"
    try:
        from .results import result_from_dict

        result_from_dict(payload["result"])
    except Exception:
        return "bad_shape"
    return "recovered"  # would load cleanly now (e.g. a racing writer won)


def quarantine_entries(cache_dir: str | Path) -> list[dict]:
    """Every quarantined cache entry with its (re-derived) reason."""
    from .parallel import QUARANTINE_DIR

    directory = Path(cache_dir) / QUARANTINE_DIR
    entries: list[dict] = []
    if not directory.is_dir():
        return entries
    for path in sorted(directory.glob("*.json")):
        entries.append(
            {
                "file": path.name,
                "bytes": path.stat().st_size,
                "reason": _classify_quarantined(path),
            }
        )
    return entries


def cache_stats(cache_dir: str | Path) -> dict:
    """Aggregate statistics for one cache directory.

    Powers ``repro cache``: entry counts and bytes by kind, the result
    format versions present, rollup/journal/quarantine/tmp tallies.
    Purely a reader — never mutates, quarantines, or sweeps.
    """
    directory = Path(cache_dir)
    stats = {
        "cache_dir": str(directory),
        "entries": 0,
        "bytes": 0,
        "kinds": {},
        "format_versions": {},
        "unreadable": 0,
        "stale_tmp": 0,
        "rollups": 0,
        "campaigns": 0,
        "quarantined": 0,
    }
    if not directory.is_dir():
        return stats
    for path in sorted(directory.glob("*.json")):
        stats["entries"] += 1
        stats["bytes"] += path.stat().st_size
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            stats["unreadable"] += 1
            continue
        kind = str(payload.get("kind", "?"))
        stats["kinds"][kind] = stats["kinds"].get(kind, 0) + 1
        version = str(
            (payload.get("result") or {}).get("format_version", "?")
        )
        stats["format_versions"][version] = (
            stats["format_versions"].get(version, 0) + 1
        )
    stats["stale_tmp"] = len(list(directory.glob("*.json.*.tmp")))
    stats["rollups"] = len(list((directory / ROLLUP_DIR).glob("*.json")))
    journal_root = directory / JOURNAL_DIR
    if journal_root.is_dir():
        stats["campaigns"] = sum(
            1 for p in journal_root.iterdir() if p.is_dir()
        )
    stats["quarantined"] = len(quarantine_entries(directory))
    return stats


def _zero_wall_seconds(node) -> None:
    """Normalize the one legitimately nondeterministic result field.

    ``PerfCounters.wall_seconds`` measures host time — the only field of a
    result that *cannot* reproduce byte-identically.  Every simulated
    counter (cycles stepped, thermal advances, idle skips) stays in the
    comparison.
    """
    if isinstance(node, dict):
        if "wall_seconds" in node:
            node["wall_seconds"] = 0.0
        for value in node.values():
            _zero_wall_seconds(value)
    elif isinstance(node, list):
        for value in node:
            _zero_wall_seconds(value)


def results_to_canonical_json(results) -> str:
    """Canonical JSON for a result list — the byte-identity yardstick.

    Two campaigns produced the same results iff their canonical JSON
    matches byte for byte; used by the chaos harness and the resume tests
    to compare an interrupted-then-resumed campaign against an
    uninterrupted one, PerfCounters and telemetry snapshots included
    (with host wall time normalized away — see :func:`_zero_wall_seconds`).
    """
    payload = []
    for result in results:
        if isinstance(result, RunFailure):
            payload.append(
                {"failure": {
                    "workloads": list(result.workloads),
                    "fingerprint": result.fingerprint,
                    "kind": result.kind,
                }}
            )
        else:
            payload.append({"run": result_to_dict(result)})
    _zero_wall_seconds(payload)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
