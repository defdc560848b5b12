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
  failure, completion, resume, seal) is an append-only record under
  ``<cache_dir>/journal/<campaign_id>/``, published with the same tmp +
  ``os.replace`` + fsync discipline as the run cache, keyed by the
  existing :func:`~repro.sim.parallel.spec_fingerprint`.  Each outcome is
  journaled as it lands, after its cache entry is stored, so a killed
  campaign keeps every spec that had finished;
* **the campaign lock** — the driver holds a POSIX record lock on
  ``journal/<campaign_id>/lock`` from before the journal is read or
  started until the seal.  The kernel drops it when the driver dies,
  however it dies, so a lock that cannot be taken means a live driver:
  a second driver refuses instead of double-running;
* **checkpoint/resume** — :func:`resume_campaign` takes the lock,
  replays the journal and drives the campaign again: the driver's cache
  lookup verifies every completed entry (divergences are quarantined and
  re-run), failed specs stay settled, and everything else is dispatched.
  The merged result list is byte-identical to what the uninterrupted
  campaign would have returned;
* **supervised graceful shutdown** — :func:`run_durable` installs
  SIGTERM/SIGINT handlers that translate the signal into the runner's
  graceful drain (stop dispatching, let in-flight chunks finish inside a
  bounded grace, book ``interrupted`` slots), seals the journal
  ``resumable``, and returns partial, index-aligned results.

Everything here is bookkeeping *around* simulation, never inside it: no
journal state feeds a fingerprint, and nothing here reads the clock.
"""

from __future__ import annotations

import base64
import errno
import fcntl
import json
import os
import pickle
import signal
import threading
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
    _read_entry,
    dispatch,
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

#: The campaign lock's file name inside a journal directory.
LOCK_FILE = "lock"


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
        self.cache_dir = Path(cache_dir)
        self.root = self.cache_dir / JOURNAL_DIR / campaign_id
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

    def lock(self) -> "_CampaignLock":
        """Take the campaign lock; returns the handle that holds it.

        A POSIX record lock (``lockf``) on ``<root>/lock``: it belongs to
        this process alone, so forked pool workers do not inherit it, and
        the kernel drops it when the process dies or closes any descriptor
        of the file.  Since a record lock cannot see a second holder in
        its own process, the process also keeps a registry of the locks it
        holds, so a second campaign run from another thread is refused
        before it opens (and, closing, would release) the file.  Close the returned
        handle to release both.  A lock held by this or another process
        raises :class:`SimulationError`; any other ``OSError`` (an
        unwritable cache dir) propagates.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = (self.root / LOCK_FILE).resolve()
        with _HELD_GUARD:
            if path not in _HELD_LOCKS:
                handle = open(path, "ab")
                try:
                    fcntl.lockf(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError as error:
                    handle.close()
                    if error.errno not in (errno.EACCES, errno.EAGAIN):
                        raise
                else:
                    _HELD_LOCKS.add(path)
                    return _CampaignLock(handle, path)
        raise SimulationError(
            f"campaign {self.campaign_id} is still being driven (another "
            "process, or another thread of this one, holds the campaign "
            "lock); refusing to double-run.  Wait for it, or stop it and "
            "resume"
        )


#: Campaign lock files this process holds, and the guard of that set.
_HELD_LOCKS: set[Path] = set()
_HELD_GUARD = threading.Lock()


class _CampaignLock:
    """A held campaign lock: the open lock file and its registry entry."""

    def __init__(self, handle, path: Path) -> None:
        self._handle = handle
        self._path = path

    def close(self) -> None:
        with _HELD_GUARD:
            if not self._handle.closed:
                self._handle.close()
                _HELD_LOCKS.discard(self._path)

    def __enter__(self) -> "_CampaignLock":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class CampaignState:
    """The journal, folded: everything a resume needs to know."""

    campaign_id: str
    manifest: list[str] = field(default_factory=list)
    specs: dict[str, RunSpec] = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    completed: set[str] = field(default_factory=set)
    failed: dict[str, dict] = field(default_factory=dict)
    sealed: str | None = None

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
    ``failed`` state for its spec (a forced resume re-ran it), and a
    ``resume`` after a seal reopens the campaign.  Any other record kind
    is ignored: older builds wrote four more, and their journals resume
    with every slot neither completed nor failed pending.
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
        elif kind == "completed":
            state.failed.pop(key, None)
            state.completed.add(key)
        elif kind == "failed":
            state.failed[key] = record
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
        self._previous: dict[int, object] = {}

    def _handle(self, signum: int, frame: object) -> None:
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


# -- the campaign driver -----------------------------------------------------


def _failure_from_record(record: dict) -> RunFailure:
    return RunFailure(
        workloads=tuple(record.get("workloads", ())),
        fingerprint=record.get("fingerprint", ""),
        kind=record.get("kind", "error"),
        error=record.get("error", ""),
        attempts=int(record.get("attempts", 0)),
    )


class _Campaign:
    """A journaled campaign, as :func:`drive_campaign` sees it.

    The driver tells it how many specs are about to be dispatched
    (:meth:`begin`), each terminal outcome as it lands (:meth:`landed`,
    after the result's cache entry is stored) and the end (:meth:`seal`);
    :meth:`supervised` wraps the dispatch in the drain supervisor.
    ``resumed`` campaigns journal a ``resume`` record at :meth:`begin`.
    Whoever builds one holds the campaign lock until the seal.
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

    def settled(self) -> tuple[dict, dict]:
        """Outcomes and sources of the slots the journal already settled.

        Failed specs stay settled on a resume without ``force`` (which
        clears them from the state first).
        """
        outcomes = {
            key: _failure_from_record(record)
            for key, record in self.state.failed.items()
        }
        return outcomes, dict.fromkeys(outcomes, "journal")

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

    def begin(self, pending: int) -> None:
        """Journal a resume, with ``pending`` specs about to be dispatched."""
        if not self.resumed:
            return
        state = self.state
        completed = len(state.completed)
        self.journal.append(
            {"type": "resume", "campaign": state.campaign_id,
             "pid": os.getpid(), "completed": completed,
             "pending": pending, "force": self.force}
        )
        if self.telemetry is not None:
            self.telemetry.emit(
                EventType.CAMPAIGN_RESUME,
                cycle=0,
                data={"campaign": state.campaign_id,
                      "completed": completed, "pending": pending},
            )

    def landed(
        self, key: str, outcome: RunResult | RunFailure
    ) -> None:
        """Journal one terminal outcome.

        An ``interrupted`` slot is not journaled: a resume dispatches
        every slot that is neither completed nor failed.
        """
        if not isinstance(outcome, RunFailure):
            self.journal.append({"type": "completed", "fingerprint": key})
            self.state.completed.add(key)
        elif outcome.kind != "interrupted":
            record = {
                "type": "failed", "fingerprint": key, "kind": outcome.kind,
                "error": outcome.error, "attempts": outcome.attempts,
                "workloads": list(outcome.workloads),
            }
            self.journal.append(record)
            self.state.failed[key] = record

    @contextmanager
    def supervised(self):
        """Drain on SIGTERM/SIGINT while the campaign dispatches."""
        supervisor = _DrainSupervisor()
        supervisor.install()
        try:
            yield
        finally:
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
    (``cache``/``batch``/``pool``/``serial``, ``journal`` on a resume,
    ``drained`` when interrupted) and, for batch lanes, which
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
    ``campaign``.  With one, the journal is told how much is about to be
    dispatched (a resume record), each terminal outcome as it lands, and
    the seal, so a driver killed midway loses no finished spec.
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
                campaign.begin(len(ledger.work))
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
    ``raise_on_error=False``) plus the durable contract: the campaign lock
    is held from before the journal is read to the seal, the submit is
    journaled before dispatch, each spec's outcome is journaled as it
    lands (its cache entry first), SIGTERM/SIGINT drain gracefully into a
    ``resumable`` seal, and a later :func:`resume_campaign` (or ``repro
    campaign resume``) completes the tail with results byte-identical to
    an uninterrupted run.  A driver killed outright keeps every spec that
    had finished.

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
    try:
        lock = journal.lock()
    except OSError:
        lock = None  # an unwritable cache dir: see below
    with lock or nullcontext():
        if lock is not None and journal.exists():
            existing = replay(journal)
            if existing.manifest != manifest:
                raise SimulationError(
                    f"campaign {campaign_id} already has a journal with a "
                    f"different manifest ({len(existing.manifest)} slot(s) "
                    f"vs {len(manifest)}); pick another campaign_id or "
                    "resume it"
                )
            return _resume(
                journal, existing, jobs=jobs, raise_on_error=raise_on_error,
                telemetry=telemetry,
            )
        state = CampaignState(
            campaign_id=campaign_id,
            manifest=manifest,
            specs=dict(zip(manifest, spec_list, strict=True)),
            options={"timeout": timeout, "retries": retries, "batch": batch},
        )
        campaign: _Campaign | None = None
        if lock is not None:
            campaign = _Campaign(journal, state, telemetry)
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
                campaign = None
        if campaign is None:
            # No journal could be started (an unwritable cache dir), so
            # there is nothing to resume: run the specs as a plain batch,
            # whose failed cache writes are counted rather than raised.
            RUNNER_METRICS.inc("runner.campaign_unjournaled")
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
    retries: int | None = None,
) -> list[RunResult | RunFailure]:
    """Replay a campaign's journal and finish its unfinished tail.

    Recovery steps, in order:

    1. **lock** — resolve ``campaign_id`` (unique prefixes match, like
       git) and take the campaign lock.  A lock held by another process
       means a live driver: refuse, loudly.  A driver that died, however
       it died, held no lock past its death;
    2. **replay** — fold the journal into the campaign state.  Failed
       specs stay settled unless ``force=True`` returns them to the tail;
       every other slot that is not completed is pending;
    3. **dispatch** — :func:`drive_campaign` runs the rest.  Its cache
       lookup verifies every ``completed`` fingerprint through the cache's
       checked reader (``runner.campaign_verified``); a divergent entry is
       quarantined by the reader and the spec re-runs
       (``runner.campaign_reverify_missing``).  The merged per-slot
       result list is byte-identical to an uninterrupted run.

    ``retries`` overrides the journaled retry budget when given (e.g.
    granting a failed spec more retries on a forced resume).
    """
    if cache_dir is None:
        raise SimulationError(
            "durable campaigns need a cache_dir (the journal lives there)"
        )
    journal = _find_journal(Path(cache_dir), campaign_id)
    with journal.lock():
        return _resume(
            journal, replay(journal), jobs=jobs, force=force,
            raise_on_error=raise_on_error, telemetry=telemetry,
            retries=retries,
        )


def _resume(
    journal: CampaignJournal,
    state: CampaignState,
    *,
    jobs: int | None,
    raise_on_error: bool,
    telemetry,
    force: bool = False,
    retries: int | None = None,
) -> list[RunResult | RunFailure]:
    """Drive a replayed campaign again; the caller holds its lock."""
    RUNNER_METRICS.inc("runner.campaign_resumes")
    if force:
        state.failed.clear()
    options = state.options
    return drive_campaign(
        [state.specs[key] for key in state.manifest],
        directory=journal.cache_dir,
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
                "sealed": state.sealed or "open",
            }
        )
    return rows


# -- cache inspection (the `repro cache` verb) -------------------------------


def _classify_quarantined(path: Path) -> str:
    """Re-derive why a quarantined cache entry was rejected.

    ``recovered`` means it would load cleanly now (e.g. a racing writer
    won); a file gone since the listing counts as ``unreadable``.
    """
    entry = _read_entry(path, path.stem)
    if isinstance(entry, str):
        return entry
    return "unreadable" if entry is None else "recovered"


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

    Powers ``repro cache``: entry count and bytes, the result format
    versions present, rollup/journal/quarantine/tmp tallies.
    Purely a reader — never mutates, quarantines, or sweeps.
    """
    directory = Path(cache_dir)
    stats = {
        "cache_dir": str(directory),
        "entries": 0,
        "bytes": 0,
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
