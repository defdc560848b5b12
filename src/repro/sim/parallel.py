"""Parallel, cached experiment execution.

Every simulation in this package is a pure function of its configuration:
sources are seeded from ``config.seed``, sensor noise from the config's
noise seed, and workload streams from process-independent hashes.  That
makes two things safe that are normally hazardous for simulators:

* **fan-out** — independent runs can execute in worker processes
  (``ProcessPoolExecutor``) and are guaranteed to produce byte-identical
  statistics to in-process runs;
* **memoization on disk** — a run is keyed by a SHA-256 fingerprint of its
  entire configuration plus workload list, so finished results can be
  reloaded from ``.repro_cache/`` instead of re-simulated, across
  interpreter invocations.

This module is the execution half of a campaign: specs, fingerprints,
cache I/O, the worker entry points, and :func:`dispatch`, which stores
each result in the cache as it books it.  Every tier runs in one round
loop, with or without a pool (:func:`_run_rounds`): a batch group's
kernel shards are work items beside the scalar specs, and every scalar
attempt, in a worker or in-process, is one :func:`_attempt`.  Where the
lock-step kernel (:mod:`repro.sim.batch`) runs is decided here too.
The slot-level driver — dedupe, cache lookup, result slots, events,
rollup, errors — is :func:`repro.sim.durable.drive_campaign`;
:func:`run_many` is that driver without a journal.  The experiment
harness (:class:`~repro.sim.experiment.ExperimentRunner`) routes through
:func:`run_many`.

The runner is hardened against the three ways a big campaign dies
(docs/robustness.md):

* a **crashed worker** (``BrokenProcessPool``) — the round loop goes on
  without a pool: lost kernel shards and the surviving specs re-run
  in-process, instead of aborting the whole batch;
* a **hung spec** — ``timeout`` bounds every attempt with a watchdog
  thread, in a worker and in-process alike;
* a **flaky spec** — ``retries`` bounds re-attempts, with exponential
  backoff and deterministic (fingerprint-salted, never wall-clock) jitter.

With ``raise_on_error=False`` every spec that still fails after retries
yields a :class:`RunFailure` record in its result slot — partial results,
never an all-or-nothing abort.  Corrupt cache entries are quarantined to
``<cache_dir>/quarantine/`` and counted in :data:`RUNNER_METRICS`, never
silently swallowed.

The fingerprint includes a schema number and the result-format version:
bump either and old cache entries are silently ignored (never misread).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
import time
import zlib
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

from ..config import SimulationConfig
from ..errors import FaultError
from ..telemetry.metrics import MetricsRegistry
from .batch import (
    _shard_lanes,
    _trajectory_groups,
    batch_fingerprint,
    simulate_lockstep,
    trajectory_key,
)
from .results import FORMAT_VERSION, result_from_dict, result_to_dict
from .simulator import run_workloads
from .stats import RunResult

#: Cache-key schema.  Bump when the fingerprint inputs or the cached
#: payload shape change incompatibly.  Schema 2: ``SimulationConfig`` grew
#: the ``faults`` field (fault plans ride the fingerprint).
CACHE_SCHEMA = 2

#: Default on-disk cache location (relative to the current directory).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Environment variable consulted for the default worker count.
JOBS_ENV = "REPRO_BENCH_JOBS"

#: Base backoff delay (seconds) before a retry; attempt ``n`` waits
#: ``BACKOFF_BASE_S * 2**(n-1) * (1 + jitter)`` with jitter in [0, 1)
#: derived from the spec fingerprint — deterministic, not wall-clock.
BACKOFF_BASE_S = 0.05

#: Process-wide counters for the batch runner and the cache: quarantined
#: entries, retries, timeouts, pool breaks, and final failures.  A process
#: concern, not a simulation result, so it lives here rather than on any
#: per-run telemetry session.
RUNNER_METRICS = MetricsRegistry()


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation: workloads + config (+ quantum/trace).

    Frozen and built from picklable parts so it can cross a process
    boundary and be fingerprinted deterministically.  ``telemetry=True``
    attaches a fresh :class:`~repro.telemetry.TelemetrySession` inside the
    worker so the cached result carries a metrics snapshot
    (``RunResult.telemetry``); the raw event stream stays in the worker
    (stream JSONL from an in-process :class:`~repro.sim.Simulator` when the
    events themselves are needed).
    """

    workloads: tuple[str, ...]
    config: SimulationConfig
    quantum_cycles: int | None = None
    trace: bool = False
    telemetry: bool = False


@dataclass(frozen=True)
class RunFailure:
    """One spec's terminal failure record (``raise_on_error=False`` mode).

    Takes the failed spec's slot in :func:`run_many`'s result list, so a
    partial campaign stays index-aligned with its input.  ``kind`` is
    ``"timeout"``, ``"error"`` (the attempt raised; a worker crash re-runs
    its specs in-process, where an injected crash raises
    :class:`~repro.errors.FaultError`), or ``"interrupted"`` (an operator
    interrupt drained the batch before this spec finished); ``attempts``
    counts every attempt made (1 + retries at most).  Failures are never
    written to the cache.
    """

    workloads: tuple[str, ...]
    fingerprint: str
    kind: str
    error: str
    attempts: int

    @property
    def ok(self) -> bool:
        """Always False — lets ``isinstance``-free code filter slots."""
        return False


def default_jobs() -> int:
    """Worker count: ``REPRO_BENCH_JOBS`` if set, else a modest CPU share."""
    # The worker count decides WHERE specs run, never WHAT they compute;
    # results are byte-identical at any job count, so this environment read
    # cannot leak into the cache key.
    raw = os.environ.get(JOBS_ENV)  # repro: noqa(RPR001) scheduling knob, not sim state
    if raw:
        return max(1, int(raw))
    return min(4, os.cpu_count() or 1)


#: The fingerprint's JSON encoder: sorted keys, no spaces, ASCII only.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: Canonical JSON text of frozen config dataclasses, keyed by ``id``.  Each
#: entry holds its node, so no other object can take that id while the
#: entry lives; the memo empties when full, like the thermal propagator
#: cache.  Specs of one campaign share their sub-configs object for object,
#: so most nodes are encoded once per process.
_CANONICAL: dict[int, tuple[object, str]] = {}
_CANONICAL_LIMIT = 1024


def _has_dataclass(value) -> bool:
    if hasattr(value, "__dataclass_fields__"):
        return True
    return isinstance(value, (list, tuple)) and any(map(_has_dataclass, value))


def _leaf(value) -> str:
    """``_ENCODE(value)`` with the common scalars spelled out, as the
    encoder spells them, to skip building an encoder per call."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    return _ENCODE(value)


def _object_text(members: dict[str, str]) -> str:
    """A JSON object from already-encoded member values, keys sorted."""
    return "{" + ",".join(
        f"{encode_basestring_ascii(key)}:{members[key]}"
        for key in sorted(members)
    ) + "}"


def _canonical(node) -> str:
    """``_ENCODE(dataclasses.asdict(node))``, memoized per frozen dataclass.

    Dataclasses become objects of their fields and tuples become arrays,
    as in ``asdict``; a node with no dataclass below it is one encoder
    call, and a value JSON cannot encode raises instead of keying
    unstably.  Only frozen nodes are memoized: their fields cannot be
    reassigned, and every config dataclass holds tuples, not lists.
    """
    if isinstance(node, (list, tuple)):
        return "[" + ",".join(map(_canonical, node)) + "]"
    if not hasattr(node, "__dataclass_fields__"):
        return _leaf(node)
    entry = _CANONICAL.get(id(node))
    if entry is not None:
        return entry[1]
    values = {
        field.name: getattr(node, field.name)
        for field in dataclasses.fields(node)
    }
    if any(map(_has_dataclass, values.values())):
        text = _object_text(
            {name: _canonical(value) for name, value in values.items()}
        )
    else:
        text = _ENCODE(values)
    if node.__dataclass_params__.frozen:
        if len(_CANONICAL) >= _CANONICAL_LIMIT:
            _CANONICAL.clear()
        _CANONICAL[id(node)] = (node, text)
    return text


def spec_fingerprint(spec: RunSpec) -> str:
    """Deterministic SHA-256 key for one spec.

    Hashes the *entire* configuration tree (every dataclass field), so any
    parameter change — thermal constants, cache geometry, seeds — yields a
    different key.  The preimage is ``json.dumps`` of the payload with
    ``config`` as ``dataclasses.asdict`` gives it, sorted keys and no
    spaces, which keeps the byte stream stable across interpreter runs; it
    is composed from the memoized text of each frozen sub-config
    (:func:`_canonical`).  There is deliberately no ``default=`` hook, so a
    non-JSON-able config field is a loud error rather than a silently
    unstable key.
    """
    members = {
        "schema": _leaf(CACHE_SCHEMA),
        "result_format": _leaf(FORMAT_VERSION),
        "kind": _leaf(type(spec).__name__),
        "config": _canonical(spec.config),
        "workloads": _canonical(spec.workloads),
        "quantum_cycles": _leaf(spec.quantum_cycles),
        "trace": _leaf(spec.trace),
    }
    # Only keyed when on: every telemetry-off fingerprint is byte-stable
    # with the pre-telemetry schema, so existing caches stay warm.
    if spec.telemetry:
        members["telemetry"] = "true"
    blob = _object_text(members)
    return hashlib.sha256(blob.encode()).hexdigest()


# -- worker entry point ------------------------------------------------------

#: True only in pool worker processes (set by the pool initializer).  The
#: injected-crash chaos hook hard-kills real workers but merely raises when
#: executed in-process — a chaos plan must never take down the caller.
_IN_WORKER = False


def _mark_worker() -> None:
    """ProcessPoolExecutor initializer: flag this process as a worker."""
    global _IN_WORKER
    _IN_WORKER = True


def _execute(spec: RunSpec) -> RunResult:
    """Run one spec.  Module-level so ProcessPoolExecutor can pickle it."""
    session = None
    if spec.telemetry:
        from ..telemetry import TelemetrySession

        session = TelemetrySession()
    return run_workloads(
        spec.config,
        list(spec.workloads),
        quantum_cycles=spec.quantum_cycles,
        trace=spec.trace,
        telemetry=session,
    )


#: Spec fingerprints whose injected ``interrupt_attempts`` chaos hook has
#: already fired in this process.  The hook fires once per process so that
#: an in-process resume of the interrupted campaign can make progress —
#: mirroring a real operator interrupt, which does not repeat on resume.
_INTERRUPTED_ONCE: set[str] = set()


def _execute_attempt(spec: RunSpec, attempt: int) -> RunResult:
    """Run one spec's attempt number ``attempt``, honoring worker chaos.

    The :class:`~repro.faults.plan.WorkerFaultPlan` hooks fire on attempt
    numbers below their thresholds, so "crash the first attempt, succeed on
    retry" is a deterministic property of the spec — it reproduces
    identically at any job count.
    """
    plan = spec.config.faults
    chaos = plan.worker if plan is not None else None
    if chaos is not None:
        if attempt < chaos.interrupt_attempts:
            key = spec_fingerprint(spec)
            if key not in _INTERRUPTED_ONCE:
                _INTERRUPTED_ONCE.add(key)
                raise KeyboardInterrupt(
                    f"injected operator interrupt (attempt {attempt})"
                )
        if attempt < chaos.crash_attempts:
            if _IN_WORKER:
                os._exit(13)  # hard worker death: the pool breaks
            raise FaultError(f"injected worker crash (attempt {attempt})")
        if attempt < chaos.hang_attempts:
            # A hung worker, not a simulation event: wall sleep is the
            # point, and the per-spec timeout is what must catch it.
            time.sleep(chaos.hang_seconds)
        if attempt < chaos.fail_attempts:
            raise FaultError(f"injected transient failure (attempt {attempt})")
    return _execute(spec)


def _call_with_watchdog(call, budget: float, overrun: str):
    """``call()`` under a wall-clock budget; ``TimeoutError(overrun)`` past it.

    The call runs in a daemon thread; if it outlives ``budget`` the caller
    moves on (the thread is abandoned — it holds no locks and its
    simulator state is garbage the moment we stop waiting).  Whatever the
    call raises, ``KeyboardInterrupt`` included, is re-raised here.
    """
    box: list = []

    def _target() -> None:
        try:
            box.append(("ok", call()))
        except BaseException as error:  # noqa: BLE001 - re-raised below
            box.append(("error", error))

    thread = threading.Thread(target=_target, daemon=True)
    thread.start()
    thread.join(budget)
    if thread.is_alive():
        raise TimeoutError(overrun)
    status, value = box[0]
    if status == "error":
        raise value
    return value


def _attempt(
    spec: RunSpec, attempt: int, timeout: float | None
) -> tuple[str, object]:
    """One attempt, in a worker or in-process: ``(status, value)``.

    ``("ok", result)``, ``("timeout", message)`` or ``("error", message)``.
    Under ``timeout`` the attempt runs under a watchdog, so a hung spec
    cannot eat the time of the specs after it.  ``KeyboardInterrupt``
    propagates: an interrupt drains, it is not a failed attempt.
    """
    try:
        if timeout is None:
            value = _execute_attempt(spec, attempt)
        else:
            value = _call_with_watchdog(
                lambda: _execute_attempt(spec, attempt),
                timeout,
                f"spec exceeded {timeout:.3f}s (watchdog)",
            )
    except TimeoutError as error:
        return "timeout", str(error)
    except Exception as error:
        return "error", f"{type(error).__name__}: {error}"
    return "ok", value


def _execute_chunk(
    items: list[tuple[RunSpec, int]], timeout: float | None
) -> list[tuple[str, object]]:
    """Pool worker entry point: one :func:`_attempt` per (spec, attempt).

    The slots are index-aligned with the input.  An injected worker crash
    hard-kills the process: the chunk's completed slots die with it and
    its specs re-run in-process (the pool-break path).
    """
    return [_attempt(spec, attempt, timeout) for spec, attempt in items]


def _backoff_seconds(key: str, attempt: int) -> float:
    """Exponential backoff with deterministic, fingerprint-salted jitter.

    Two specs retrying in lockstep get different jitter (their fingerprints
    differ), and the same spec gets the same schedule on every machine —
    no wall clock, no global RNG, nothing the determinism lint forbids.
    """
    jitter = zlib.crc32(f"{key}:{attempt}".encode()) / 2**32
    return BACKOFF_BASE_S * (2 ** (attempt - 1)) * (1.0 + jitter)


# -- on-disk cache -----------------------------------------------------------


def _cache_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / f"{key}.json"


#: Subdirectory of the cache that receives corrupt entries.
QUARANTINE_DIR = "quarantine"


def _quarantine(cache_dir: Path, path: Path, reason: str) -> None:
    """Move one unreadable cache entry aside and count it.

    Quarantined files keep their name under ``<cache_dir>/quarantine/`` so
    a human (or a bug report) can inspect exactly what was on disk; the
    entry becomes a plain miss and is re-simulated.  Never raises — cache
    hygiene must not take down a campaign.
    """
    quarantine = cache_dir / QUARANTINE_DIR
    try:
        quarantine.mkdir(parents=True, exist_ok=True)
        os.replace(path, quarantine / path.name)
    except OSError:
        return
    RUNNER_METRICS.inc("cache.quarantined")
    RUNNER_METRICS.inc(f"cache.quarantined.{reason}")


def _read_entry(path: str | Path, key: str) -> RunResult | str | None:
    """Read one cache entry: its result, ``None`` if there is no file, or
    why it is rejected.

    The reasons are ``unreadable`` (the file cannot be read or parsed),
    ``fingerprint_mismatch`` (it was stored under another key) and
    ``bad_shape`` (parsed JSON whose shape no longer matches the result
    format: a stale or mangled entry).  The cache's checked reader and
    the quarantine inspector both decide through here.
    """
    try:
        with open(path, "rb") as handle:
            payload = json.loads(handle.read())
    except FileNotFoundError:
        return None
    except (OSError, ValueError):
        return "unreadable"
    try:
        if payload.get("fingerprint") != key:
            return "fingerprint_mismatch"
        return result_from_dict(payload["result"])
    except Exception:
        return "bad_shape"


def _cache_load(
    cache_dir: Path | None, key: str
) -> RunResult | None:
    """The cache's checked reader: a hit, or ``None`` for a miss.

    A missing file is a plain miss.  A rejected entry is corruption, not
    a miss: it is quarantined so it is observable and inspectable, and
    the spec re-runs.
    """
    if cache_dir is None:
        return None
    # A plain string path: a hit builds no ``Path`` object.
    path = os.path.join(cache_dir, f"{key}.json")
    entry = _read_entry(path, key)
    if isinstance(entry, str):
        _quarantine(cache_dir, Path(path), entry)
        return None
    return entry


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe; unknowable pids count as alive."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # PermissionError included: the pid exists
    return True


def _sweep_stale_tmp(cache_dir: Path) -> int:
    """Remove ``*.tmp`` files stranded by dead writers; returns the count.

    Tmp names embed the writer's pid (``<key>.json.<pid>.tmp``); a tmp file
    whose pid is no longer alive can never be published and is deleted.
    Live writers' files are left alone — no wall-clock ageing involved.
    """
    removed = 0
    for tmp in sorted(cache_dir.glob("*.json.*.tmp")):
        try:
            pid = int(tmp.suffixes[-2].lstrip("."))
        except (ValueError, IndexError):
            continue
        if pid_alive(pid):
            continue  # an in-flight write (or an unknowable pid): leave it
        try:
            tmp.unlink()
            removed += 1
        except OSError:
            continue
    if removed:
        RUNNER_METRICS.inc("cache.stale_tmp_removed", removed)
    return removed


def _cache_store(
    cache_dir: Path | None,
    key: str,
    spec: RunSpec,
    result: RunResult,
) -> None:
    if cache_dir is None:
        return
    body = {
        "result": result_to_dict(result),
        "fingerprint": key,
        "workloads": list(spec.workloads),
    }
    path = _cache_path(cache_dir, key)
    # Atomic publish: concurrent writers (parallel pytest sessions) race
    # benignly — both write identical bytes and os.replace is atomic.  The
    # finally clause keeps a failed write (ENOSPC, a signal between
    # write_text and replace) from stranding the tmp file.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_text(json.dumps(body, separators=(",", ":")))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError:
        # The result is in hand; losing its cache entry only costs a re-run
        # (a resumed campaign re-simulates a completed key with no entry).
        RUNNER_METRICS.inc("cache.store_failures")


# -- the batch runner --------------------------------------------------------


class _Pool(ProcessPoolExecutor):
    """A run's worker pool; it remembers its futures to know how to close."""

    def __init__(self, workers: int) -> None:
        super().__init__(max_workers=workers, initializer=_mark_worker)
        self._futures: list = []

    def submit(self, *args, **kwargs):
        future = super().submit(*args, **kwargs)
        self._futures.append(future)
        return future

    def close(self) -> None:
        """Cancel what never started, then shut down.

        The workers are joined, so none outlives the run, unless a future
        is still running after the caller stopped waiting for it (a
        timeout, or a drain that gave up): a hung worker must not stall
        the run past its timeout, so that pool is left to die with the
        interpreter.
        """
        for future in self._futures:
            future.cancel()
        self.shutdown(wait=all(future.done() for future in self._futures))


class _Ledger:
    """One dispatch's books: its specs, attempt counts and landed outcomes.

    :meth:`book` is the only way an outcome lands.  A result is stored in
    the cache at once, so a driver killed a moment later loses nothing
    that had finished, and every outcome is then handed to ``landed``,
    the caller's hook (a durable campaign journals it there).  ``sources``
    names the tier that booked each outcome and ``lane_info`` tags batch
    lanes with their cohorts.
    """

    def __init__(
        self,
        work: list[tuple[str, RunSpec]],
        directory: Path | None,
        timeout: float | None,
        retries: int,
        landed=None,
    ) -> None:
        self.work = work
        self.specs = dict(work)
        self.attempts = dict.fromkeys(self.specs, 0)
        self.outcomes: dict[str, RunResult | RunFailure] = {}
        self.sources: dict[str, str] = {}
        self.lane_info: dict[str, dict] = {}
        self.directory = directory
        self.timeout = timeout
        self.retries = retries
        self._landed = landed

    def book(
        self, key: str, outcome: RunResult | RunFailure,
        source: str,
    ) -> None:
        self.outcomes[key] = outcome
        self.sources[key] = source
        if not isinstance(outcome, RunFailure):
            _cache_store(self.directory, key, self.specs[key], outcome)
        if self._landed is not None:
            self._landed(key, outcome)

    def unresolved(self) -> list[tuple[str, RunSpec]]:
        return [(key, spec) for key, spec in self.work if key not in self.outcomes]

    @property
    def interrupted(self) -> bool:
        return any(
            isinstance(outcome, RunFailure) and outcome.kind == "interrupted"
            for outcome in self.outcomes.values()
        )

    def fail(
        self, key: str, kind: str, message: str, source: str,
        retry_list: list[tuple[str, RunSpec]],
    ) -> None:
        """Book one failed attempt: queue a retry or book the RunFailure."""
        self.attempts[key] += 1
        RUNNER_METRICS.inc(f"runner.attempt_{kind}")
        if self.attempts[key] > self.retries:
            RUNNER_METRICS.inc("runner.failures")
            self.book(key, self._failure(key, kind, message), source)
        else:
            RUNNER_METRICS.inc("runner.retries")
            retry_list.append((key, self.specs[key]))

    def interrupt_rest(self) -> None:
        """Book an ``interrupted`` failure for every still-unresolved spec.

        Interrupted slots are bookkeeping, not failed attempts: they consume
        no retry budget and do not count toward ``runner.failures`` — a
        resumed campaign re-dispatches them.
        """
        for key, _ in self.unresolved():
            RUNNER_METRICS.inc("runner.interrupted_specs")
            self.book(
                key,
                self._failure(
                    key, "interrupted", "operator interrupt before completion"
                ),
                "drained",
            )

    def _failure(self, key: str, kind: str, message: str) -> RunFailure:
        return RunFailure(
            workloads=self.specs[key].workloads,
            fingerprint=key,
            kind=kind,
            error=message,
            attempts=self.attempts[key],
        )


#: Extra wall seconds granted to a chunk future beyond the sum of its
#: specs' own watchdog budgets (process spawn, pickling, scheduling).
CHUNK_TIMEOUT_GRACE_S = 5.0


def _chunk_size(pending: int, workers: int) -> int:
    """Adaptive chunk size: ~4 chunks per worker.

    Large sweeps amortize submission/pickling overhead over many specs per
    future while keeping enough chunks in flight (4× the worker count) that
    an unlucky slow chunk cannot straggle the whole round.  Small batches
    degenerate to one spec per future — exactly the previous behavior.
    """
    return max(1, pending // (4 * workers))


#: Wall seconds an already-running pool future (a chunk or a kernel shard)
#: is granted to finish after an operator interrupt (the graceful-drain
#: budget).  Never-started futures are cancelled outright; once one running
#: future overstays this grace the remaining ones are abandoned without
#: further waiting.
DRAIN_GRACE_S = 5.0


class _Group:
    """The cohort tags of one batch group's booked lanes.

    Each kernel call numbers its cohorts from 0 in completion order.  The
    group's shards land one by one, so a landing shard's ordinals are
    offset past the cohorts already booked, keeping them unique across
    the group, and every tag's ``cohorts`` is the group's count so far.
    """

    def __init__(self) -> None:
        self.cohorts = 0
        self.tags: list[dict] = []

    def tag(self, shape: dict) -> list[dict]:
        """One tag per lane of a finished shard, from its shape metrics."""
        offset = self.cohorts
        self.cohorts += shape["cohorts"]
        tags = [
            {"cohorts": 0, "cohort": offset + ordinal}
            for ordinal in shape["lane_cohorts"]
        ]
        self.tags += tags
        for tag in self.tags:
            tag["cohorts"] = self.cohorts
        return tags


@dataclass(eq=False)
class _Shard:
    """Lanes of one batch group that run as one kernel call.

    A group's first shard is ``local``: this process runs it.  The others
    are pool work items until a pool breaks; then every shard is local.
    ``settled`` turns true once the shard's lanes are booked or sent to
    the scalar tier.
    """

    members: list[tuple[str, RunSpec]]
    group: _Group
    local: bool
    settled: bool = False

    @property
    def specs(self) -> list[RunSpec]:
        return [spec for _, spec in self.members]


def _lockstep_groups(
    work: list[tuple[str, RunSpec]],
) -> list[list[tuple[str, RunSpec]]]:
    """The batch tier's groups: one member list per batch fingerprint.

    Groups the pending specs by :func:`~repro.sim.batch.batch_fingerprint`.
    Lanes whose trajectory is *unique* within their group amortize nothing
    — the kernel would run them one pipeline each, pure overhead over a
    scalar run — so they stay with the scalar tiers; this also covers the
    width-1 case (a singleton group is optimal scalar work).
    """
    groups: dict[str, list[tuple[str, RunSpec]]] = {}
    for key, spec in work:
        group_key = batch_fingerprint(spec)
        if group_key is not None:
            groups.setdefault(group_key, []).append((key, spec))
    calls = []
    for candidates in groups.values():
        lane_counts: dict[str, int] = {}
        for _, spec in candidates:
            t_key = trajectory_key(spec)
            lane_counts[t_key] = lane_counts.get(t_key, 0) + 1
        members = [
            (key, spec)
            for key, spec in candidates
            if lane_counts[trajectory_key(spec)] >= 2
        ]
        if len(members) >= 2:
            calls.append(members)
    return calls


def _plan_shards(work: list[tuple[str, RunSpec]], workers: int) -> list[_Shard]:
    """Every batch group's kernel shards, planned before anything runs.

    Each of :func:`_lockstep_groups`' groups splits by trajectory into up
    to ``workers`` shards (:func:`~repro.sim.batch._shard_lanes`); trajectory
    groups never interact, so each shard's lanes are the same bytes as in
    one whole call.
    """
    shards = []
    for members in _lockstep_groups(work):
        by_trajectory = _trajectory_groups([spec for _, spec in members])
        RUNNER_METRICS.inc("runner.batch_groups")
        RUNNER_METRICS.inc("runner.batch_lanes", len(members))
        RUNNER_METRICS.inc("runner.batch_trajectories", len(by_trajectory))
        group = _Group()
        for index, lanes in enumerate(_shard_lanes(by_trajectory, workers)):
            shards.append(
                _Shard([members[lane] for lane in lanes], group, index == 0)
            )
    return shards


def _execute_shard(specs: list[RunSpec]) -> tuple[dict[int, RunResult], dict]:
    """Pool worker entry point: one kernel call and its shape metrics."""
    shape: dict = {}
    return simulate_lockstep(specs, shape), shape


def _run_shard_here(
    shard: _Shard, ledger: _Ledger, fallback: list[tuple[str, RunSpec]]
) -> None:
    """Run one shard in this process, as a kernel call.

    Under ``timeout`` the call gets ``timeout`` × its lanes, since it does
    at most their scalar work.  A call that raises or overruns sends its
    lanes to ``fallback`` (:func:`_shard_failed`).
    """
    specs = shard.specs
    shape: dict = {}
    try:
        if ledger.timeout is None:
            lane_results = simulate_lockstep(specs, shape)
        else:
            lane_results = _call_with_watchdog(
                lambda: simulate_lockstep(specs, shape),
                ledger.timeout * len(specs),
                "kernel shard exceeded its time budget",
            )
    except Exception:
        _shard_failed(shard, fallback)
    else:
        _book_shard(shard, lane_results, shape, ledger)


def _shard_failed(shard: _Shard, fallback: list[tuple[str, RunSpec]]) -> None:
    """A failed shard, remote or local, sends only its lanes scalar.

    The kernel is an accelerator, not an attempt: the failure counts once
    in ``runner.batch_errors`` and books no attempt, so retry budgets are
    untouched.
    """
    shard.settled = True
    RUNNER_METRICS.inc("runner.batch_errors")
    fallback.extend(shard.members)


def _book_shard(
    shard: _Shard, lane_results: dict[int, RunResult], shape: dict,
    ledger: _Ledger,
) -> None:
    """Book one finished shard's lanes, tagged with their cohorts."""
    shard.settled = True
    tags = shard.group.tag(shape)
    for lane, (key, _) in enumerate(shard.members):
        ledger.lane_info[key] = tags[lane]
        ledger.book(key, lane_results[lane], "batch")
    RUNNER_METRICS.inc("runner.batch_completed", len(shard.members))
    RUNNER_METRICS.inc("runner.batch_cohorts", shape["cohorts"])
    RUNNER_METRICS.inc("runner.batch_splits", shape["splits"])


def _land(
    item, value, ledger: _Ledger, fallback: list | None, source: str = "pool"
) -> None:
    """Book a shard's lanes, or a chunk's :func:`_attempt` slots as ``source``.

    A chunk's failed slots are failed attempts queued on ``fallback``; a
    drain passes ``None`` and keeps only successes.  Anything already
    booked is skipped.
    """
    if isinstance(item, _Shard):
        if not item.settled:
            _book_shard(item, *value, ledger)
        return
    for (key, _), (status, slot) in zip(item, value, strict=True):
        if key in ledger.outcomes:
            continue
        if status == "ok":
            ledger.book(key, slot, source)
        elif fallback is not None:
            ledger.fail(key, status, str(slot), source, fallback)


def _settle(future, item, ledger: _Ledger, fallback: list) -> None:
    """Wait for one pool future and book its outcome.

    A chunk's specs each run under their own watchdog in the worker, so
    its wait is a backstop: their budgets plus
    :data:`CHUNK_TIMEOUT_GRACE_S`.  A chunk that fails or overstays books
    one failed attempt per spec.  A shard is waited on for ``timeout`` ×
    its lanes; one that fails or overstays goes to the scalar tiers
    (:func:`_shard_failed`).  ``BrokenProcessPool`` propagates.
    """
    shard = isinstance(item, _Shard)
    budget = None
    if ledger.timeout is not None:
        lanes = len(item.members) if shard else len(item)
        budget = ledger.timeout * lanes
        if not shard:
            budget += CHUNK_TIMEOUT_GRACE_S
    try:
        value = future.result(timeout=budget)
    except BrokenProcessPool:
        raise
    except Exception as error:
        future.cancel()
        if shard:
            _shard_failed(item, fallback)
            return
        if isinstance(error, TimeoutError):
            kind = "timeout"
            message = str(error) or f"chunk exceeded {budget:.3f}s in worker"
        else:
            kind, message = "error", f"{type(error).__name__}: {error}"
        for key, _ in item:
            if key not in ledger.outcomes:
                ledger.fail(key, kind, message, "pool", fallback)
    else:
        _land(item, value, ledger, fallback)


def _drain_interrupted_pool(futures: list, ledger: _Ledger) -> None:
    """Bounded drain of a round after an operator interrupt.

    Futures that never started are cancelled; chunks and shards already
    running in a worker get :data:`DRAIN_GRACE_S` to finish, and what they
    return is booked normally (work already paid for is kept).  The first
    future to overstay its grace forfeits the remaining ones' wait — a
    drain must terminate even when a worker is hung.  No retries are
    queued during a drain; everything unresolved becomes an
    ``interrupted`` slot.
    """
    grace = DRAIN_GRACE_S
    for future, item in futures:
        if future.cancel():
            continue
        try:
            value = future.result(timeout=grace)
        except KeyboardInterrupt:
            # A second interrupt aborts the drain: book and get out.
            break
        except BaseException:  # noqa: BLE001 - timeout/crash: stop waiting
            grace = 0.0
            continue
        _land(item, value, ledger, None)
    ledger.interrupt_rest()


def _submit_round(
    pool: ProcessPoolExecutor,
    work: list[tuple[str, RunSpec]],
    ledger: _Ledger,
    workers: int,
    futures: list,
) -> None:
    """Submit one pool round, appending ``(future, chunk)`` per adaptive
    chunk to ``futures`` as it goes (so a broken pool or an interrupt
    mid-submission leaves exactly the submitted chunks listed)."""
    size = _chunk_size(len(work), workers)
    for start in range(0, len(work), size):
        chunk = work[start : start + size]
        futures.append(
            (
                pool.submit(
                    _execute_chunk,
                    [(spec, ledger.attempts[key]) for key, spec in chunk],
                    ledger.timeout,
                ),
                chunk,
            )
        )


def _run_rounds(
    work: list[tuple[str, RunSpec]],
    ledger: _Ledger,
    workers: int,
    shards: list[_Shard],
) -> None:
    """Run scalar specs and kernel shards in rounds, with or without a pool.

    A round makes a pool only when a worker has work: ``workers >= 2`` and
    two or more specs or a remote shard.  With a pool it submits every
    remote shard, then the specs in adaptive chunks (:func:`_chunk_size`),
    runs the local shards here meanwhile, then waits on every future in
    submission order (:func:`_settle`).  Without one it runs the local
    shards, then gives each spec one :func:`_attempt` here, booked as
    ``serial``.  Either way each attempt has its own ``timeout``.  Failed
    attempts and the lanes of failed shards go to the next round, after
    the failed attempts' backoff, on a fresh pool if it makes one.

    A ``BrokenProcessPool`` (a worker hard-died, taking every in-flight
    outcome with it) degrades instead of aborting: the loop goes on with
    ``workers = 1``, so the unsettled shards re-run here as kernel calls
    and every unresolved spec gets its attempt in-process, where an
    injected crash raises :class:`~repro.errors.FaultError` and is retried
    like any error.  A ``KeyboardInterrupt`` (Ctrl-C, or a SIGTERM that
    :mod:`repro.sim.durable` translates) anywhere in a round drains the
    futures not yet waited on (:func:`_drain_interrupted_pool`) and books
    every spec still without a result ``interrupted``.
    """
    while work or shards:
        remote = [shard for shard in shards if not shard.local]
        pool = None
        futures: list = []  # (future, _Shard or chunk), not yet waited on
        next_round: list[tuple[str, RunSpec]] = []
        try:
            # A retry round waits out its backoff; a failed shard's lanes
            # made no attempt and need none.
            time.sleep(max(
                (_backoff_seconds(key, ledger.attempts[key])
                 for key, _ in work if ledger.attempts[key]),
                default=0.0,
            ))
            if workers >= 2 and (len(work) >= 2 or remote):
                pool = _Pool(min(workers, len(work) + len(remote)))
                for shard in remote:
                    futures.append((pool.submit(_execute_shard, shard.specs), shard))
                    RUNNER_METRICS.inc("runner.batch_pool_shards")
                _submit_round(pool, work, ledger, workers, futures)
            for shard in shards:
                if shard.local:
                    _run_shard_here(shard, ledger, next_round)
            if pool is None:
                for key, spec in work:
                    slot = _attempt(spec, ledger.attempts[key], ledger.timeout)
                    _land([(key, spec)], [slot], ledger, next_round, "serial")
            while futures:
                _settle(*futures[0], ledger, next_round)
                del futures[0]
        except KeyboardInterrupt:
            RUNNER_METRICS.inc("runner.interrupts")
            _drain_interrupted_pool(futures, ledger)
            return
        except BrokenProcessPool:
            RUNNER_METRICS.inc("runner.pool_breaks")
            workers = 1
            for shard in shards:
                shard.local = True
            lost = {key for shard in shards if not shard.settled
                    for key, _ in shard.members}
            next_round = [item for item in ledger.unresolved() if item[0] not in lost]
        finally:
            if pool is not None:
                pool.close()
        shards = [shard for shard in shards if not shard.settled]
        work = next_round


def dispatch(ledger: _Ledger, jobs: int | None, batch: bool = True) -> None:
    """Run the ledger's unresolved specs through one round loop.

    Compatible specs (same machine and event grid — see
    :func:`~repro.sim.batch.batch_fingerprint`) run lock-step, one shared
    pipeline per workloads/seed trajectory (:mod:`repro.sim.batch`);
    whatever remains runs scalar.  Every outcome is booked into ``ledger``
    as it lands.

    ``jobs`` bounds the run's worker processes (``None`` uses
    :func:`default_jobs`).  With ``jobs>=2`` every batch group is split up
    front into up to ``jobs`` shards by trajectory; this process runs each
    group's first shard, and the others are pool work items.  Then
    :func:`_run_rounds` runs it all, with or without a pool.  Remote
    shards are submitted ahead of the scalar specs, so the scalar tier
    runs beside the kernel rather than after it (while this process runs
    its shards, up to ``jobs + 1`` processes simulate).  A shard that
    fails sends only its own lanes to the scalar tier.
    """
    work = ledger.unresolved()
    workers = default_jobs() if jobs is None else max(1, jobs)
    shards = _plan_shards(work, workers) if batch else []
    batched = {key for shard in shards for key, _ in shard.members}
    scalar = [(key, spec) for key, spec in work if key not in batched]
    _run_rounds(scalar, ledger, workers, shards)


def run_many(
    specs: Iterable[RunSpec],
    jobs: int | None = None,
    cache_dir: str | Path | None = DEFAULT_CACHE_DIR,
    timeout: float | None = None,
    retries: int = 0,
    raise_on_error: bool = True,
    batch: bool = True,
    telemetry=None,
) -> list[RunResult | RunFailure]:
    """Run a batch of specs, in parallel, through the on-disk cache.

    Results come back in input order.  Cache hits never touch a worker;
    duplicate specs within one batch execute once.  Cache misses go
    through :func:`dispatch`'s one round loop — the lock-step batch
    kernel and the scalar specs, with or without a process pool — and
    each result is stored in the cache as it lands.  ``batch=False``
    disables the lock-step tier (results are byte-identical either way;
    the knob exists for benchmarking and for isolating the tier in
    tests).  ``cache_dir=None``
    disables the disk cache entirely.  ``jobs`` bounds the worker
    processes (``None`` reads ``REPRO_BENCH_JOBS``, see
    :func:`default_jobs`); byte-identity holds at any ``jobs``.

    Robustness knobs (docs/robustness.md):

    * ``timeout`` — wall seconds each *attempt* may take; a spec that
      exceeds it counts as a failed attempt.  Enforced by the same
      watchdog in pool workers and in-process.
    * ``retries`` — failed attempts (timeouts, worker exceptions) are
      re-executed up to this many times, with exponential backoff and
      deterministic jitter, before the spec is declared failed.
    * ``raise_on_error`` — ``True`` (default) raises
      :class:`~repro.errors.SimulationError` naming every failed spec
      after the *whole batch* has been driven to completion; ``False``
      returns a :class:`RunFailure` in each failed spec's slot instead.

    A crashed worker process (``BrokenProcessPool``) never aborts the
    batch: the round loop goes on without a pool, so every kernel shard
    lost with the worker re-runs in this process, and so does every spec
    without a result (booked ``serial``).  A shard that fails or overruns
    ``timeout`` × its lanes sends only its own lanes to the scalar tier
    (docs/robustness.md §2.1).

    An operator interrupt (``KeyboardInterrupt``) triggers a graceful
    drain instead of an abort: dispatch stops, in-flight pool chunks get a
    bounded grace to finish, and every unfinished spec's slot is filled
    with a :class:`RunFailure`(``kind="interrupted"``).  With
    ``raise_on_error=False`` the partial, index-aligned result list is
    returned; with the default ``raise_on_error=True`` the
    ``KeyboardInterrupt`` is re-raised *after* that cleanup.

    Observability: ``telemetry`` (a
    :class:`~repro.telemetry.TelemetrySession`) receives one
    ``LANE_COMPLETE`` event per input slot — tagged with the execution
    tier that produced it and the batch cohort, if any — plus a
    ``CAMPAIGN_ROLLUP`` event when a rollup document is published.  With
    the cache enabled, every multi-spec batch writes a campaign rollup
    under ``<cache_dir>/rollups/`` (see :mod:`repro.sim.rollup` and the
    ``repro campaign-summary`` verb).

    This is :func:`repro.sim.durable.drive_campaign` without a journal;
    :func:`repro.sim.durable.run_durable` adds one.
    """
    from .durable import drive_campaign

    return drive_campaign(
        list(specs),
        directory=None if cache_dir is None else Path(cache_dir),
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        raise_on_error=raise_on_error,
        batch=batch,
        telemetry=telemetry,
    )
