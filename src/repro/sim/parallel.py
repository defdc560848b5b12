"""Parallel, cached experiment execution.

Every simulation in this package is a pure function of its configuration:
sources are seeded from ``config.seed``, sensor noise from the config's
noise seed, and workload streams from process-independent hashes.  That
makes two things safe that are normally hazardous for simulators:

* **fan-out** — independent runs can execute in worker processes
  (``ProcessPoolExecutor``) and are guaranteed to produce byte-identical
  statistics to the serial path;
* **memoization on disk** — a run is keyed by a SHA-256 fingerprint of its
  entire configuration plus workload list, so finished results can be
  reloaded from ``.repro_cache/`` instead of re-simulated, across
  interpreter invocations.

:func:`run_many` combines both: consult the cache, dispatch only the
misses, store what came back, and return results in input order.  The
experiment harness (:class:`~repro.sim.experiment.ExperimentRunner`) and
:func:`~repro.sim.campaign.run_campaign` route through it when given a
cache directory and/or a job count.

The runner is hardened against the three ways a big campaign dies
(docs/robustness.md):

* a **crashed worker** (``BrokenProcessPool``) — the surviving specs are
  re-executed serially instead of aborting the whole batch;
* a **hung spec** — ``timeout`` bounds every attempt, in the pool (via
  ``future.result(timeout)``) and serially (via a watchdog thread);
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
from pathlib import Path

from ..config import SimulationConfig
from ..errors import FaultError, SimulationError
from ..telemetry.events import EventType
from ..telemetry.metrics import MetricsRegistry
from .batch import (
    LockstepInterrupted,
    batch_fingerprint,
    simulate_lockstep,
    trajectory_key,
)
from .campaign import CampaignResult, QuantumRecord, run_campaign
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
class CampaignSpec:
    """One independent multi-quantum campaign (state persists across quanta
    *within* the campaign; campaigns are independent of each other)."""

    workloads: tuple[str, ...]
    config: SimulationConfig
    quanta: int
    quantum_cycles: int | None = None


@dataclass(frozen=True)
class RunFailure:
    """One spec's terminal failure record (``raise_on_error=False`` mode).

    Takes the failed spec's slot in :func:`run_many`'s result list, so a
    partial campaign stays index-aligned with its input.  ``kind`` is
    ``"timeout"``, ``"crash"`` (the pool broke and the serial re-run also
    failed), ``"error"``, ``"interrupted"`` (an operator interrupt drained
    the batch before this spec finished), or ``"breaker_open"`` (a durable
    campaign's circuit breaker skipped the spec — see
    :mod:`repro.sim.durable`); ``attempts`` counts every attempt made
    (1 + retries at most).  Failures are never written to the cache.
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


def spec_fingerprint(spec: RunSpec | CampaignSpec) -> str:
    """Deterministic SHA-256 key for one spec.

    Hashes the *entire* configuration tree (``dataclasses.asdict``), so any
    parameter change — thermal constants, cache geometry, seeds — yields a
    different key.  JSON with sorted keys keeps the byte stream stable
    across interpreter runs; there is deliberately no ``default=`` hook, so
    a non-JSON-able config field is a loud error rather than a silently
    unstable key.
    """
    payload: dict = {
        "schema": CACHE_SCHEMA,
        "result_format": FORMAT_VERSION,
        "kind": type(spec).__name__,
        "config": dataclasses.asdict(spec.config),
        "workloads": list(spec.workloads),
        "quantum_cycles": spec.quantum_cycles,
    }
    if isinstance(spec, RunSpec):
        payload["trace"] = spec.trace
        # Only keyed when on: every telemetry-off fingerprint is byte-stable
        # with the pre-telemetry schema, so existing caches stay warm.
        if spec.telemetry:
            payload["telemetry"] = True
    else:
        payload["quanta"] = spec.quanta
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
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


def _execute(spec: RunSpec | CampaignSpec) -> RunResult | CampaignResult:
    """Run one spec.  Module-level so ProcessPoolExecutor can pickle it."""
    if isinstance(spec, CampaignSpec):
        return run_campaign(
            spec.config,
            list(spec.workloads),
            spec.quanta,
            quantum_cycles=spec.quantum_cycles,
        )
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


def _execute_attempt(
    spec: RunSpec | CampaignSpec, attempt: int
) -> RunResult | CampaignResult:
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


def _execute_with_watchdog(
    spec: RunSpec | CampaignSpec, attempt: int, timeout: float
) -> RunResult | CampaignResult:
    """One attempt under a per-spec wall-clock timeout.

    Used serially (so the BrokenProcessPool fallback cannot hang forever on
    a spec that is itself a hang) and *inside* pool workers running a chunk
    of specs (so one hung spec cannot eat its chunk-mates' time budget).
    """
    return _call_with_watchdog(
        lambda: _execute_attempt(spec, attempt),
        timeout,
        f"spec exceeded {timeout:.3f}s (watchdog)",
    )


def _execute_chunk(
    items: list[tuple[RunSpec | CampaignSpec, int]], timeout: float | None
) -> list[tuple[str, object]]:
    """Pool worker entry point: run one chunk of (spec, attempt) pairs.

    Returns one ``(status, value)`` slot per item, index-aligned with the
    input: ``("ok", result)``, ``("timeout", message)`` or
    ``("error", message)``.  Each spec gets its *own* ``timeout`` via the
    in-worker watchdog, preserving per-spec attempt semantics even though
    the pool only sees one future per chunk.  An injected worker crash
    still hard-kills the process (the chunk's completed slots die with it
    and its specs re-run serially — the pool-break path).
    """
    results: list[tuple[str, object]] = []
    for spec, attempt in items:
        try:
            if timeout is not None:
                value = _execute_with_watchdog(spec, attempt, timeout)
            else:
                value = _execute_attempt(spec, attempt)
        except TimeoutError as error:
            results.append(("timeout", str(error)))
        except Exception as error:
            results.append(("error", f"{type(error).__name__}: {error}"))
        else:
            results.append(("ok", value))
    return results


def _backoff_seconds(key: str, attempt: int) -> float:
    """Exponential backoff with deterministic, fingerprint-salted jitter.

    Two specs retrying in lockstep get different jitter (their fingerprints
    differ), and the same spec gets the same schedule on every machine —
    no wall clock, no global RNG, nothing the determinism lint forbids.
    """
    jitter = zlib.crc32(f"{key}:{attempt}".encode()) / 2**32
    return BACKOFF_BASE_S * (2 ** (attempt - 1)) * (1.0 + jitter)


# -- on-disk cache -----------------------------------------------------------


def _campaign_to_dict(campaign: CampaignResult) -> dict:
    return {
        "workloads": list(campaign.workloads),
        "policy": campaign.policy,
        "quanta": [
            {
                "index": record.index,
                "committed": list(record.committed),
                "ipc": list(record.ipc),
                "emergencies": record.emergencies,
                "sedations": record.sedations,
            }
            for record in campaign.quanta
        ],
        "final": result_to_dict(campaign.final),
    }


def _campaign_from_dict(payload: dict) -> CampaignResult:
    return CampaignResult(
        workloads=tuple(payload["workloads"]),
        policy=payload["policy"],
        quanta=tuple(
            QuantumRecord(
                index=record["index"],
                committed=tuple(record["committed"]),
                ipc=tuple(record["ipc"]),
                emergencies=record["emergencies"],
                sedations=record["sedations"],
            )
            for record in payload["quanta"]
        ),
        final=result_from_dict(payload["final"]),
    )


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


def _cache_load(
    cache_dir: Path | None, key: str
) -> RunResult | CampaignResult | None:
    if cache_dir is None:
        return None
    path = _cache_path(cache_dir, key)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        return None  # a plain miss: nothing was ever stored
    except (OSError, ValueError):
        # The file exists but cannot be read or parsed: that is corruption,
        # not a miss — quarantine it so it is observable and inspectable.
        _quarantine(cache_dir, path, "unreadable")
        return None
    try:
        if payload.get("fingerprint") != key:
            _quarantine(cache_dir, path, "fingerprint_mismatch")
            return None
        if payload["kind"] == "campaign":
            return _campaign_from_dict(payload["result"])
        return result_from_dict(payload["result"])
    except Exception:
        # Parsed JSON whose shape no longer matches the result format —
        # a stale or mangled entry.  Quarantine rather than swallow.
        _quarantine(cache_dir, path, "bad_shape")
        return None


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
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            pass  # the writer is gone; its tmp file is garbage
        except (PermissionError, OSError):
            continue  # pid exists (or is unknowable): leave the file alone
        else:
            continue  # pid alive: an in-flight write
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
    spec: RunSpec | CampaignSpec,
    result: RunResult | CampaignResult,
) -> None:
    if cache_dir is None:
        return
    if isinstance(result, CampaignResult):
        body: dict = {"kind": "campaign", "result": _campaign_to_dict(result)}
    else:
        body = {"kind": "run", "result": result_to_dict(result)}
    body["fingerprint"] = key
    body["workloads"] = list(spec.workloads)
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


def _note_failed_attempt(
    key: str,
    spec: RunSpec | CampaignSpec,
    kind: str,
    message: str,
    attempts: dict[str, int],
    retries: int,
    outcomes: dict[str, RunResult | CampaignResult | RunFailure],
    retry_list: list[tuple[str, RunSpec | CampaignSpec]],
) -> None:
    """Book one failed attempt: queue a retry or record the RunFailure."""
    attempts[key] += 1
    RUNNER_METRICS.inc(f"runner.attempt_{kind}")
    if attempts[key] > retries:
        RUNNER_METRICS.inc("runner.failures")
        outcomes[key] = RunFailure(
            workloads=spec.workloads,
            fingerprint=key,
            kind=kind,
            error=message,
            attempts=attempts[key],
        )
    else:
        RUNNER_METRICS.inc("runner.retries")
        retry_list.append((key, spec))


def _run_serial(
    work: list[tuple[str, RunSpec | CampaignSpec]],
    attempts: dict[str, int],
    timeout: float | None,
    retries: int,
    outcomes: dict[str, RunResult | CampaignResult | RunFailure],
) -> None:
    """Execute specs in-process with the full retry/timeout discipline."""
    for key, spec in work:
        while key not in outcomes:
            attempt = attempts[key]
            try:
                if timeout is not None:
                    outcomes[key] = _execute_with_watchdog(
                        spec, attempt, timeout
                    )
                else:
                    outcomes[key] = _execute_attempt(spec, attempt)
            except TimeoutError as error:
                retry_list: list[tuple[str, RunSpec | CampaignSpec]] = []
                _note_failed_attempt(
                    key, spec, "timeout", str(error), attempts, retries,
                    outcomes, retry_list,
                )
                if retry_list:
                    time.sleep(_backoff_seconds(key, attempts[key]))
            except Exception as error:
                retry_list = []
                _note_failed_attempt(
                    key, spec, "error", f"{type(error).__name__}: {error}",
                    attempts, retries, outcomes, retry_list,
                )
                if retry_list:
                    time.sleep(_backoff_seconds(key, attempts[key]))


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


#: Wall seconds an already-running chunk is granted to finish after an
#: operator interrupt (the graceful-drain budget).  Never-started futures
#: are cancelled outright; once one running chunk overstays this grace the
#: remaining ones are abandoned without further waiting.
DRAIN_GRACE_S = 5.0


def _book_interrupted(
    work: list[tuple[str, RunSpec | CampaignSpec]],
    attempts: dict[str, int],
    outcomes: dict[str, RunResult | CampaignResult | RunFailure],
) -> None:
    """Record an ``interrupted`` failure for every still-unresolved spec.

    Interrupted slots are bookkeeping, not failed attempts: they consume no
    retry budget and do not count toward ``runner.failures`` — a resumed
    campaign re-dispatches them with their attempt counters intact.
    """
    for key, spec in work:
        if key in outcomes:
            continue
        RUNNER_METRICS.inc("runner.interrupted_specs")
        outcomes[key] = RunFailure(
            workloads=spec.workloads,
            fingerprint=key,
            kind="interrupted",
            error="operator interrupt before completion",
            attempts=attempts.get(key, 0),
        )


def _drain_interrupted_pool(
    futures: list,
    remaining: list[tuple[str, RunSpec | CampaignSpec]],
    attempts: dict[str, int],
    outcomes: dict[str, RunResult | CampaignResult | RunFailure],
) -> None:
    """Bounded drain of a pool round after an operator interrupt.

    Futures that never started are cancelled; chunks already running in a
    worker get :data:`DRAIN_GRACE_S` to finish, and their completed slots
    are booked normally (work already paid for is kept).  The first chunk
    to overstay its grace forfeits the remaining chunks' wait — a drain
    must terminate even when a worker is hung.  No retries are queued
    during a drain; everything unresolved becomes an ``interrupted`` slot.
    """
    grace = DRAIN_GRACE_S
    for future, chunk in futures:
        if future.cancel():
            continue
        try:
            slots = future.result(timeout=grace)
        except KeyboardInterrupt:
            # A second interrupt aborts the drain: book and get out.
            break
        except BaseException:  # noqa: BLE001 - timeout/crash: stop waiting
            grace = 0.0
            continue
        for (key, _spec), (status, value) in zip(chunk, slots, strict=True):
            if status == "ok" and key not in outcomes:
                outcomes[key] = value
    _book_interrupted(remaining, attempts, outcomes)


def _submit_round(
    pool: ProcessPoolExecutor,
    work: list[tuple[str, RunSpec | CampaignSpec]],
    attempts: dict[str, int],
    timeout: float | None,
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
                    [(spec, attempts[key]) for key, spec in chunk],
                    timeout,
                ),
                chunk,
            )
        )


def _run_pool(
    work: list[tuple[str, RunSpec | CampaignSpec]],
    attempts: dict[str, int],
    timeout: float | None,
    retries: int,
    outcomes: dict[str, RunResult | CampaignResult | RunFailure],
    workers: int,
    pool: ProcessPoolExecutor | None = None,
    submitted: list | tuple = (),
) -> None:
    """Execute specs in a worker pool; degrade to serial if the pool breaks.

    One pool round groups the remaining specs into adaptive chunks (see
    :func:`_chunk_size`) and submits one future per chunk; each spec inside
    a chunk still gets its own per-attempt ``timeout`` via the in-worker
    watchdog, and failed attempts requeue (with backoff) into the next
    round's pool.  A ``BrokenProcessPool`` — some worker hard-died, taking
    every in-flight future's outcome with it — falls back to
    :func:`_run_serial` for all still-unresolved specs: graceful
    degradation, not abort.  In-process, an injected crash raises
    :class:`~repro.errors.FaultError` instead of killing the caller, so
    the normal retry bookkeeping applies.

    A ``KeyboardInterrupt`` (operator Ctrl-C, supervisor SIGTERM translated
    by :mod:`repro.sim.durable`) triggers a *graceful drain* instead of a
    stack unwind: pending futures are cancelled, in-flight chunks get a
    bounded grace to finish (:func:`_drain_interrupted_pool`), and every
    spec without a result is booked as an ``interrupted``
    :class:`RunFailure` so the caller returns index-aligned partial
    results.

    ``pool`` is the run's own pool (owned and shut down by the caller):
    the first round runs on it, alongside ``submitted`` — chunks of
    ``work`` already submitted there, so they could overlap the batch
    tier.  Retry rounds always start a fresh pool, clear of hung workers.
    """
    remaining = work
    while remaining:
        shared = pool is not None
        round_pool = pool if shared else ProcessPoolExecutor(
            max_workers=min(workers, len(remaining)), initializer=_mark_worker
        )
        futures: list = list(submitted)
        pool, submitted = None, ()
        retry_list: list[tuple[str, RunSpec | CampaignSpec]] = []
        try:
            covered = {key for _, chunk in futures for key, _ in chunk}
            _submit_round(
                round_pool,
                [item for item in remaining if item[0] not in covered],
                attempts,
                timeout,
                workers,
                futures,
            )
            for future, chunk in futures:
                # The in-worker watchdogs bound each spec; the future-level
                # timeout is a backstop for a worker that never reports.
                outer = (
                    timeout * len(chunk) + CHUNK_TIMEOUT_GRACE_S
                    if timeout is not None
                    else None
                )
                try:
                    slots = future.result(timeout=outer)
                except BrokenProcessPool:
                    raise  # handled by the outer except: serial fallback
                except TimeoutError as error:
                    future.cancel()
                    message = str(error) or (
                        f"chunk exceeded {outer:.3f}s in worker"
                    )
                    for key, spec in chunk:
                        if key in outcomes:
                            continue
                        _note_failed_attempt(
                            key, spec, "timeout", message, attempts,
                            retries, outcomes, retry_list,
                        )
                except Exception as error:
                    for key, spec in chunk:
                        if key in outcomes:
                            continue
                        _note_failed_attempt(
                            key, spec, "error",
                            f"{type(error).__name__}: {error}", attempts,
                            retries, outcomes, retry_list,
                        )
                else:
                    for (key, spec), (status, value) in zip(
                        chunk, slots, strict=True
                    ):
                        if status == "ok":
                            outcomes[key] = value
                        else:
                            _note_failed_attempt(
                                key, spec, status, str(value), attempts,
                                retries, outcomes, retry_list,
                            )
        except KeyboardInterrupt:
            RUNNER_METRICS.inc("runner.interrupts")
            _drain_interrupted_pool(futures, remaining, attempts, outcomes)
            return
        except BrokenProcessPool:
            RUNNER_METRICS.inc("runner.pool_breaks")
            survivors = [
                (key, spec)
                for key, spec in remaining
                if key not in outcomes
            ] + retry_list
            _run_serial(survivors, attempts, timeout, retries, outcomes)
            return
        finally:
            # wait=False: a hung worker must not stall the batch past its
            # timeout; abandoned tasks die with the interpreter.
            if not shared:
                round_pool.shutdown(wait=False, cancel_futures=True)
        remaining = retry_list
        if remaining:
            try:
                time.sleep(
                    max(
                        _backoff_seconds(key, attempts[key])
                        for key, _ in remaining
                    )
                )
            except KeyboardInterrupt:
                RUNNER_METRICS.inc("runner.interrupts")
                _book_interrupted(remaining, attempts, outcomes)
                return


def _lockstep_groups(
    work: list[tuple[str, RunSpec | CampaignSpec]],
) -> list[list[tuple[str, RunSpec | CampaignSpec]]]:
    """The batch tier's kernel calls: one member list per call.

    Groups the pending specs by :func:`~repro.sim.batch.batch_fingerprint`.
    Lanes whose trajectory is *unique* within their group amortize nothing
    — the kernel would run them one pipeline each, pure overhead over a
    scalar run — so they stay with the scalar tiers; this also covers the
    width-1 case (a singleton group is optimal scalar work).
    """
    groups: dict[str, list[tuple[str, RunSpec | CampaignSpec]]] = {}
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


def _trajectory_count(members: list[tuple[str, RunSpec | CampaignSpec]]) -> int:
    return len({trajectory_key(spec) for _, spec in members})


def _run_lockstep_groups(
    groups: list[list[tuple[str, RunSpec | CampaignSpec]]],
    outcomes: dict[str, RunResult | CampaignResult | RunFailure],
    timeout: float | None,
    lane_info: dict[str, dict] | None = None,
    executor: ProcessPoolExecutor | None = None,
    workers: int = 1,
    after_submit=None,
) -> None:
    """The lock-step batch tier: amortize compatible specs on one pipeline.

    Runs each of :func:`_lockstep_groups`' member lists through
    :func:`~repro.sim.batch.simulate_lockstep`, which batches heterogeneous
    lanes (mixed workloads × mixed seeds) as one cohort tree per
    :func:`~repro.sim.batch.trajectory_key`.  With an ``executor`` and
    ``workers >= 2`` the call shards its trajectory groups: this process
    runs one shard, the executor the others.  Every batched lane is booked
    directly into ``outcomes`` (byte-identical to the scalar path, so
    downstream caching and dedup behave as if the scalar simulator had
    run); acting lanes are retained in-batch by cohort splitting
    (:mod:`repro.sim.cohort`), so only an engine failure or time-budget
    overrun — of the whole call, or of one remote shard — sends lanes back
    to the scalar pool/serial path, each failure counted once in
    ``runner.batch_errors``.  No attempt is ever booked here: the batch
    tier is an accelerator, not an attempt, so retry budgets are untouched.
    An interrupt books the lanes that finished, then propagates.
    ``after_submit`` is handed to every call (see
    :func:`~repro.sim.batch.simulate_lockstep`).
    """
    for members in groups:
        specs = [spec for _, spec in members]
        RUNNER_METRICS.inc("runner.batch_groups")
        RUNNER_METRICS.inc("runner.batch_lanes", len(members))
        RUNNER_METRICS.inc("runner.batch_trajectories", _trajectory_count(members))
        batch_metrics: dict = {}

        def _call(batch_specs: list = specs, shape: dict = batch_metrics):
            return simulate_lockstep(
                batch_specs, shape, executor, shards=workers,
                timeout=timeout, drain_grace=DRAIN_GRACE_S,
                after_submit=after_submit,
            )

        try:
            if timeout is None:
                lane_results = _call()
            else:
                # One shared budget: the batch does at most the work of
                # len(members) scalar runs.
                lane_results = _call_with_watchdog(
                    _call,
                    timeout * len(members),
                    "batch group exceeded its time budget",
                )
        except LockstepInterrupted as interrupt:
            _book_batch(
                members, interrupt.results, batch_metrics, outcomes, lane_info
            )
            raise
        except Exception:
            RUNNER_METRICS.inc("runner.batch_errors")
            continue  # every lane falls back to the scalar path
        # Lanes of a failed remote shard are absent: they go scalar.
        RUNNER_METRICS.inc(
            "runner.batch_errors", batch_metrics.get("failed_shards", 0)
        )
        RUNNER_METRICS.inc(
            "runner.batch_pool_shards", batch_metrics.get("shards", 1) - 1
        )
        _book_batch(members, lane_results, batch_metrics, outcomes, lane_info)


def _book_batch(
    members: list[tuple[str, RunSpec | CampaignSpec]],
    lane_results: dict[int, RunResult],
    batch_metrics: dict,
    outcomes: dict[str, RunResult | CampaignResult | RunFailure],
    lane_info: dict[str, dict] | None,
) -> None:
    """Book one kernel call's finished lanes, tagged with their cohorts."""
    lane_cohorts = batch_metrics.get("lane_cohorts") or []
    for lane, result in lane_results.items():
        outcomes[members[lane][0]] = result
        if lane_info is not None:
            info = {"cohorts": batch_metrics.get("cohorts", 0)}
            if lane < len(lane_cohorts):
                info["cohort"] = lane_cohorts[lane]
            lane_info[members[lane][0]] = info
    RUNNER_METRICS.inc("runner.batch_completed", len(lane_results))
    RUNNER_METRICS.inc("runner.batch_cohorts", batch_metrics.get("cohorts", 0))
    RUNNER_METRICS.inc("runner.batch_splits", batch_metrics.get("splits", 0))


def _emit_campaign_events(
    telemetry,
    spec_list: list[RunSpec | CampaignSpec],
    keys: list[str],
    results: list,
    sources: dict[str, str],
    lane_info: dict[str, dict],
) -> None:
    """Emit one LANE_COMPLETE per input slot on the campaign session.

    The event's ``cycle`` is the lane index (campaign sessions count lanes,
    not simulated cycles); ``data`` names the execution tier that produced
    the slot (``cache``/``batch``/``pool``/``serial``) and, for batch
    lanes, which cohort the lane ended its quantum in.
    """
    for index, (spec, key) in enumerate(zip(spec_list, keys, strict=True)):
        result = results[index]
        data: dict = {
            "lane": index,
            "source": sources.get(key, "cache"),
            "workloads": "+".join(spec.workloads),
            "policy": spec.config.dtm_policy,
        }
        info = lane_info.get(key)
        if info is not None:
            data.update(info)
        if isinstance(result, RunFailure):
            data["error"] = result.kind
        else:
            final = result.final if isinstance(result, CampaignResult) else result
            data["cycles"] = final.cycles
            data["ipc"] = final.threads[0].ipc
        telemetry.emit(
            # repro: noqa(RPR008) success and failure lanes intentionally
            # carry different keys (cycles/ipc vs error), and cohort tags
            # are batch-tier-only; tests pin this exact shape
            EventType.LANE_COMPLETE, cycle=index, data=data,
        )


def run_many(
    specs: Iterable[RunSpec | CampaignSpec],
    jobs: int | None = None,
    cache_dir: str | Path | None = DEFAULT_CACHE_DIR,
    cache: bool = True,
    timeout: float | None = None,
    retries: int = 0,
    raise_on_error: bool = True,
    batch: bool = True,
    telemetry=None,
    rollup: bool = True,
    resume: str | None = None,
) -> list[RunResult | CampaignResult | RunFailure]:
    """Run a batch of specs, in parallel, through the on-disk cache.

    Results come back in input order.  Cache hits never touch a worker;
    duplicate specs within one batch execute once.  Cache misses go through
    three tiers: compatible specs (same machine and event grid — see
    :func:`~repro.sim.batch.batch_fingerprint`) run lock-step, one shared
    pipeline per workloads/seed trajectory (:mod:`repro.sim.batch`), and
    whatever remains goes to the process pool or the serial path.
    ``batch=False`` disables the lock-step tier (results are
    byte-identical either way; the knob exists for benchmarking and for
    isolating the tier in tests).  ``cache=False`` (or ``cache_dir=None``)
    disables the disk cache entirely.

    ``jobs`` bounds the run's worker processes (``None`` uses
    :func:`default_jobs`, the ``REPRO_BENCH_JOBS`` environment variable).
    ``jobs<=1`` runs everything in-process.  With ``jobs>=2`` the run
    makes one pool of at most ``jobs`` workers, and only when a worker
    has work: two or more scalar specs, or a kernel call spanning two or
    more trajectories.  Such a call is split into up to ``jobs`` shards
    by trajectory; this process runs one and pool workers the others,
    and the scalar specs' first round is queued behind those shards, so
    it runs beside the kernel rather than after it (while this process
    runs its shard, up to ``jobs + 1`` processes simulate).
    Byte-identity holds at any ``jobs``.

    Robustness knobs (docs/robustness.md):

    * ``timeout`` — wall seconds each *attempt* may take; a spec that
      exceeds it counts as a failed attempt.  Enforced in the pool and in
      serial execution alike.
    * ``retries`` — failed attempts (timeouts, worker exceptions) are
      re-executed up to this many times, with exponential backoff and
      deterministic jitter, before the spec is declared failed.
    * ``raise_on_error`` — ``True`` (default) raises
      :class:`~repro.errors.SimulationError` naming every failed spec
      after the *whole batch* has been driven to completion; ``False``
      returns a :class:`RunFailure` in each failed spec's slot instead.

    A crashed worker process (``BrokenProcessPool``) never aborts the
    batch: every spec without a result is re-executed serially, and a
    kernel shard lost with the worker re-runs in this process.  A shard
    that fails or overruns ``timeout`` × its lanes sends only its own
    lanes to the scalar tiers (docs/robustness.md §2.1).

    An operator interrupt (``KeyboardInterrupt``) triggers a graceful
    drain instead of an abort: dispatch stops, in-flight pool chunks get a
    bounded grace to finish, completed outcomes are cached, and every
    unfinished spec's slot is filled with a
    :class:`RunFailure`(``kind="interrupted"``).  With
    ``raise_on_error=False`` the partial, index-aligned result list is
    returned; with the default ``raise_on_error=True`` the
    ``KeyboardInterrupt`` is re-raised *after* that cleanup, so the cache
    (and any durable-campaign journal) reflects everything that finished.

    ``rollup=False`` suppresses the per-batch rollup document (the durable
    layer drives several partial waves through here and publishes one
    rollup for the whole campaign itself).  ``resume=<campaign_id>``
    ignores ``specs`` (which must be empty) and replays a durable
    campaign's journal instead — a convenience alias for
    :func:`repro.sim.durable.resume_campaign`.

    Observability: ``telemetry`` (a
    :class:`~repro.telemetry.TelemetrySession`) receives one
    ``LANE_COMPLETE`` event per input slot — tagged with the execution
    tier that produced it and the batch cohort, if any — plus a
    ``CAMPAIGN_ROLLUP`` event when a rollup document is published.  With
    the cache enabled, every multi-spec batch writes a campaign rollup
    under ``<cache_dir>/rollups/`` (see :mod:`repro.sim.rollup` and the
    ``repro campaign-summary`` verb).
    """
    if retries < 0:
        raise SimulationError("retries must be >= 0")
    if timeout is not None and timeout <= 0:
        raise SimulationError("timeout must be positive")
    spec_list = list(specs)
    if resume is not None:
        if spec_list:
            raise SimulationError(
                "run_many(resume=...) replays the journal's own manifest; "
                "pass an empty spec list"
            )
        from .durable import resume_campaign

        overrides: dict = {}
        if timeout is not None:
            overrides["timeout"] = timeout
        if retries:
            overrides["retries"] = retries
        if not batch:
            overrides["batch"] = False
        return resume_campaign(
            resume,
            cache_dir=cache_dir if cache else None,
            jobs=jobs,
            raise_on_error=raise_on_error,
            telemetry=telemetry,
            **overrides,
        )
    directory = Path(cache_dir) if (cache and cache_dir is not None) else None
    if directory is not None and directory.is_dir():
        _sweep_stale_tmp(directory)

    results: list[RunResult | CampaignResult | RunFailure | None] = (
        [None] * len(spec_list)
    )
    order: list[str] = []  # first-seen fingerprints still to execute
    pending: dict[str, list[int]] = {}  # fingerprint -> indices needing it
    keys: list[str] = []  # per-slot fingerprint, input order
    sources: dict[str, str] = {}  # fingerprint -> execution tier
    lane_info: dict[str, dict] = {}  # fingerprint -> batch cohort tags
    for index, spec in enumerate(spec_list):
        key = spec_fingerprint(spec)
        keys.append(key)
        if key in pending:
            pending[key].append(index)
            continue
        hit = _cache_load(directory, key)
        if hit is not None:
            results[index] = hit
            sources[key] = "cache"
        else:
            pending[key] = [index]
            order.append(key)

    interrupted = False
    if order:
        work = [(key, spec_list[pending[key][0]]) for key in order]
        attempts = dict.fromkeys(order, 0)
        outcomes: dict[str, RunResult | CampaignResult | RunFailure] = {}
        workers = default_jobs() if jobs is None else max(1, jobs)
        groups = _lockstep_groups(work) if batch else []
        batched = {key for members in groups for key, _ in members}
        scalar = [(key, spec) for key, spec in work if key not in batched]
        # One pool per run, created only when two processes can both work:
        # scalar specs to spread, or kernel shards beyond the one this
        # process runs.  Its first scalar round is queued behind the first
        # kernel call's remote shards, before this process simulates, so
        # those specs overlap the batch tier.
        remote_shards = max(
            (min(workers, _trajectory_count(members)) - 1 for members in groups),
            default=0,
        )
        pool = None
        if workers >= 2 and (len(scalar) >= 2 or remote_shards):
            pool = ProcessPoolExecutor(
                max_workers=min(workers, len(scalar) + remote_shards),
                initializer=_mark_worker,
            )
        first_round: list = []
        unsubmitted = [scalar] if pool is not None else []
        submit_lock = threading.Lock()

        def submit_first_round() -> None:
            # Once, by whichever comes first: the first kernel call, right
            # after queueing its remote shards, or the line after the
            # batch tier.  The lock covers a kernel call still running in
            # an abandoned watchdog thread.
            with submit_lock:
                if unsubmitted:
                    try:
                        _submit_round(
                            pool, unsubmitted.pop(), attempts, timeout,
                            workers, first_round,
                        )
                    except BrokenProcessPool:
                        pass  # _run_pool meets it and falls back to serial

        try:
            _run_lockstep_groups(
                groups, outcomes, timeout, lane_info, pool, workers,
                submit_first_round,
            )
            submit_first_round()
            for key in outcomes:
                sources[key] = "batch"
            unresolved = [
                (key, spec) for key, spec in work if key not in outcomes
            ]
            if not unresolved:
                pass
            elif not first_round and (workers <= 1 or len(unresolved) == 1):
                _run_serial(unresolved, attempts, timeout, retries, outcomes)
                for key, _ in unresolved:
                    sources.setdefault(key, "serial")
            else:
                _run_pool(
                    unresolved, attempts, timeout, retries, outcomes,
                    workers, pool, first_round,
                )
                for key, _ in unresolved:
                    sources.setdefault(key, "pool")
        except KeyboardInterrupt:
            # The serial and batch tiers unwind to here on Ctrl-C/SIGTERM;
            # the pool tier drains internally and returns normally.  Either
            # way every unresolved spec gets an index-aligned slot, and a
            # scalar round still in flight drains first.
            RUNNER_METRICS.inc("runner.interrupts")
            _drain_interrupted_pool(first_round, work, attempts, outcomes)
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        for key, spec in work:
            outcome = outcomes[key]
            if isinstance(outcome, RunFailure):
                if outcome.kind == "interrupted":
                    interrupted = True
                    sources[key] = "drained"
            else:
                _cache_store(directory, key, spec, outcome)
            for index in pending[key]:
                results[index] = outcome
        if interrupted and directory is not None and directory.is_dir():
            # A drain may have abandoned workers mid-write; their tmp files
            # are dead-pid garbage once the pool is gone.
            _sweep_stale_tmp(directory)

    if telemetry is not None and telemetry.enabled:
        _emit_campaign_events(
            telemetry, spec_list, keys, results, sources, lane_info
        )
    if directory is not None and len(spec_list) >= 2 and rollup and not interrupted:
        from .rollup import build_rollup, write_rollup

        payload = build_rollup(
            list(zip(spec_list, keys, results, strict=True))
        )
        try:
            write_rollup(directory, payload)
        except OSError:
            # Derived from results in hand, like a cache entry.
            RUNNER_METRICS.inc("cache.store_failures")
        if telemetry is not None and telemetry.enabled:
            telemetry.emit(
                EventType.CAMPAIGN_ROLLUP,
                cycle=len(spec_list),
                data={
                    "key": payload["key"],
                    "runs": payload["runs"],
                    "failures": payload["failures"],
                },
            )

    failures = [r for r in results if isinstance(r, RunFailure)]
    if interrupted and raise_on_error:
        # Cleanup is done (completed outcomes cached, tmp files swept);
        # now honor the interrupt so callers' handlers still fire.
        raise KeyboardInterrupt(
            f"interrupted: {len(failures)} of {len(spec_list)} spec(s) "
            "unfinished"
        )
    if failures and raise_on_error:
        detail = "; ".join(
            f"{'+'.join(f.workloads)}: {f.kind} after {f.attempts} "
            f"attempt(s) ({f.error})"
            for f in failures[:3]
        )
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        raise SimulationError(
            f"{len(failures)} of {len(spec_list)} spec(s) failed: "
            f"{detail}{more}"
        )
    return results  # type: ignore[return-value]  # every slot is filled
