"""Event-log analysis: filtering, episode extraction, and narratives.

These helpers power ``repro events`` and the telemetry tests.  They consume
plain event iterables, so they work identically on a live session's ring
buffer and on a JSONL log reloaded from disk — the §5 narratives (threshold
cross → sedate the top-EWMA thread → release) are reconstructible from a
saved log alone.  Every summary is one streaming fold,
:class:`StreamingSummary`; :func:`summarize` and the episode and count
helpers are one-shot reads of it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ..blocks import block_name
from .events import NARRATIVE_TYPES, Event, EventType


def iter_filtered(
    events: Iterable[Event],
    types: set[EventType] | None = None,
    thread: int | None = None,
    block: int | None = None,
    since: int | None = None,
    until: int | None = None,
) -> Iterator[Event]:
    """Lazily select events by type / thread / block / cycle window.

    A generator so campaign-scale logs can flow straight into the
    streaming reducers (:mod:`repro.telemetry.reducers`) without ever
    materializing the stream.
    """
    for event in events:
        if types is not None and event.type not in types:
            continue
        if thread is not None and event.thread != thread:
            continue
        if block is not None and event.block != block:
            continue
        if since is not None and event.cycle < since:
            continue
        if until is not None and event.cycle > until:
            continue
        yield event


def filter_events(
    events: Iterable[Event],
    types: set[EventType] | None = None,
    thread: int | None = None,
    block: int | None = None,
    since: int | None = None,
    until: int | None = None,
) -> list[Event]:
    """Select events by type / thread / block / cycle window."""
    return list(iter_filtered(events, types, thread, block, since, until))


#: Event types produced by :mod:`repro.faults` injectors.
FAULT_EVENT_TYPES = frozenset({
    EventType.FAULT_SENSOR,
    EventType.FAULT_SAMPLER,
    EventType.FAULT_ACTUATOR,
    EventType.ATTACKER_PHASE,
})


def narrative_line(event: Event) -> str:
    """The one human-readable line for a single narrative event."""
    where = block_name(event.block) if event.block is not None else "chip"
    temp = f" T={event.value:.2f}K" if event.value is not None else ""
    data = event.data or {}
    if event.type is EventType.THRESHOLD_CROSS:
        detail = f"{data.get('threshold', '?')} {data.get('direction', '?')}"
    elif event.type in (EventType.SEDATE, EventType.RELEASE):
        detail = f"thread {event.thread}"
        ewma = data.get("ewma")
        if ewma is not None:
            detail += f" (ewma {ewma:.2f})"
    elif event.type is EventType.DVFS_STEP:
        detail = (
            f"slowdown {data.get('slowdown')} via "
            f"{data.get('mechanism', 'dvfs')}"
        )
    elif event.type is EventType.STOPGO_ENGAGE and data.get("safety_net"):
        detail = "safety net"
    elif event.type is EventType.FAULT_ACTUATOR:
        detail = (
            f"{data.get('action', '?')} {data.get('outcome', '?')} "
            f"(thread {event.thread})"
        )
    elif event.type is EventType.ATTACKER_PHASE:
        detail = f"thread {event.thread} {data.get('phase', '?')}"
    elif event.type is EventType.LANE_COMPLETE:
        detail = (
            f"lane {data.get('lane', '?')} via {data.get('source', '?')}: "
            f"{data.get('workloads', '?')} [{data.get('policy', '?')}]"
        )
        ipc = data.get("ipc")
        if ipc is not None:
            detail += f" ipc {ipc:.3f}"
    elif event.type is EventType.CAMPAIGN_ROLLUP:
        detail = (
            f"{data.get('runs', '?')} runs -> "
            f"rollup {str(data.get('key', '?'))[:12]}"
        )
    elif event.type is EventType.CAMPAIGN_RESUME:
        detail = (
            f"campaign {data.get('campaign', '?')} resumed: "
            f"{data.get('completed', '?')} done, "
            f"{data.get('pending', '?')} pending"
        )
    else:
        detail = ""
    return (
        f"[cycle {event.cycle:>8}] {event.type.value:<18} {where:<8} "
        f"{detail}{temp}".rstrip()
    )


def batch_narrative(counters: dict[str, int]) -> list[str]:
    """Human-readable lines describing the lock-step batch tier's shape.

    ``counters`` is a flat counter mapping (e.g. ``RUNNER_METRICS.counters``
    from :mod:`repro.sim.parallel`) using the ``runner.batch_*`` keys.
    Returns no lines when the batch tier never ran — callers can append
    the section unconditionally.
    """
    lanes = counters.get("runner.batch_lanes", 0)
    if not lanes:
        return []
    groups = counters.get("runner.batch_groups", 0)
    completed = counters.get("runner.batch_completed", 0)
    cohorts = counters.get("runner.batch_cohorts", 0)
    splits = counters.get("runner.batch_splits", 0)
    errors = counters.get("runner.batch_errors", 0)
    shards = counters.get("runner.batch_pool_shards", 0)
    lines = [
        f"{lanes} lanes in {groups} lock-step groups -> {cohorts} cohorts "
        f"({splits} divergence splits)",
        f"retention {completed / lanes:.0%}: {completed} lanes completed "
        f"in-batch",
    ]
    if shards:
        lines.append(f"{shards} kernel shards ran in pool workers")
    if errors:
        lines.append(
            f"{errors} group or shard errors fell back to the scalar path"
        )
    return lines


def durable_narrative(counters: dict[str, int]) -> list[str]:
    """Human-readable lines describing durable-campaign recovery activity.

    ``counters`` is the same flat counter mapping ``batch_narrative``
    consumes (``RUNNER_METRICS.counters``), read here for the
    ``runner.campaign_*`` keys written by
    :mod:`repro.sim.durable`.  Empty when no journal-backed campaign ran
    in this process, so the section never perturbs plain-run summaries.
    """
    lines = []
    resumes = counters.get("runner.campaign_resumes", 0)
    if resumes:
        verified = counters.get("runner.campaign_verified", 0)
        missing = counters.get("runner.campaign_reverify_missing", 0)
        lines.append(
            f"{resumes} campaign resume(s): {verified} cached result(s) "
            f"verified, {missing} re-dispatched after cache divergence"
        )
    drained = counters.get("runner.campaign_drained", 0)
    if drained:
        lines.append(
            f"{drained} campaign(s) drained to a resumable seal "
            f"(`repro campaign resume` continues them)"
        )
    return lines


def sedation_episode_line(episode: dict) -> str:
    """The summary line for one SEDATE→RELEASE episode."""
    end = episode["release_cycle"]
    span = (
        f"{episode['sedate_cycle']}..{end} "
        f"({end - episode['sedate_cycle']} cycles)"
        if end is not None
        else f"{episode['sedate_cycle']}.. (open)"
    )
    release_t = episode["release_temperature_k"]
    released = (
        f", released at {release_t:.2f}K" if release_t is not None else ""
    )
    return (
        f"thread {episode['thread']} at "
        f"{block_name(episode['block'])}: {span}, sedated at "
        f"{episode['sedate_temperature_k']:.2f}K{released}"
    )


def stall_episode_line(episode: dict) -> str:
    """The summary line for one global-stall episode."""
    end = episode["disengage_cycle"]
    span = (
        f"{episode['engage_cycle']}..{end} "
        f"({end - episode['engage_cycle']} cycles)"
        if end is not None
        else f"{episode['engage_cycle']}.. (open)"
    )
    net = " [safety net]" if episode["safety_net"] else ""
    return f"{span}{net}"


def ring_narrative(ring: dict | None) -> list[str]:
    """Lines narrating ring drops / capture suppression, if any occurred.

    ``ring`` is the bus accounting (``emitted``/``dropped``/``capacity``
    plus optional ``suppressed``) from a session snapshot or a columnar
    log's metadata.  Empty when nothing was lost, so the section never
    perturbs a clean log's summary — drop-free summaries stay byte-stable
    across formats (JSONL logs carry no ring stats at all).
    """
    if not ring:
        return []
    lines = []
    dropped = ring.get("dropped", 0)
    if dropped:
        capacity = ring.get("capacity")
        sized = f" (ring capacity {capacity})" if capacity else ""
        lines.append(
            f"{dropped} of {ring.get('emitted', '?')} emitted events "
            f"dropped from the ring{sized}; raise capacity or attach a "
            f"sink (docs/telemetry.md)"
        )
    suppressed = ring.get("suppressed", 0)
    if suppressed:
        lines.append(
            f"{suppressed} events suppressed by the capture config "
            f"before recording"
        )
    return lines


class StreamingSummary:
    """Online fold behind every summary: ``events --summary`` and the reads below.

    Consumes events one at a time and holds only derived state (counts,
    episode records, narrative lines), so memory is bounded by the
    summary's size, never by the stream's length.  A callable, so it can be
    attached to a live bus as a sink (``bus.add_sink(reducer)``) or fed
    from any iterator.
    """

    def __init__(self) -> None:
        #: events per type name
        self.counts: dict[str, int] = {}
        #: injected-fault events per ``type[.kind|.outcome]``
        self.fault_counts: dict[str, int] = {}
        #: SEDATE→RELEASE episodes in sedation order; an episode still open
        #: at the end of the stream has ``release_cycle=None``
        self.sedations: list[dict] = []
        self._open_sedations: dict[tuple, dict] = {}
        #: STOPGO_ENGAGE→DISENGAGE episodes (global stalls), in order
        self.stalls: list[dict] = []
        self._open_stall: dict | None = None
        #: one line per narrative event, in stream order
        self.narrative: list[str] = []
        self.fed = 0

    def feed(self, event: Event) -> None:
        """Fold one event into every section's state."""
        self.fed += 1
        kind = event.type
        name = kind.value
        self.counts[name] = self.counts.get(name, 0) + 1

        if kind in FAULT_EVENT_TYPES:
            # Sampler and actuator faults are split by kind/outcome (miss
            # vs late, dropped vs delayed): the distinction is the point.
            data = event.data or {}
            qualifier = data.get("kind") or data.get("outcome")
            key = f"{name}.{qualifier}" if qualifier else name
            self.fault_counts[key] = self.fault_counts.get(key, 0) + 1

        if kind is EventType.SEDATE:
            episode = {
                "thread": event.thread,
                "block": event.block,
                "sedate_cycle": event.cycle,
                "sedate_temperature_k": event.value,
                "release_cycle": None,
                "release_temperature_k": None,
            }
            self.sedations.append(episode)
            self._open_sedations.setdefault(
                (event.thread, event.block), episode
            )
        elif kind is EventType.RELEASE:
            episode = self._open_sedations.pop(
                (event.thread, event.block), None
            )
            if episode is not None:
                episode["release_cycle"] = event.cycle
                episode["release_temperature_k"] = event.value
        elif kind is EventType.STOPGO_ENGAGE:
            if self._open_stall is None:
                self._open_stall = {
                    "engage_cycle": event.cycle,
                    "disengage_cycle": None,
                    "engage_temperature_k": event.value,
                    "safety_net": bool((event.data or {}).get("safety_net")),
                }
                self.stalls.append(self._open_stall)
        elif kind is EventType.STOPGO_DISENGAGE:
            if self._open_stall is not None:
                self._open_stall["disengage_cycle"] = event.cycle
                self._open_stall = None

        if kind in NARRATIVE_TYPES:
            self.narrative.append(narrative_line(event))

    __call__ = feed

    def feed_all(self, events: Iterable[Event]) -> StreamingSummary:
        for event in events:
            self.feed(event)
        return self

    def render(
        self,
        batch_counters: dict[str, int] | None = None,
        ring: dict | None = None,
        retired: dict[str, int] | None = None,
    ) -> str:
        """Counts, episodes, and the narrative — the ``--summary`` report.

        ``batch_counters``, when provided (and the batch tier actually
        ran), adds a "batch execution" section describing how the runs
        behind the log were scheduled: lock-step groups, cohort splits,
        lane retention.  ``ring`` (bus accounting) adds a "ring buffer"
        section when events were dropped or suppressed.  ``retired`` (the
        reader's count of skipped records of retired types) adds a
        "retired records skipped" section when any were skipped.
        """
        lines = ["event counts:"]
        for name, count in sorted(self.counts.items()):
            lines.append(f"  {name:<18} {count}")
        if retired:
            lines.append("retired records skipped:")
            for name, count in sorted(retired.items()):
                lines.append(f"  {name:<18} {count}")
        ring_lines = ring_narrative(ring)
        if ring_lines:
            lines.append("ring buffer:")
            lines.extend("  " + line for line in ring_lines)
        if self.sedations:
            lines.append("sedation episodes:")
            for episode in self.sedations:
                lines.append("  " + sedation_episode_line(episode))
        if self.fault_counts:
            lines.append("fault injection:")
            for name, count in sorted(self.fault_counts.items()):
                lines.append(f"  {name:<18} {count}")
        if self.stalls:
            lines.append("global stalls:")
            for episode in self.stalls:
                lines.append("  " + stall_episode_line(episode))
        if batch_counters:
            batch_lines = batch_narrative(batch_counters)
            if batch_lines:
                lines.append("batch execution:")
                lines.extend("  " + line for line in batch_lines)
            durable_lines = durable_narrative(batch_counters)
            if durable_lines:
                lines.append("campaign recovery:")
                lines.extend("  " + line for line in durable_lines)
        if self.narrative:
            lines.append("narrative:")
            lines.extend("  " + line for line in self.narrative)
        return "\n".join(lines)


# -- one-shot reads of the fold ------------------------------------------------


def counts_by_type(events: Iterable[Event]) -> dict[str, int]:
    return dict(sorted(StreamingSummary().feed_all(events).counts.items()))


def fault_injection_counts(events: Iterable[Event]) -> dict[str, int]:
    """Per-type counts of injected-fault events (empty for a clean run)."""
    fold = StreamingSummary().feed_all(events)
    return dict(sorted(fold.fault_counts.items()))


def sedation_episodes(events: Iterable[Event]) -> list[dict]:
    """SEDATE→RELEASE episodes, in sedation order."""
    return StreamingSummary().feed_all(events).sedations


def stall_episodes(events: Iterable[Event]) -> list[dict]:
    """STOPGO_ENGAGE→DISENGAGE episodes (global stalls), in order."""
    return StreamingSummary().feed_all(events).stalls


def narrative(events: Iterable[Event]) -> list[str]:
    """One human-readable line per narrative event, in log order."""
    return StreamingSummary().feed_all(events).narrative


def summarize(
    events: Iterable[Event],
    batch_counters: dict[str, int] | None = None,
    ring: dict | None = None,
) -> str:
    """The ``--summary`` report (:meth:`StreamingSummary.render`) of ``events``."""
    return StreamingSummary().feed_all(events).render(batch_counters, ring)
