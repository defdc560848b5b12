"""Typed telemetry events and their (de)serialization.

The heat-stroke story is an *event* story — threshold crossings, sedations
and releases, stop-and-go engagements, DVFS steps — and each of those
moments is captured as one :class:`Event`.  Events are small frozen records
with a fixed field set (``cycle``, ``type``, ``thread``, ``block``,
``value``, ``data``) so they serialize to one JSON object per line (JSONL)
and can be filtered mechanically (``repro events``).

The legacy ``(cycle, hottest_k, int_rf_k)`` tuple trace consumed by
:mod:`repro.analysis.trace` is a thin adapter over the event stream:
:func:`trace_rows` projects :attr:`EventType.SENSOR_SAMPLE` events back to
tuple rows, byte-identical to what the simulator recorded before telemetry
existed.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import SimulationError


class EventType(str, enum.Enum):
    """Every kind of event the simulator stack can emit."""

    #: periodic sensor reading (value = hottest K; data carries int-RF K)
    SENSOR_SAMPLE = "sensor_sample"
    #: a block crossed a named temperature threshold (rise or fall)
    THRESHOLD_CROSS = "threshold_cross"
    #: selective sedation gated one thread's fetch
    SEDATE = "sedate"
    #: a sedated thread was restored
    RELEASE = "release"
    #: a global stall began (stop-and-go, or the sedation safety net)
    STOPGO_ENGAGE = "stopgo_engage"
    #: the global stall ended (hottest block cooled to the resume point)
    STOPGO_DISENGAGE = "stopgo_disengage"
    #: a frequency/duty-cycle step (DVFS, TTDFS, fetch gating)
    DVFS_STEP = "dvfs_step"
    #: periodic per-thread EWMA usage snapshot at one block
    EWMA_SNAPSHOT = "ewma_snapshot"
    #: the pipeline fast-forwarded a provably idle stretch (value = span)
    IDLE_SKIP = "idle_skip"
    #: an injected sensor fault corrupted a reading (repro.faults)
    FAULT_SENSOR = "fault_sensor"
    #: an injected sampler fault missed or deferred an EWMA tick
    FAULT_SAMPLER = "fault_sampler"
    #: an injected actuator fault dropped or delayed a sedate/release
    FAULT_ACTUATOR = "fault_actuator"
    #: the intermittent-attacker schedule toggled a thread on or off
    ATTACKER_PHASE = "attacker_phase"
    #: one campaign lane finished (data: lane, source, policy, workloads)
    LANE_COMPLETE = "lane_complete"
    #: a campaign rollup was written beside the run cache (data: key, runs)
    CAMPAIGN_ROLLUP = "campaign_rollup"
    #: a journal replay resumed a campaign (data: campaign, completed, ...)
    CAMPAIGN_RESUME = "campaign_resume"


#: Event types that older builds wrote and this one no longer emits (the
#: campaign lease and circuit breaker are gone).  Readers skip them and
#: count the skips, so old logs still load; any other unknown type is an
#: error.
RETIRED_TYPES = frozenset({"campaign_lease", "breaker_open"})


#: Narrative event types — everything except the high-frequency samples.
#: ``repro events --summary`` and the pinned sequence regression use this
#: set so the story is not drowned in sensor traffic.  Sensor/sampler fault
#: events are per-reading/per-tick (dropout at rate 0.2 fires hundreds of
#: times per quantum) so they are counted, not narrated; actuator faults and
#: attacker phase flips are rare, load-bearing moments and stay in.
NARRATIVE_TYPES = frozenset(
    t for t in EventType
    if t not in (EventType.SENSOR_SAMPLE, EventType.EWMA_SNAPSHOT,
                 EventType.IDLE_SKIP, EventType.FAULT_SENSOR,
                 EventType.FAULT_SAMPLER)
)


@dataclass(frozen=True)
class Event:
    """One telemetry event.

    ``thread``/``block`` are ``None`` for chip-wide events; ``value`` is the
    type's headline number (a temperature, a span, a slowdown factor);
    ``data`` holds any JSON-able extras (direction, threshold name, EWMA
    vectors).
    """

    cycle: int
    type: EventType
    thread: int | None = None
    block: int | None = None
    value: float | None = None
    data: dict | None = field(default=None, compare=True)

    def to_dict(self) -> dict:
        payload: dict = {"cycle": self.cycle, "type": self.type.value}
        if self.thread is not None:
            payload["thread"] = self.thread
        if self.block is not None:
            payload["block"] = self.block
        if self.value is not None:
            payload["value"] = self.value
        if self.data is not None:
            payload["data"] = self.data
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> Event:
        return cls(
            cycle=payload["cycle"],
            type=EventType(payload["type"]),
            thread=payload.get("thread"),
            block=payload.get("block"),
            value=payload.get("value"),
            data=payload.get("data"),
        )


# -- the legacy-trace adapter -------------------------------------------------


def trace_row(event: Event) -> tuple[int, float, float]:
    """Project one SENSOR_SAMPLE event to a legacy trace tuple."""
    if event.type is not EventType.SENSOR_SAMPLE:
        raise SimulationError(f"not a sensor sample: {event.type.value}")
    int_rf_k = (event.data or {}).get("int_rf_k", event.value)
    return (event.cycle, float(event.value), float(int_rf_k))


def trace_rows(events: Iterable[Event]) -> list[tuple[int, float, float]]:
    """The legacy ``(cycle, hottest_k, int_rf_k)`` trace of an event stream.

    Only SENSOR_SAMPLE events contribute; everything else is skipped, so a
    full mixed log can be fed straight to
    :func:`repro.analysis.trace.strip_chart`.
    """
    return [
        trace_row(e) for e in events if e.type is EventType.SENSOR_SAMPLE
    ]


# -- JSONL streaming ----------------------------------------------------------


def write_events(events: Iterable[Event], path: str | Path) -> int:
    """Write an event stream as JSONL (one event per line); returns count."""
    count = 0
    with Path(path).open("w") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def read_events(
    path: str | Path, retired: dict[str, int] | None = None
) -> Iterator[Event]:
    """Yield events from a JSONL log written by this module.

    Records of a :data:`RETIRED_TYPES` type are skipped; ``retired``, if
    given, counts them per type.
    """
    try:
        handle = Path(path).open()
    except OSError as error:
        raise SimulationError(f"cannot read event log: {error}") from error
    with handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                name = payload["type"]
                if name in RETIRED_TYPES:
                    if retired is not None:
                        retired[name] = retired.get(name, 0) + 1
                    continue
                event = Event.from_dict(payload)
            except (ValueError, KeyError, TypeError) as error:
                raise SimulationError(
                    f"{path}:{lineno}: bad event record ({error})"
                ) from error
            yield event


def load_events(path: str | Path) -> list[Event]:
    """Read a whole JSONL event log into memory."""
    return list(read_events(path))
