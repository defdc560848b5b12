"""Streaming reducers: fold an event stream into derived values online.

Campaign-scale logs (thousands of runs through ``run_many``) must never be
materialized, so these reducers consume events one at a time and hold only
*derived* state, bounded by the result's size, never by the stream's
length.  The summary fold, :class:`~repro.telemetry.summary.StreamingSummary`,
lives with the report it renders.  Every reducer is a callable, so it can
be attached directly to a live bus as a sink (``bus.add_sink(reducer)``) or
fed from any iterator.
"""

from __future__ import annotations

from .events import Event, EventType


class StreamingStallFold:
    """Online total of globally-stalled cycles (stop-and-go + safety net).

    Mirrors :func:`repro.telemetry.summary.stall_episodes` semantics —
    nested ENGAGEs collapse into one episode, an episode still open at the
    end of the stream runs to the horizon passed to :meth:`total`.
    """

    def __init__(self) -> None:
        self._stalled = 0
        self._open_since: int | None = None

    def feed(self, event: Event) -> None:
        if event.type is EventType.STOPGO_ENGAGE:
            if self._open_since is None:
                self._open_since = event.cycle
        elif event.type is EventType.STOPGO_DISENGAGE:
            if self._open_since is not None:
                self._stalled += event.cycle - self._open_since
                self._open_since = None

    __call__ = feed

    def total(self, horizon_cycle: int) -> int:
        """Stalled cycles seen so far; an open stall runs to ``horizon``."""
        stalled = self._stalled
        if self._open_since is not None:
            stalled += max(0, horizon_cycle - self._open_since)
        return stalled


class StreamingTrace:
    """Bounded legacy-trace accumulator over SENSOR_SAMPLE events.

    With ``max_rows=None`` (the default) this is exactly
    :func:`~repro.telemetry.events.trace_rows` — every sample, in order.
    With a bound, the reducer decimates by powers of two whenever the
    buffer would exceed ``max_rows``: it keeps samples whose global index
    is a multiple of the current stride, halving the kept set in place
    each time the bound is hit, so memory stays O(max_rows) on streams of
    any length while the retained rows stay evenly spaced from cycle 0.
    """

    def __init__(self, max_rows: int | None = None) -> None:
        if max_rows is not None and max_rows < 2:
            raise ValueError("max_rows must be >= 2 (or None)")
        self.max_rows = max_rows
        self.stride = 1
        self.seen = 0
        self._rows: list[tuple[int, float, float]] = []

    def feed(self, event: Event) -> None:
        if event.type is not EventType.SENSOR_SAMPLE:
            return
        index = self.seen
        self.seen += 1
        if index % self.stride:
            return
        int_rf_k = (event.data or {}).get("int_rf_k", event.value)
        self._rows.append((event.cycle, float(event.value), float(int_rf_k)))
        if self.max_rows is not None and len(self._rows) > self.max_rows:
            self._rows = self._rows[::2]
            self.stride *= 2

    __call__ = feed

    def rows(self) -> list[tuple[int, float, float]]:
        """The retained ``(cycle, hottest_k, int_rf_k)`` rows, in order."""
        return list(self._rows)
