"""Temperature-trace utilities: strip charts and CSV export.

A trace is the tuple of ``(cycle, hottest_k, int_rf_k)`` rows a
:class:`~repro.sim.simulator.Simulator` records when ``run(trace=True)`` is
used.  The strip chart renders the heat-stroke sawtooth in a terminal; the
CSV export feeds external plotting.

The same rows exist inside a telemetry event log: every ``sensor_sample``
event carries the hottest-block temperature as ``value`` and the integer-RF
temperature in ``data``.  :func:`repro.telemetry.trace_row` projects one
event back to a ``TraceRow`` tuple, and :func:`strip_chart_from_events`
streams a log through :class:`~repro.telemetry.StreamingTrace` into
:func:`strip_chart`, so a chart can be rendered from a saved JSONL log with
no result file at all.
"""

from __future__ import annotations

import io
from collections.abc import Iterable, Sequence

from ..errors import SimulationError
from ..telemetry.events import Event
from ..telemetry.reducers import StreamingTrace

TraceRow = tuple[int, float, float]


def strip_chart(
    trace: Sequence[TraceRow],
    emergency_k: float | None = None,
    normal_k: float | None = None,
    width: int = 72,
    rows: int = 14,
    column: int = 2,
) -> str:
    """Render one trace column as an ASCII strip chart.

    ``column`` selects what to plot: 1 = hottest block, 2 = integer RF.
    Horizontal reference lines are labeled ``E`` (emergency) and ``N``
    (normal operating / resume) when those temperatures are supplied.
    """
    if not trace:
        raise SimulationError("empty trace (run the simulator with trace=True)")
    if column not in (1, 2):
        raise SimulationError("column must be 1 (hottest) or 2 (int RF)")
    step = max(1, len(trace) // width)
    samples = [trace[i] for i in range(0, len(trace), step)][:width]
    values = [row[column] for row in samples]
    low = min(values) - 0.3
    high = max(values) + 0.3
    grid = [[" "] * len(samples) for _ in range(rows)]
    for x, value in enumerate(values):
        level = int((value - low) / (high - low) * (rows - 1))
        grid[rows - 1 - level][x] = "*"
    band = (high - low) / rows
    lines = []
    for level, row in enumerate(grid):
        temp_at = high - level * (high - low) / (rows - 1)
        marker = " "
        if emergency_k is not None and abs(temp_at - emergency_k) < band:
            marker = "E"
        elif normal_k is not None and abs(temp_at - normal_k) < band:
            marker = "N"
        lines.append(f"{temp_at:7.1f}K {marker}|" + "".join(row))
    return "\n".join(lines)


def strip_chart_from_events(
    events: Iterable[Event], max_rows: int | None = None, **kwargs
) -> str:
    """Strip chart straight from a telemetry event stream.

    Keyword arguments are forwarded to :func:`strip_chart`.  Raises
    :class:`~repro.errors.SimulationError` when the log holds no
    ``sensor_sample`` events (e.g. it was filtered down to narrative
    events only).

    The events stream through
    :class:`~repro.telemetry.reducers.StreamingTrace`.  With
    ``max_rows=None`` (the default) it keeps every sample row —
    byte-identical to charting the run's own trace.  A bound makes it a
    power-of-two decimator, so campaign-scale logs chart in O(max_rows)
    memory; the chart's shape is unchanged because :func:`strip_chart`
    itself downsamples to ``width`` columns (keep ``max_rows`` comfortably
    above ``width``).
    """
    reducer = StreamingTrace(max_rows)
    for event in events:
        reducer.feed(event)
    return strip_chart(reducer.rows(), **kwargs)


def trace_to_csv(trace: Sequence[TraceRow]) -> str:
    """Render a trace as CSV text (header + one row per sensor sample)."""
    buffer = io.StringIO()
    buffer.write("cycle,hottest_k,int_rf_k\n")
    for cycle, hottest, rf in trace:
        buffer.write(f"{cycle},{hottest:.4f},{rf:.4f}\n")
    return buffer.getvalue()


def excursions_above(
    trace: Sequence[TraceRow], threshold_k: float, column: int = 2
) -> list[tuple[int, int]]:
    """(start_cycle, end_cycle) spans where the trace sits above a threshold.

    Useful for measuring heat-up/cool-down periods from recorded runs.
    """
    if column not in (1, 2):
        raise SimulationError("column must be 1 (hottest) or 2 (int RF)")
    spans: list[tuple[int, int]] = []
    start: int | None = None
    last_cycle = 0
    for row in trace:
        cycle, value = row[0], row[column]
        if value >= threshold_k and start is None:
            start = cycle
        elif value < threshold_k and start is not None:
            spans.append((start, cycle))
            start = None
        last_cycle = cycle
    if start is not None:
        spans.append((start, last_cycle))
    return spans
