"""Culprit identification (paper §3.2.1).

When a resource's sensor crosses the upper threshold, the thread with the
highest weighted-average access rate *at that resource* is the culprit.  The
paper deliberately does not ask whether the thread is malicious: any thread
with a power-density problem must be slowed down regardless, so intent never
needs to be inferred.
"""

from __future__ import annotations

from .usage import UsageMonitor


def identify_culprit(
    monitor: UsageMonitor, block: int, candidates: list[int]
) -> int | None:
    """Pick the candidate thread with the highest EWMA at ``block``.

    ``candidates`` are the currently unsedated, unhalted threads.  Returns
    ``None`` when there are no candidates.  Ties break toward the lower
    thread id (deterministic, and irrelevant in practice because attacker
    and victim averages are widely separated — the paper's first key
    observation).
    """
    best: int | None = None
    best_average = -1.0
    for tid in candidates:
        average = monitor.weighted_average(tid, block)
        if average > best_average:
            best_average = average
            best = tid
    return best


def culprit_margin(
    monitor: UsageMonitor, block: int, candidates: list[int]
) -> float:
    """Gap between the top two EWMAs at ``block`` (identification margin).

    The margin is the detector's confidence: the paper's first key
    observation is that attacker and victim averages are *widely* separated,
    so a healthy run has a large margin.  Injected sensor/sampler faults
    erode it — sedation telemetry records the margin with every SEDATE event
    so the robustness experiments can see how close the defense came to
    sedating the wrong thread.  Zero or fewer than two candidates means no
    separation at all.
    """
    if len(candidates) < 2:
        return 0.0
    averages = sorted(
        (monitor.weighted_average(tid, block) for tid in candidates),
        reverse=True,
    )
    return averages[0] - averages[1]


def rank_by_usage(
    monitor: UsageMonitor, block: int, candidates: list[int]
) -> list[tuple[int, float]]:
    """All candidates with their EWMAs, highest first (for reports/tests)."""
    pairs = [(tid, monitor.weighted_average(tid, block)) for tid in candidates]
    pairs.sort(key=lambda pair: (-pair[1], pair[0]))
    return pairs
