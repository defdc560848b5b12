"""SMT fetch arbitration policies.

ICOUNT [Tullsen et al.] picks the threads with the fewest instructions in
flight, assuming fewer in-flight instructions means fewer stalls and higher
utilization.  The paper stresses that heat stroke is *not* an ICOUNT exploit
(variant2/variant3 are calibrated to moderate IPC), and we also provide
round-robin so benchmarks can isolate the fetch policy's contribution.
"""

from __future__ import annotations

from ..errors import ConfigError
from .thread import ThreadContext


def icount_select(
    runnable: list[ThreadContext], max_threads: int
) -> list[ThreadContext]:
    """Up to ``max_threads`` runnable threads, lowest icount first.

    Order matters: the first thread returned gets fetch priority (it may
    consume the whole fetch width), which is how ICOUNT lets a high-IPC
    thread monopolize the front end.  Ties keep ``runnable``'s order (a
    stable sort); one or two threads, the SMT core's case, skip the sort.
    """
    if len(runnable) == 2:
        first, second = runnable
        if second.icount < first.icount:
            runnable = [second, first]
    elif len(runnable) > 2:
        runnable = sorted(runnable, key=lambda t: t.icount)
    return runnable[:max_threads]


class RoundRobinSelector:
    """Stateful round-robin: rotates which thread gets fetch priority."""

    def __init__(self) -> None:
        self._next = 0

    def select(
        self, runnable: list[ThreadContext], max_threads: int
    ) -> list[ThreadContext]:
        self._next += 1
        ordered = sorted(
            runnable, key=lambda t: (t.tid - self._next) % 64
        )
        return ordered[:max_threads]


def make_fetch_selector(policy: str):
    """Return a callable ``(runnable, max_threads) -> list[ThreadContext]``."""
    if policy == "icount":
        return icount_select
    if policy == "round_robin":
        return RoundRobinSelector().select
    raise ConfigError(f"unknown fetch policy {policy!r}")
