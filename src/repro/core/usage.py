"""Per-thread, per-resource access-rate monitoring (paper §3.2.1).

The hardware the paper budgets is one counter plus one weighted-average
register per (resource, thread).  Here the counters are the pipeline's
cumulative access counts; the monitor snapshots them every sample interval,
computes the interval access rate, and folds it into the EWMA.

Two paper-mandated behaviors:

* **Sedated threads are not sampled** — "during sedation, the access-rate and
  the weighted average of the culprit thread are not computed at all", so a
  sedation period cannot artificially launder a thread's history.
* Sampling is coarse (the time constants of hot-spot generation are ~10³×
  the sample interval), so the monitor is cheap.
"""

from __future__ import annotations

from ..blocks import NUM_BLOCKS
from ..config import SedationConfig
from ..pipeline.smt import SMTCore
from .ewma import Ewma


class UsageMonitor:
    """Tracks EWMA access rates for every (thread, block) pair."""

    def __init__(self, core: SMTCore, config: SedationConfig) -> None:
        self.core = core
        self.config = config
        self.sample_interval = config.sample_interval
        num_threads = len(core.threads)
        # Flat per-(thread, block) EWMA values: the update is one multiply
        # and add, so Ewma objects would spend more time on method dispatch
        # than arithmetic in the sample loop.  The blend factor matches
        # :class:`~repro.core.ewma.Ewma` exactly (same float expression).
        self._ewma_x = Ewma(config.ewma_shift).x
        self._values = [[0.0] * NUM_BLOCKS for _ in range(num_threads)]
        self._last_counts = [list(counts) for counts in core.access_counts]
        self._last_cycle = core.cycle
        self.samples_taken = 0
        self.samples_missed = 0

    def sample(self) -> None:
        """Take one sample: fold interval rates into the EWMAs.

        Threads currently sedated keep their snapshot frozen too, so the
        quiet interval neither lowers their average nor accumulates into a
        burst at release time.
        """
        cycle = self.core.cycle
        interval = cycle - self._last_cycle
        if interval <= 0:
            return
        threads = self.core.threads
        x = self._ewma_x
        for tid, counts in enumerate(self.core.access_counts):
            last = self._last_counts[tid]
            if threads[tid].sedated:
                last[:] = counts
                continue
            values = self._values[tid]
            for block in range(NUM_BLOCKS):
                count = counts[block]
                # Keep the division (not a reciprocal multiply): the EWMA
                # feeds threshold comparisons, so results must stay bit-exact.
                rate = (count - last[block]) / interval
                value = values[block]
                values[block] = value + (rate - value) * x
                last[block] = count
        self._last_cycle = cycle
        self.samples_taken += 1

    def miss_sample(self) -> None:
        """One sampling tick was lost (injected sampler fault).

        Deliberately does *not* advance the snapshot: the counters keep
        accumulating and the next successful :meth:`sample` computes its
        rates over the widened window — the same behavior a hardware monitor
        exhibits when a tick fails to clock the EWMA register
        (:meth:`repro.core.ewma.Ewma.miss`).
        """
        self.samples_missed += 1

    def skip(self) -> None:
        """Advance the snapshot without sampling (global-stall periods)."""
        self._last_cycle = self.core.cycle
        for tid, counts in enumerate(self.core.access_counts):
            self._last_counts[tid][:] = counts

    def weighted_average(self, tid: int, block: int) -> float:
        """Current EWMA access rate of one thread at one resource."""
        return self._values[tid][block]

    def set_weighted_average(self, tid: int, block: int, value: float) -> None:
        """Pin one EWMA value (tests use this to fix the usage ranking)."""
        self._values[tid][block] = value

    def averages_at(self, block: int) -> list[float]:
        """EWMA of every thread at one resource, indexed by thread id."""
        return [values[block] for values in self._values]

    def averages_matrix(self) -> list[list[float]]:
        """All EWMA values as ``[thread][block]`` (equivalence tests)."""
        return [list(values) for values in self._values]

    def flat_average(self, tid: int, block: int) -> float:
        """Cumulative accesses / cycles — the metric Figure 3 plots.

        The paper argues this *flat* average cannot separate moderately
        malicious threads (variant2 at ~4, variant3 at ~1.5 accesses/cycle)
        from SPEC programs, which is why sedation keys on the EWMA plus a
        temperature trigger instead.
        """
        cycles = self.core.cycle
        if cycles == 0:
            return 0.0
        return self.core.access_counts[tid][block] / cycles
