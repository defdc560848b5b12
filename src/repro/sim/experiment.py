"""Experiment harness: the paper's standard run shapes.

Every figure in §5 is built from three run shapes:

* a benchmark running **solo** (ideal or realistic sink);
* a benchmark **paired with a malicious variant** (ideal sink, realistic sink
  under stop-and-go, realistic sink under selective sedation);
* a benchmark **paired with another benchmark** (the false-positive check).

:func:`solo_spec` and :func:`pair_spec` build those shapes as
:class:`~repro.sim.parallel.RunSpec` objects from one base configuration, so
Table-1 parameters stay consistent across a whole experiment; the figure
benchmarks declare their runs with them and regenerate the paper as one
campaign.  :class:`ExperimentRunner` runs the same shapes on demand through
:func:`repro.sim.parallel.run_many` (``jobs`` worker processes, the on-disk
cache under ``cache_dir``, the lock-step batch tier) and memoizes each
result by its spec fingerprint.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from pathlib import Path

from ..config import SimulationConfig, scaled_config
from .parallel import RunSpec, run_many, spec_fingerprint
from .stats import RunResult


def pair_spec(
    base: SimulationConfig,
    benchmark: str,
    other: str,
    policy: str = "stop_and_go",
    ideal_sink: bool = False,
) -> RunSpec:
    """A benchmark co-scheduled with another workload (thread 0 = victim)."""
    config = base.with_policy(policy)
    if ideal_sink:
        config = config.with_ideal_sink()
    return RunSpec(workloads=(benchmark, other), config=config)


def solo_spec(
    base: SimulationConfig,
    benchmark: str,
    policy: str = "stop_and_go",
    ideal_sink: bool = False,
) -> RunSpec:
    """A benchmark alone: the second context runs nothing.

    SMT with a single active thread is modeled by pairing the benchmark
    with the registry's immediately-halting ``"idle"`` context, so solo
    runs are name-addressable and cache/worker-pool friendly like every
    other shape.
    """
    return pair_spec(base, benchmark, "idle", policy, ideal_sink)


class ExperimentRunner:
    """Runs the paper's run shapes against one base configuration."""

    def __init__(
        self,
        base_config: SimulationConfig | None = None,
        jobs: int | None = None,
        cache_dir: str | Path | None = None,
        batch: bool = True,
        telemetry=None,
    ) -> None:
        self.base = base_config or scaled_config()
        #: spec fingerprint -> result: two calls that describe the same run
        #: share one result
        self._memo: dict[str, RunResult] = {}
        #: worker processes per batch (None or 1 = serial, in-process)
        self.jobs = jobs
        #: on-disk result cache directory (None = no cache)
        self.cache_dir = cache_dir
        #: lock-step batch tier toggle (see :func:`repro.sim.run_many`);
        #: results are byte-identical either way
        self.batch = batch
        #: campaign-level TelemetrySession: receives one LANE_COMPLETE per
        #: dispatched spec and CAMPAIGN_ROLLUP events (simulation results
        #: are unaffected — this observes the runner, not the runs)
        self.telemetry = telemetry

    def run_batch(self, specs: Iterable[RunSpec]) -> list[RunResult]:
        """Run specs as one dispatch; results come back in input order.

        Specs already in the memo are not re-run; the rest go through
        :func:`~repro.sim.parallel.run_many` together, so a batch of N
        misses occupies up to N workers at once (``jobs``) and each miss
        first consults the on-disk cache (``cache_dir``; see DESIGN.md §9).
        Duplicate specs run once.
        """
        specs = list(specs)
        keys = [spec_fingerprint(spec) for spec in specs]
        missing = {
            key: spec
            for key, spec in zip(keys, specs, strict=True)
            if key not in self._memo
        }
        if missing:
            fresh = run_many(
                list(missing.values()),
                jobs=self.jobs or 1,
                cache_dir=self.cache_dir,
                batch=self.batch,
                telemetry=self.telemetry,
            )
            self._memo.update(zip(missing, fresh, strict=True))
        return [self._memo[key] for key in keys]

    def solo(
        self, benchmark: str, policy: str = "stop_and_go", ideal_sink: bool = False
    ) -> RunResult:
        """Run :func:`solo_spec` against the base configuration."""
        return self.run_batch([solo_spec(self.base, benchmark, policy, ideal_sink)])[0]

    def pair(
        self,
        benchmark: str,
        other: str,
        policy: str = "stop_and_go",
        ideal_sink: bool = False,
    ) -> RunResult:
        """Run :func:`pair_spec` against the base configuration."""
        spec = pair_spec(self.base, benchmark, other, policy, ideal_sink)
        return self.run_batch([spec])[0]

    def pair_many(
        self,
        pairs: Iterable[tuple[str, str]],
        policies: Sequence[str] = ("stop_and_go",),
        ideal_sink: bool = False,
    ) -> dict[tuple[str, str, str], RunResult]:
        """Batch :meth:`pair` across pairs × policies in one dispatch.

        This is the shape of the §5 sweeps: with ``jobs=N`` the whole cross
        product runs N-wide instead of one simulation at a time.  Keys of
        the returned dict are ``(benchmark, other, policy)``.
        """
        keys = [(benchmark, other, policy) for benchmark, other in pairs
                for policy in policies]
        results = self.run_batch(
            pair_spec(self.base, benchmark, other, policy, ideal_sink)
            for benchmark, other, policy in keys
        )
        return dict(zip(keys, results, strict=True))
