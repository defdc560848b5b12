"""Experiment harness: the paper's standard run shapes.

Every figure in §5 is built from three run shapes:

* a benchmark running **solo** (ideal or realistic sink);
* a benchmark **paired with a malicious variant** (ideal sink, realistic sink
  under stop-and-go, realistic sink under selective sedation);
* a benchmark **paired with another benchmark** (the false-positive check).

:class:`ExperimentRunner` provides those shapes plus a generic labeled sweep,
with one shared base configuration so Table-1 parameters stay consistent
across a whole experiment.  Given ``jobs`` and/or ``cache_dir`` it routes
batches through :mod:`repro.sim.parallel` — independent runs execute in
worker processes and finished runs reload from the on-disk cache; with
neither, every call runs serially in-process exactly as before.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from pathlib import Path

from ..config import SimulationConfig, scaled_config
from ..errors import ConfigError
from .stats import RunResult


class ExperimentRunner:
    """Runs labeled simulations against one base configuration."""

    def __init__(
        self,
        base_config: SimulationConfig | None = None,
        jobs: int | None = None,
        cache_dir: str | Path | None = None,
        batch: bool = True,
        telemetry=None,
    ) -> None:
        self.base = base_config or scaled_config()
        self.results: dict[str, RunResult] = {}
        #: label -> the (workloads, config) it was first run with
        self._runs: dict[str, tuple[tuple[str, ...], SimulationConfig]] = {}
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

    # -- run shapes ---------------------------------------------------------

    def run(
        self,
        label: str,
        workloads: list[str],
        config: SimulationConfig | None = None,
    ) -> RunResult:
        """Run one labeled simulation (memoized by label)."""
        return self.run_batch([(label, workloads, config)])[label]

    def run_batch(
        self,
        labeled: Iterable[tuple[str, Sequence[str], SimulationConfig | None]],
    ) -> dict[str, RunResult]:
        """Run a batch of labeled simulations and return *those* results.

        Two memo layers stack here.  The runner's in-memory memo
        (``self.results``) is keyed by label, so a label must name one run:
        reusing it with other workloads or another config raises
        :class:`~repro.errors.ConfigError` (:meth:`pair` bakes policy and
        sink into its labels for exactly this reason).  Labels not in the
        memo go through :func:`repro.sim.parallel.run_many` in one dispatch
        — a batch of N misses occupies up to N workers at once (``jobs``),
        and each miss first consults the on-disk cache (``cache_dir``),
        which is keyed by a fingerprint of the *full* configuration (see
        DESIGN.md §9 for the invalidation rules).  Duplicate labels within
        a batch run once.
        """
        items: list[tuple[str, list[str], SimulationConfig]] = []
        missing: dict[str, tuple[str, list[str], SimulationConfig]] = {}
        for label, workloads, config in labeled:
            run = (tuple(workloads), config or self.base)
            known = self._runs.setdefault(label, run)
            if known != run:
                raise ConfigError(
                    f"label {label!r} already names a run of "
                    f"{'+'.join(known[0])}; another workload list or "
                    "config needs its own label"
                )
            items.append((label, list(run[0]), run[1]))
            if label not in self.results:
                missing.setdefault(label, items[-1])
        if missing:
            from .parallel import RunSpec, run_many

            specs = [
                RunSpec(workloads=tuple(workloads), config=config)
                for _, workloads, config in missing.values()
            ]
            fresh = run_many(
                specs,
                jobs=self.jobs or 1,
                cache_dir=self.cache_dir,
                cache=self.cache_dir is not None,
                batch=self.batch,
                telemetry=self.telemetry,
            )
            for label, result in zip(missing, fresh, strict=True):
                self.results[label] = result
        return {label: self.results[label] for label, _, _ in items}

    def solo(
        self, benchmark: str, policy: str = "stop_and_go", ideal_sink: bool = False
    ) -> RunResult:
        """A benchmark alone: the second context runs nothing.

        SMT with a single active thread is modeled by pairing the benchmark
        with the registry's immediately-halting ``"idle"`` context, so solo
        runs are name-addressable and cache/worker-pool friendly like every
        other shape.
        """
        config = self._configure(policy, ideal_sink)
        label = f"{benchmark}|solo|{config.dtm_policy}|{int(ideal_sink)}"
        return self.run(label, [benchmark, "idle"], config)

    def pair(
        self,
        benchmark: str,
        other: str,
        policy: str = "stop_and_go",
        ideal_sink: bool = False,
    ) -> RunResult:
        """A benchmark co-scheduled with another workload (thread 0 = victim)."""
        label, workloads, config = self._pair_item(
            benchmark, other, policy, ideal_sink
        )
        return self.run(label, workloads, config)

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
        keyed: list[tuple[tuple[str, str, str], str]] = []
        labeled = []
        for benchmark, other in pairs:
            for policy in policies:
                item = self._pair_item(benchmark, other, policy, ideal_sink)
                keyed.append(((benchmark, other, policy), item[0]))
                labeled.append(item)
        results = self.run_batch(labeled)
        return {key: results[label] for key, label in keyed}

    def sweep(
        self, labeled: Iterable[tuple[str, list[str], SimulationConfig]]
    ) -> dict[str, RunResult]:
        """Run (label, workloads, config) simulations as one batch.

        Despite the name this is not a serial loop: the whole iterable is
        dispatched through :meth:`run_batch`, so with ``jobs`` the sweep
        fans out across worker processes and with ``cache_dir`` previously
        finished points reload from disk instead of re-simulating.  Returns
        exactly the requested labels (the runner's whole memo is a
        superset, available as ``self.results``).
        """
        return self.run_batch(labeled)

    # -- internals ----------------------------------------------------------

    def _pair_item(
        self, benchmark: str, other: str, policy: str, ideal_sink: bool
    ) -> tuple[str, list[str], SimulationConfig]:
        config = self._configure(policy, ideal_sink)
        label = f"{benchmark}+{other}|{config.dtm_policy}|{int(ideal_sink)}"
        return label, [benchmark, other], config

    def _configure(self, policy: str, ideal_sink: bool) -> SimulationConfig:
        config = self.base.with_policy(policy)
        if ideal_sink:
            config = config.with_ideal_sink()
        return config
