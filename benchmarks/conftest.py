"""Shared fixtures for the figure-reproduction benchmarks.

Environment knobs (all optional):

``REPRO_BENCH_SCALE``      thermal time-scale (default 4000; smaller = more
                           faithful and slower; DESIGN.md §4)
``REPRO_BENCH_QUANTUM``    cycles per simulated OS quantum (default 125000,
                           i.e. the paper's 125 ms quantum at the default scale).
                           The paper-shape bands are sized for the default: at
                           a small quantum (8000) six tests fail their bands —
                           test_monopolization_vs_heat_stroke,
                           test_fig3_access_rates, test_fig4_emergencies,
                           test_fig5_ipc, test_fig6_time_breakdown and
                           test_sec56_threshold_sensitivity.  A small quantum
                           is a smoke test of the runner, not of the figures.
``REPRO_BENCH_SET``        'subset' (default), 'full', or a comma-separated
                           list of benchmark names
``REPRO_BENCH_JOBS``       worker processes for independent simulations
                           (default 1 = serial); finished runs are reloaded
                           from ``benchmarks/.repro_cache/`` either way

Each benchmark prints the paper-style rows it reproduces and also writes
them under ``benchmarks/results/`` so EXPERIMENTS.md can reference them.
The pytest-benchmark fixture times one representative simulation slice per
figure (full experiment wall time is dominated by the sweep itself).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.config import scaled_config
from repro.sim import ExperimentRunner
from repro.workloads import DEFAULT_BENCH_SUBSET, SPEC_PROFILES


def _env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


BENCH_SCALE = _env_float("REPRO_BENCH_SCALE", 4000.0)
BENCH_QUANTUM = _env_int("REPRO_BENCH_QUANTUM", 125_000)
BENCH_JOBS = _env_int("REPRO_BENCH_JOBS", 1)
BENCH_CACHE = Path(__file__).parent / ".repro_cache"


def bench_set() -> list[str]:
    raw = os.environ.get("REPRO_BENCH_SET", "subset")
    if raw == "subset":
        return list(DEFAULT_BENCH_SUBSET)
    if raw == "full":
        return sorted(SPEC_PROFILES)
    return [name.strip() for name in raw.split(",") if name.strip()]


@pytest.fixture(scope="session")
def bench_config():
    return scaled_config(time_scale=BENCH_SCALE, quantum_cycles=BENCH_QUANTUM)


@pytest.fixture(scope="session")
def benchmarks_list():
    return bench_set()


@pytest.fixture(scope="session")
def bench_cache() -> Path:
    """The suite's on-disk result cache, for tests that build their own
    runners (cache keys are spec fingerprints, so sharing it is safe)."""
    return BENCH_CACHE


@pytest.fixture(scope="session")
def runner(bench_config, bench_cache):
    """One session-wide runner so figures share solo/pair runs.

    Batched calls (``pair_many``/``run_batch``) fan out over
    ``REPRO_BENCH_JOBS`` worker processes, and every finished simulation is
    memoized on disk, so a re-run of the suite at the same knob settings
    replays from the cache.
    """
    return ExperimentRunner(bench_config, jobs=BENCH_JOBS, cache_dir=bench_cache)


@pytest.fixture(scope="session")
def results_dir():
    path = Path(__file__).parent / "results"
    path.mkdir(exist_ok=True)
    return path


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a table and persist it under benchmarks/results/."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n")
