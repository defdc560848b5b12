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

The suite regenerates the paper as one campaign.  Each simulating
``test_*.py`` module declares its runs in ``specs(config, names)``: a dict
from figure-local keys to ``RunSpec``s, built with ``repro.sim.solo_spec``
and ``pair_spec``.  The session ``campaign`` fixture gathers the
``specs()`` of every module pytest collected, dedups them by
``spec_fingerprint`` and runs the union once through ``run_durable`` into
``benchmarks/.repro_cache/`` (a killed regeneration resumes from its
journal there; a warm rerun replays from the cache).  Tests read their
module's results through the ``results`` fixture, keyed as ``specs()``
keys them, and only render and assert; looking up a key the module did
not declare raises ``KeyError``, so nothing simulates outside the campaign.

Each benchmark prints the paper-style rows it reproduces.  At the default
preset (scale 4000, quantum 125000, the default subset) ``emit`` also holds
them to the committed ``benchmarks/results/<name>.txt``: a table that
differs is written there, so ``git diff`` shows it, and fails the test.  At
any other preset nothing is written under ``benchmarks/results/``.  The
pytest-benchmark fixture times one representative simulation slice per
figure (the campaign itself dominates the suite's wall time).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.config import scaled_config
from repro.sim import run_durable, spec_fingerprint
from repro.workloads import DEFAULT_BENCH_SUBSET, SPEC_PROFILES

DEFAULT_SCALE = 4000.0
DEFAULT_QUANTUM = 125_000


def _env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


BENCH_SCALE = _env_float("REPRO_BENCH_SCALE", DEFAULT_SCALE)
BENCH_QUANTUM = _env_int("REPRO_BENCH_QUANTUM", DEFAULT_QUANTUM)
BENCH_JOBS = _env_int("REPRO_BENCH_JOBS", 1)
BENCH_CACHE = Path(__file__).parent / ".repro_cache"


def bench_set() -> list[str]:
    raw = os.environ.get("REPRO_BENCH_SET", "subset")
    if raw == "subset":
        return list(DEFAULT_BENCH_SUBSET)
    if raw == "full":
        return sorted(SPEC_PROFILES)
    return [name.strip() for name in raw.split(",") if name.strip()]


#: Only the default preset's tables are the committed ones.
AT_DEFAULT_PRESET = (
    BENCH_SCALE == DEFAULT_SCALE
    and BENCH_QUANTUM == DEFAULT_QUANTUM
    and bench_set() == list(DEFAULT_BENCH_SUBSET)
)


@pytest.fixture(scope="session")
def bench_config():
    return scaled_config(time_scale=BENCH_SCALE, quantum_cycles=BENCH_QUANTUM)


@pytest.fixture(scope="session")
def benchmarks_list():
    return bench_set()


@pytest.fixture(scope="session")
def campaign(request, bench_config, benchmarks_list):
    """Each collected module's results, keyed as its ``specs()`` keys them.

    The union of every module's specs, deduplicated by fingerprint, runs
    in one ``run_durable`` call over ``REPRO_BENCH_JOBS`` workers.
    """
    modules = dict.fromkeys(
        item.module
        for item in request.session.items
        if hasattr(getattr(item, "module", None), "specs")
    )
    declared = {
        module: module.specs(bench_config, benchmarks_list) for module in modules
    }
    union = {
        spec_fingerprint(spec): spec
        for specs in declared.values()
        for spec in specs.values()
    }
    finished = run_durable(list(union.values()), cache_dir=BENCH_CACHE, jobs=BENCH_JOBS)
    by_key = dict(zip(union, finished, strict=True))
    return {
        module: {key: by_key[spec_fingerprint(spec)] for key, spec in specs.items()}
        for module, specs in declared.items()
    }


@pytest.fixture
def results(request, campaign):
    """This module's campaign results, keyed as its ``specs()`` keys them."""
    return campaign[request.module]


@pytest.fixture(scope="session")
def results_dir():
    path = Path(__file__).parent / "results"
    path.mkdir(exist_ok=True)
    return path


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a table; at the default preset, hold it to the committed file.

    A table that differs from ``<results_dir>/<name>.txt`` is written there
    and fails the test, so a stale committed output cannot pass.
    """
    print()
    print(text)
    if not AT_DEFAULT_PRESET:
        return
    path = results_dir / f"{name}.txt"
    fresh = text + "\n"
    if path.exists() and path.read_text(encoding="utf-8") == fresh:
        return
    path.write_text(fresh, encoding="utf-8")
    pytest.fail(f"{path.name} differed from the committed table; rewrote it")
