"""The figure benchmarks declare their runs as specs, and share them.

The figure suite (``benchmarks/test_*.py``) regenerates the paper as one
campaign built from each module's ``specs(config, names)``.  CI does not
run that suite, so these tests import its modules and build their specs at
a tiny config, without simulating, and check ``conftest.emit``'s gate on
the committed tables.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.config import scaled_config
from repro.sim import RunSpec, spec_fingerprint

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
TINY = scaled_config(time_scale=20_000.0, quantum_cycles=5_000)
NAMES = ["gzip", "swim"]
#: figures that read the same solo and attacked runs of each benchmark
SHARED = (
    "test_calibration_duty_cycle",
    "test_fig3_access_rates",
    "test_fig4_emergencies",
    "test_fig5_ipc",
    "test_fig6_time_breakdown",
)


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_conftest():
    return _load(BENCHMARKS / "conftest.py", "figures_conftest")


@pytest.fixture(scope="module")
def figure_modules(bench_conftest):
    """Every ``benchmarks/test_*.py``, imported as the suite imports it."""
    saved = sys.modules.get("conftest")
    sys.modules["conftest"] = bench_conftest  # their `from conftest import emit`
    try:
        return {
            path.stem: _load(path, f"figures_{path.stem}")
            for path in sorted(BENCHMARKS.glob("test_*.py"))
        }
    finally:
        if saved is None:
            del sys.modules["conftest"]
        else:
            sys.modules["conftest"] = saved


def test_every_simulating_figure_declares_specs(figure_modules):
    declaring = {name for name, module in figure_modules.items()
                 if hasattr(module, "specs")}
    assert declaring == set(figure_modules) - {"test_table1_parameters"}


def test_specs_are_run_specs(figure_modules):
    for name, module in figure_modules.items():
        if not hasattr(module, "specs"):
            continue
        specs = module.specs(TINY, list(NAMES))
        assert specs, name
        for key, spec in specs.items():
            assert isinstance(spec, RunSpec), (name, key)


def test_figures_share_runs(figure_modules):
    requests = [
        spec_fingerprint(spec)
        for name in SHARED
        for spec in figure_modules[name].specs(TINY, list(NAMES)).values()
    ]
    assert len(set(requests)) < len(requests)


class TestEmitGate:
    def test_stale_table_is_rewritten_and_fails(
        self, bench_conftest, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(bench_conftest, "AT_DEFAULT_PRESET", True)
        (tmp_path / "fig.txt").write_text("old\n", encoding="utf-8")
        with pytest.raises(pytest.fail.Exception, match="fig.txt"):
            bench_conftest.emit(tmp_path, "fig", "new")
        assert (tmp_path / "fig.txt").read_text(encoding="utf-8") == "new\n"
        bench_conftest.emit(tmp_path, "fig", "new")  # now current: passes

    def test_other_presets_write_nothing(self, bench_conftest, monkeypatch, tmp_path):
        monkeypatch.setattr(bench_conftest, "AT_DEFAULT_PRESET", False)
        bench_conftest.emit(tmp_path, "fig", "table")
        assert not list(tmp_path.iterdir())
