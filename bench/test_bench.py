"""Checks of the benchmark itself: ``python -m pytest bench -q``.

The smoke run takes well under a minute: short quanta, one unit per
workload, then the traced pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import judge
from unit import LAYERS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke() -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_is_correct(smoke):
    assert smoke["correct"] is True
    assert smoke["failed"] == 0
    assert smoke["attempted"] >= 2 * len(SPEC["workloads"])


def test_every_metric_is_emitted_with_its_unit(smoke):
    for workload in SPEC["workloads"]:
        name = workload["name"]
        for tier, metrics in (("end_to_end", smoke["metrics"][name]),
                              ("per_layer", smoke["layers"][name])):
            for metric in SPEC[tier]:
                assert metrics[metric["name"]]["unit"] == metric["unit"]
                assert isinstance(metrics[metric["name"]]["value"], (int, float))
        for metric in SPEC["end_to_end"]:
            assert smoke["metrics"][name][metric["name"]]["value"] > 0


SCALAR_LAYERS = ["simulator", "pipeline", "workloads", "power", "thermal",
                 "sensors", "usage", "dtm"]

#: The layers each workload must reach; a hook that no longer fires reads
#: 0 calls here even when its target still exists.
USED_LAYERS = {
    "attack-run": SCALAR_LAYERS,
    "solo-mem-run": SCALAR_LAYERS,
    "sweep-cold": ["parallel", "batch", "cache", "fingerprint", "journal", "rollup"],
    "sweep-warm": ["parallel", "cache", "fingerprint", "rollup"],
}


@pytest.mark.parametrize("workload", list(USED_LAYERS))
def test_every_hook_fires(smoke, workload):
    trace = json.loads((BENCH / "results" / f"trace-{workload}.json").read_text())
    assert trace["missing_hooks"] == []
    layers = smoke["layers"][workload]
    for layer in USED_LAYERS[workload]:
        assert layers[f"{layer}.calls"]["value"] > 0, layer


@pytest.mark.parametrize("workload", ["attack-run", "solo-mem-run"])
def test_layers_cover_the_scalar_run(smoke, workload):
    layers = smoke["layers"][workload]
    covered = sum(layers[f"{layer}.share"]["value"] for layer in LAYERS)
    assert 0.95 <= covered <= 1.0 + 1e-6
    assert all(layers[f"{layer}.self_s"]["value"] >= 0 for layer in LAYERS)
    # `simulator` is the residual of Simulator.run, so coverage alone would
    # hold even if an inner hook lost its time to it; it reads 0.03 to 0.11.
    assert layers["simulator.share"]["value"] < 0.2


def test_cache_counts(smoke):
    cold, warm = smoke["layers"]["sweep-cold"], smoke["layers"]["sweep-warm"]
    assert cold["cache.stores"]["value"] > 0
    assert cold["cache.bytes_written"]["value"] > 0
    assert warm["cache.hits"]["value"] == warm["cache.loads"]["value"] > 0
    assert warm["cache.stores"]["value"] == 0


def test_source_tree_is_required(tmp_path):
    """Without src/ the benchmark fails fast and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "attack-run",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_judge_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    assert judge(base, base, "lower", 0.1)["verdict"] == "same"
    assert judge(base, [v * 1.2 for v in base], "lower", 0.1)["verdict"] == "worse"
    assert judge(base, [v * 0.8 for v in base], "lower", 0.1)["verdict"] == "better"
    assert judge(base, [v * 0.8 for v in base], "higher", 0.1)["verdict"] == "worse"
    noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert judge(base, noisy, "lower", 0.1)["verdict"] == "unresolved"
