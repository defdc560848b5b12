"""Stored reference outputs: RunResult bytes checked against ``tests/golden/``.

The batch equivalence grid (``tests/test_batch.py``) compares the kernel
against the scalar simulator at test time, so a change that shifts both
paths the same way passes it.  These goldens pin the canonical result
bytes (``results_to_canonical_json``, host wall time zeroed) of a small
grid instead: two workload pairs under every DTM policy plus the ideal
sink, and the §5.6 sedation-threshold ladder on the attack pair.  Both
the scalar ``Simulator.run`` and one ``simulate_lockstep`` call over the
whole grid must reproduce them.

Regenerate (only when a change is meant to alter results) with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.config import scaled_config
from repro.sim import RunSpec
from repro.sim.batch import simulate_lockstep
from repro.sim.durable import results_to_canonical_json
from repro.sim.simulator import Simulator

GOLDEN = Path(__file__).resolve().parent / "golden"

POLICIES = ("ideal", "stop_and_go", "dvfs", "ttdfs", "fetch_gating", "sedation")
PAIRS = (("gzip", "variant2"), ("gcc", "swim"))
#: §5.6 sedation threshold ladder (upper K, lower K).
THRESHOLDS = ((356.0, 354.1), (356.5, 354.2), (357.0, 354.4), (357.4, 354.8))


def grid() -> list[tuple[str, RunSpec]]:
    """``(label, spec)`` for every golden run, in a fixed order."""
    base = scaled_config(time_scale=8_000.0, quantum_cycles=8_000, seed=42)
    entries = []
    for pair in PAIRS:
        prefix = "+".join(pair)
        for policy in POLICIES:
            entries.append((f"{prefix}__{policy}", RunSpec(pair, base.with_policy(policy))))
        entries.append((f"{prefix}__ideal-sink", RunSpec(pair, base.with_ideal_sink())))
    sedation = base.with_policy("sedation")
    for upper, lower in THRESHOLDS:
        entries.append((
            f"gzip+variant2__sedation-{upper}-{lower}",
            RunSpec(PAIRS[0], sedation.with_thresholds(upper, lower)),
        ))
    return entries


def canonical(result) -> str:
    return results_to_canonical_json([result]) + "\n"


def scalar_results() -> dict[str, str]:
    return {
        label: canonical(Simulator(spec.config, workloads=list(spec.workloads)).run())
        for label, spec in grid()
    }


def stored(label: str) -> str:
    return (GOLDEN / f"{label}.json").read_text()


def test_golden_files_cover_the_grid():
    labels = {label for label, _ in grid()}
    assert {path.stem for path in GOLDEN.glob("*.json")} == labels


def test_scalar_simulator_matches_goldens():
    for label, text in scalar_results().items():
        assert text == stored(label), label


def test_lockstep_kernel_matches_goldens():
    entries = grid()
    metrics: dict = {}
    results, deferred = simulate_lockstep([spec for _, spec in entries], metrics)
    assert deferred == []
    # Acting lanes must split off: the goldens then cover cohort forks too.
    assert metrics["splits"] >= 1
    for index, (label, _) in enumerate(entries):
        assert canonical(results[index]) == stored(label), label


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for label, text in scalar_results().items():
        (GOLDEN / f"{label}.json").write_text(text)
