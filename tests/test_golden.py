"""Stored reference outputs: RunResult bytes checked against ``tests/golden/``.

The batch equivalence grid (``tests/test_batch.py``) compares the kernel
against the scalar simulator at test time, so a change that shifts both
paths the same way passes it.  These goldens pin the canonical result
bytes (``results_to_canonical_json``, host wall time zeroed) of a small
grid instead: two workload pairs under every DTM policy plus the ideal
sink, and the §5.6 sedation-threshold ladder on the attack pair.  Both
the scalar ``Simulator.run`` and one ``simulate_lockstep`` call over the
whole grid must reproduce them.

A second set pins what only the scalar simulator runs (:func:`scalar_only`):
sampler and actuator faults under sedation (with a telemetry session, so
the snapshot counts the injected faults), sensor dropout with an
intermittent attacker (trace rows without a session), a traced
stop-and-go run with a :class:`~repro.telemetry.TelemetrySession` (trace
rows and the snapshot, stall branch included), and two consecutive quanta
on one simulator (the per-quantum baseline snapshots).

Regenerate (only when a change is meant to alter results) with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from pathlib import Path

from repro.config import scaled_config
from repro.faults import (
    ActuatorFaultPlan,
    FaultPlan,
    SamplerFaultPlan,
    SensorFaultPlan,
)
from repro.sim import RunSpec
from repro.sim.batch import simulate_lockstep
from repro.sim.durable import results_to_canonical_json
from repro.sim.simulator import Simulator
from repro.telemetry import TelemetrySession
from repro.workloads.malicious import intermittent_plan

GOLDEN = Path(__file__).resolve().parent / "golden"

POLICIES = ("ideal", "stop_and_go", "dvfs", "ttdfs", "fetch_gating", "sedation")
PAIRS = (("gzip", "variant2"), ("gcc", "swim"))
#: §5.6 sedation threshold ladder (upper K, lower K).
THRESHOLDS = ((356.0, 354.1), (356.5, 354.2), (357.0, 354.4), (357.4, 354.8))


def base_config():
    return scaled_config(time_scale=8_000.0, quantum_cycles=8_000, seed=42)


def grid() -> list[tuple[str, RunSpec]]:
    """``(label, spec)`` for every golden run, in a fixed order."""
    base = base_config()
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


def scalar_only() -> dict[str, Callable[[], list]]:
    """Runs only the scalar simulator takes: label → thunk returning results."""
    attack = list(PAIRS[0])
    sedation = base_config().with_policy("sedation")
    stop_and_go = base_config().with_policy("stop_and_go")
    faulty = sedation.with_faults(FaultPlan(
        seed=7,
        sampler=SamplerFaultPlan(miss_rate=0.1, late_rate=0.1, late_cycles=9),
        actuator=ActuatorFaultPlan(fail_rate=0.3, delay_cycles=40),
    ))
    # A long-on duty cycle, so the attacker still trips stop-and-go.
    intermittent = stop_and_go.with_faults(FaultPlan(
        seed=3,
        sensor=SensorFaultPlan(mode="dropout", rate=0.2),
        attacker=intermittent_plan(
            stop_and_go.thermal, on_seconds=4e-3, off_seconds=1e-3
        ),
    ))

    def two_quanta() -> list:
        simulator = Simulator(sedation, workloads=attack)
        return [simulator.run(), simulator.run()]

    return {
        "scalar__gzip+variant2__sedation-sampler-actuator-faults": lambda: [
            Simulator(
                faulty, workloads=attack, telemetry=TelemetrySession()
            ).run()
        ],
        "scalar__gzip+variant2__stop_and_go-dropout-intermittent-trace": lambda: [
            Simulator(intermittent, workloads=attack).run(
                quantum_cycles=12_000, trace=True
            )
        ],
        "scalar__gzip+variant2__stop_and_go-trace-telemetry": lambda: [
            Simulator(
                stop_and_go, workloads=attack, telemetry=TelemetrySession()
            ).run(trace=True)
        ],
        "scalar__gzip+variant2__sedation-two-quanta": two_quanta,
    }


def canonical(result) -> str:
    return results_to_canonical_json([result]) + "\n"


def scalar_results() -> dict[str, str]:
    texts = {
        label: canonical(Simulator(spec.config, workloads=list(spec.workloads)).run())
        for label, spec in grid()
    }
    for label, run in scalar_only().items():
        texts[label] = results_to_canonical_json(run()) + "\n"
    return texts


def stored(label: str) -> str:
    return (GOLDEN / f"{label}.json").read_text()


def test_golden_files_cover_the_grid():
    labels = {label for label, _ in grid()} | set(scalar_only())
    assert {path.stem for path in GOLDEN.glob("*.json")} == labels


def test_scalar_simulator_matches_goldens():
    for label, text in scalar_results().items():
        assert text == stored(label), label


def test_lockstep_kernel_matches_goldens():
    entries = grid()
    metrics: dict = {}
    results = simulate_lockstep([spec for _, spec in entries], metrics)
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
