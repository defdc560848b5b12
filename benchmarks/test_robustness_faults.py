"""Robustness sweep — selective sedation under injected faults.

Not a paper figure: this grid asks what the §5 defense still delivers when
the control loop degrades (docs/robustness.md).  Two axes:

* **sensor-fault severity** — thermal-sensor dropout probability (0, 10%,
  30%): a lost reading repeats the last reported value, delaying both
  threshold-crossing detection and release;
* **attacker intermittency** — variant2 running continuously vs
  duty-cycled ~1 ms on / ~3 ms off (iThermTroj-style threshold evasion).

Shapes to hold: faulted cells degrade *gracefully* (the stop-and-go safety
net bounds the damage even when sedation fires late); an intermittent
attacker evades sedation (lower sedated fraction) but pays for the stealth
in attack time, so the victim is no worse off than under the continuous
attack.
"""

from conftest import emit

from repro.analysis import format_table
from repro.faults import FaultPlan, SensorFaultPlan
from repro.sim import RunSpec
from repro.workloads import intermittent_plan

DROPOUT_RATES = (0.0, 0.1, 0.3)
FAULT_SEED = 11
VICTIM, ATTACKER = "gzip", "variant2"


def specs(config, names):
    """One sedation run per (intermittent, dropout rate) cell."""
    base = config.with_policy("sedation")
    out = {}
    for intermittent in (False, True):
        for rate in DROPOUT_RATES:
            plan = FaultPlan(
                seed=FAULT_SEED,
                sensor=(
                    SensorFaultPlan(mode="dropout", rate=rate) if rate else None
                ),
                attacker=intermittent_plan(base.thermal) if intermittent else None,
            )
            cell = base.with_faults(plan) if plan.any_runtime_faults else base
            out[intermittent, rate] = RunSpec((VICTIM, ATTACKER), cell)
    return out


def test_robustness_faults(results, bench_config, results_dir, benchmark):
    base = bench_config.with_policy("sedation")

    rows = []
    for (intermittent, rate), result in results.items():
        rows.append([
            "intermittent" if intermittent else "continuous",
            f"{rate:.0%}",
            round(result.threads[0].ipc, 3),
            f"{result.threads[1].sedated_fraction:.0%}",
            result.emergencies,
        ])

    table = format_table(
        ["attacker", "sensor dropout", f"{VICTIM} ipc", "attacker sedated",
         "emergencies"],
        rows,
        title="Robustness: sedation vs sensor dropout x attacker intermittency",
    )
    emit(results_dir, "robustness_faults", table)

    clean = results[(False, 0.0)]
    # The healthy defended cell is the Figure-4 story: no emergencies.
    assert clean.emergencies <= 2
    # Graceful degradation: even the worst faulted cell keeps the victim at
    # half its healthy defended throughput (the safety net bounds the rest).
    for result in results.values():
        assert result.threads[0].ipc >= 0.5 * clean.threads[0].ipc
    # Evasion shape (iThermTroj premise): duty cycling lowers the attacker's
    # sedated fraction, and the stealth costs it attack time — the victim is
    # no worse off than under the continuous attack.
    for rate in DROPOUT_RATES:
        continuous = results[(False, rate)]
        duty_cycled = results[(True, rate)]
        assert (
            duty_cycled.threads[1].sedated_fraction
            <= continuous.threads[1].sedated_fraction + 0.02
        )
        assert duty_cycled.threads[0].ipc >= continuous.threads[0].ipc - 0.05

    from repro.sim import run_workloads

    faulted = base.with_faults(
        FaultPlan(
            seed=FAULT_SEED,
            sensor=SensorFaultPlan(mode="dropout", rate=0.3),
            attacker=intermittent_plan(base.thermal),
        )
    )
    benchmark.pedantic(
        lambda: run_workloads(faulted, [VICTIM, ATTACKER], quantum_cycles=2_000),
        rounds=1,
        iterations=1,
    )
