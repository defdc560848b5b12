"""§5.5 — robustness to heat-sink and packaging improvements.

The paper varies the package (convection resistance; Table 1 default
0.8 K/W) and shows that "both the damage from heat-stroke and the
effectiveness of selective sedation remain unchanged qualitatively with
improvements in heat-sinks".  A hot spot is a *local* power-density problem:
a better sink shifts the whole operating point down but does not remove the
attack's ability to overheat a small block.
"""

from conftest import emit

from repro.analysis import format_table
from repro.sim import pair_spec, solo_spec

SWEEP = (0.7, 0.75, 0.8, 0.85)
VICTIM = "gzip"


def specs(config, names):
    out = {}
    for r_conv in SWEEP:
        package = config.with_convection_resistance(r_conv)
        out[r_conv, "solo"] = solo_spec(package, VICTIM, policy="stop_and_go")
        out[r_conv, "attacked"] = pair_spec(
            package, VICTIM, "variant2", policy="stop_and_go"
        )
        out[r_conv, "defended"] = pair_spec(
            package, VICTIM, "variant2", policy="sedation"
        )
    return out


def test_sec55_heatsink_sweep(results, bench_config, results_dir, benchmark):
    rows = []
    degradations = {}
    restored = {}
    for r_conv in SWEEP:
        solo = results[r_conv, "solo"]
        attacked = results[r_conv, "attacked"]
        defended = results[r_conv, "defended"]
        degradation = 1 - attacked.threads[0].ipc / solo.threads[0].ipc
        degradations[r_conv] = degradation
        restored[r_conv] = defended.threads[0].ipc / solo.threads[0].ipc
        rows.append(
            [
                f"{r_conv:.2f}",
                solo.threads[0].ipc,
                attacked.threads[0].ipc,
                f"{degradation:.0%}",
                attacked.emergencies,
                defended.threads[0].ipc,
            ]
        )

    table = format_table(
        [
            "R_conv (K/W)",
            "solo ipc",
            "+v2 sng ipc",
            "degradation",
            "emergencies",
            "+v2 sedation ipc",
        ],
        rows,
        title=f"Section 5.5: heat-sink sweep (victim = {VICTIM})",
    )
    emit(results_dir, "sec55_heatsink_sweep", table)

    # Qualitative robustness: the attacker does real damage at every swept
    # package, and wherever the thermal component exists (emergencies occur)
    # selective sedation recovers performance beyond the stop-and-go level.
    for index, r_conv in enumerate(SWEEP):
        assert degradations[r_conv] > 0.25, f"attack neutralized at {r_conv}"
        emergencies = rows[index][4]
        if emergencies >= 4:
            sng_ipc = rows[index][2]
            sedation_ipc = rows[index][5]
            assert sedation_ipc > sng_ipc, f"sedation ineffective at {r_conv}"

    from repro.sim import run_workloads

    benchmark.pedantic(
        lambda: run_workloads(
            bench_config.with_convection_resistance(0.7).with_policy("stop_and_go"),
            [VICTIM, "variant2"],
            quantum_cycles=2_000,
        ),
        rounds=1,
        iterations=1,
    )
