"""Figure 6 — breakdown of execution time.

Paper bars per benchmark: (1) solo — normal vs cooling stalls; (2) with
variant2 under stop-and-go; (3) with variant2 under selective sedation; and
(4) variant2's own breakdown under sedation.  Shapes: solo mostly normal
(~85% avg in the paper, stalls concentrated in the hot subset); heat stroke
converts the victim's time into cooling stalls; under sedation the victim is
back to mostly-normal while variant2 spends the majority of its time sedated.
"""

from statistics import fmean

from conftest import emit

from repro.analysis import format_table
from repro.sim import pair_spec, solo_spec


def specs(config, names):
    out = {}
    for name in names:
        out[name, "solo"] = solo_spec(config, name, policy="stop_and_go")
        out[name, "attacked"] = pair_spec(config, name, "variant2", policy="stop_and_go")
        out[name, "defended"] = pair_spec(config, name, "variant2", policy="sedation")
    return out


def test_fig6_time_breakdown(
    results, bench_config, benchmarks_list, results_dir, benchmark
):
    rows = []
    solo_norm, attacked_cool, defended_norm, v2_sedated = [], [], [], []
    for name in benchmarks_list:
        solo = results[name, "solo"].threads[0]
        attacked = results[name, "attacked"].threads[0]
        defended_run = results[name, "defended"]
        defended = defended_run.threads[0]
        attacker = defended_run.threads[1]
        rows.append(
            [
                name,
                f"{solo.normal_fraction:.0%}/{solo.cooling_fraction:.0%}",
                f"{attacked.normal_fraction:.0%}/{attacked.cooling_fraction:.0%}",
                f"{defended.normal_fraction:.0%}/{defended.cooling_fraction:.0%}",
                f"{attacker.normal_fraction:.0%}/{attacker.sedated_fraction:.0%}",
            ]
        )
        solo_norm.append(solo.normal_fraction)
        attacked_cool.append(attacked.cooling_fraction)
        defended_norm.append(defended.normal_fraction)
        v2_sedated.append(attacker.sedated_fraction)

    table = format_table(
        [
            "benchmark",
            "solo norm/cool",
            "+v2 sng norm/cool",
            "+v2 sed norm/cool",
            "v2 itself norm/sedated",
        ],
        rows,
        title="Figure 6: breakdown of execution time",
    )
    emit(results_dir, "fig6_time_breakdown", table)

    # Shape assertions (paper: solo 85% normal; attack 87% stalls; sedation
    # returns the victim to ~83% normal; v2 mostly sedation-stalled).
    assert fmean(solo_norm) > 0.8
    assert fmean(attacked_cool) > 0.06
    assert fmean(defended_norm) > 0.85
    assert fmean(v2_sedated) > 0.15

    from repro.sim import run_workloads

    benchmark.pedantic(
        lambda: run_workloads(
            bench_config.with_policy("sedation"),
            ["swim", "variant2"],
            quantum_cycles=2_000,
        ),
        rounds=1,
        iterations=1,
    )
