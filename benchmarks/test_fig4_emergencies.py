"""Figure 4 — temperature emergencies in one OS quantum.

Paper bars per benchmark: (1) solo, (2) with variant2 under stop-and-go,
(3) with variant2 under selective sedation.  Shape to hold: solo ≈ 0 (a few
for the hot subset), +variant2 ≥ 8 and at least a 4x average increase,
sedation restores roughly the solo counts.
"""

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


def test_fig4_emergencies(
    results, bench_config, benchmarks_list, results_dir, benchmark
):
    rows = []
    solo_total = attacked_total = defended_total = 0
    for name in benchmarks_list:
        solo = results[name, "solo"]
        attacked = results[name, "attacked"]
        defended = results[name, "defended"]
        rows.append(
            [name, solo.emergencies, attacked.emergencies, defended.emergencies]
        )
        solo_total += solo.emergencies
        attacked_total += attacked.emergencies
        defended_total += defended.emergencies

    table = format_table(
        ["benchmark", "solo", "+variant2 (stop&go)", "+variant2 (sedation)"],
        rows,
        title="Figure 4: temperature emergencies per OS quantum",
    )
    emit(results_dir, "fig4_emergencies", table)

    n = len(rows)
    # Shape: the attack multiplies emergencies at least 4x on average and
    # every benchmark sees at least 8 under attack (paper's wording).
    assert attacked_total >= 4 * max(n // 2, solo_total)
    assert all(row[2] >= 8 for row in rows)
    # Sedation restores the solo picture (small slack for hot benchmarks,
    # exactly as the paper reports).
    assert defended_total <= solo_total + 2 * n

    from repro.sim import run_workloads

    config = bench_config.with_policy("sedation")
    benchmark.pedantic(
        lambda: run_workloads(config, ["gzip", "variant2"], quantum_cycles=2_000),
        rounds=1,
        iterations=1,
    )
