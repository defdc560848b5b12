"""Figure 3 — average integer-register-file access rates.

Paper series: flat average accesses/cycle at the integer register file for
each SPEC benchmark running alone, plus the three malicious variants.
Shape to hold: SPEC < ~6; variant1 ≈ 10 (widely separated); variant2 ≈ 4 and
variant3 ≈ 1.5 (inside the SPEC envelope, hence indistinguishable by flat
averages).

Two columns are reported.  The *ideal-sink* column is the pure behavioral
rate (no thermal stalls) — variant1's ~10 accesses/cycle separation shows
here.  The *realistic* column averages over the quantum including
stop-and-go stalls — variant1 throttles itself into the SPEC envelope there,
while variant2's engineered phases put it at ~4 in both regimes, which is
exactly the paper's point: flat averages cannot police threads.
"""

from conftest import emit

from repro.analysis import format_bar_chart, format_table
from repro.blocks import INT_RF
from repro.sim import solo_spec
from repro.workloads import MALICIOUS_VARIANTS


def specs(config, names):
    out = {}
    for name in names + list(MALICIOUS_VARIANTS):
        out[name, "ideal"] = solo_spec(config, name, policy="ideal", ideal_sink=True)
        out[name, "realistic"] = solo_spec(config, name, policy="stop_and_go")
    return out


def test_fig3_access_rates(
    results, bench_config, benchmarks_list, results_dir, benchmark
):
    rows = []
    ideal_rates = {}
    realistic_rates = {}
    for name in benchmarks_list + list(MALICIOUS_VARIANTS):
        ideal = results[name, "ideal"]
        realistic = results[name, "realistic"]
        ideal_rates[name] = ideal.threads[0].access_rate(INT_RF)
        realistic_rates[name] = realistic.threads[0].access_rate(INT_RF)
        rows.append(
            [name, ideal_rates[name], realistic_rates[name], ideal.threads[0].ipc]
        )

    table = format_table(
        ["workload", "acc/cyc (ideal sink)", "acc/cyc (realistic)", "ipc (ideal)"],
        rows,
        title="Figure 3: average integer register file access rate (solo)",
    )
    chart = format_bar_chart(
        [row[0] for row in rows], [row[1] for row in rows], unit=" acc/cyc"
    )
    emit(results_dir, "fig3_access_rates", table + "\n\n" + chart)

    spec_ideal = [ideal_rates[name] for name in benchmarks_list]
    spec_real = [realistic_rates[name] for name in benchmarks_list]
    # Paper shapes: SPEC < ~6 everywhere.
    assert max(spec_ideal) < 6.5
    # variant1 is widely separated in pure behavior (paper: ~10 vs < 6)...
    assert ideal_rates["variant1"] > max(spec_ideal) + 2.0
    # ...while variant2's quantum-average sits near the top of the SPEC
    # envelope (paper: ~4; far below its own burst rate) and variant3 hides
    # inside it (paper: ~1.5).
    assert realistic_rates["variant2"] < 2.3 * max(spec_real)
    assert realistic_rates["variant2"] < 0.7 * ideal_rates["variant1"]
    assert realistic_rates["variant3"] < max(spec_real) * 1.6
    assert realistic_rates["variant3"] < realistic_rates["variant2"]

    from repro.sim import run_workloads

    config = bench_config.with_policy("stop_and_go")
    benchmark.pedantic(
        lambda: run_workloads(config, ["gzip", "variant2"], quantum_cycles=2_000),
        rounds=1,
        iterations=1,
    )
