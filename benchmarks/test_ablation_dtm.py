"""Ablation — stop-and-go vs DVFS as the base-case DTM (paper §4).

The paper argues (citing HotSpot's Figure 6) that for realistic
configurations stop-and-go performs close enough to DVS to serve as the
base case.  This ablation measures both policies under heat stroke, plus a
fetch-policy ablation (ICOUNT vs round-robin) isolating the fetch
arbitration's role in variant1's ideal-sink damage.
"""

import dataclasses

from conftest import emit

from repro.analysis import format_table
from repro.sim import ExperimentRunner, run_workloads


def test_global_dtm_policies_vs_heat_stroke(runner, results_dir, benchmark):
    """Every *global* DTM baseline leaves the victim badly degraded; only
    per-thread sedation helps.  TTDFS additionally illustrates the paper's
    §4 criticism: it never stalls, so temperatures are free to keep rising.
    """
    policies = ("stop_and_go", "dvfs", "fetch_gating", "ttdfs", "sedation")
    rows = []
    victims = ("gzip", "swim")
    victim_ipc = {}
    for name in victims:
        solo = runner.solo(name, policy="stop_and_go")
        row = [name, solo.threads[0].ipc]
        for policy in policies:
            result = runner.pair(name, "variant2", policy=policy)
            row.append(result.threads[0].ipc)
            victim_ipc[(name, policy)] = result.threads[0].ipc
        rows.append(row)

    table = format_table(
        ["victim", "solo"] + list(policies),
        rows,
        title="Ablation: DTM policies under heat stroke (victim IPC; paper §4)",
    )
    emit(results_dir, "ablation_dtm_policy", table)

    for name in victims:
        solo_ipc = rows[victims.index(name)][1]
        # Global baselines all hurt...
        for policy in ("stop_and_go", "dvfs", "fetch_gating", "ttdfs"):
            assert victim_ipc[(name, policy)] < 0.92 * solo_ipc, (name, policy)
        # ...and sedation beats every one of them.
        for policy in ("stop_and_go", "dvfs", "fetch_gating"):
            assert victim_ipc[(name, "sedation")] >= victim_ipc[(name, policy)]

    benchmark.pedantic(
        lambda: run_workloads(
            runner.base.with_policy("dvfs"), ["gzip", "variant2"], quantum_cycles=2_000
        ),
        rounds=1,
        iterations=1,
    )


def test_monopolization_vs_heat_stroke(bench_config, bench_cache, results_dir, benchmark):
    """Where does each attack's damage live?

    variant1's ideal-sink damage is shared-*bandwidth* monopolization: it
    survives a round-robin fetch policy and even a statically partitioned
    issue window (in this machine the binding resource is issue bandwidth,
    not the window or the fetch slots the paper's discussion emphasizes).
    variant2's stop-and-go damage is *thermal*: window partitioning — which
    eliminates any window-occupancy channel — leaves it untouched, which is
    exactly the paper's claim that heat stroke "does not monopolize shared
    resources in SMT".
    """
    rows = []
    outcomes = {}
    for label, machine in (
        ("baseline", bench_config.machine),
        (
            "round_robin fetch",
            dataclasses.replace(bench_config.machine, fetch_policy="round_robin"),
        ),
        (
            "partitioned RUU",
            dataclasses.replace(bench_config.machine, ruu_partitioned=True),
        ),
    ):
        config = dataclasses.replace(bench_config, machine=machine)
        runner = ExperimentRunner(config, cache_dir=bench_cache)
        solo_ideal = runner.solo("gzip", policy="ideal", ideal_sink=True)
        v1_ideal = runner.pair("gzip", "variant1", policy="ideal", ideal_sink=True)
        solo_real = runner.solo("gzip", policy="stop_and_go")
        v2_real = runner.pair("gzip", "variant2", policy="stop_and_go")
        v1_retained = v1_ideal.threads[0].ipc / solo_ideal.threads[0].ipc
        v2_retained = v2_real.threads[0].ipc / solo_real.threads[0].ipc
        outcomes[label] = (v1_retained, v2_retained, v2_real.emergencies)
        rows.append(
            [
                label,
                f"{v1_retained:.0%}",
                f"{v2_retained:.0%}",
                v2_real.emergencies,
            ]
        )

    table = format_table(
        ["machine", "v1/ideal retained", "v2/stop&go retained", "v2 emergencies"],
        rows,
        title="Ablation: bandwidth monopolization (v1) vs heat stroke (v2)",
    )
    emit(results_dir, "ablation_fetch_policy", table)

    base_v1, base_v2, base_em = outcomes["baseline"]
    for label, (v1_retained, v2_retained, emergencies) in outcomes.items():
        # variant1 monopolizes under every arbitration scheme...
        assert v1_retained < 0.5, label
        # ...while variant2's thermal damage is structural-sharing-agnostic:
        # it persists (with emergencies) under partitioning too.
        assert v2_retained < 0.75, label
        assert emergencies >= 4, label

    benchmark.pedantic(
        lambda: run_workloads(
            bench_config.with_ideal_sink(), ["gzip", "variant1"], quantum_cycles=2_000
        ),
        rounds=1,
        iterations=1,
    )
