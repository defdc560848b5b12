"""§5 result (7) — no false-positive cost on non-malicious pairs.

Pairs of SPEC programs run with and without selective sedation; the paper
shows sedation "does not affect the performance of normal threads in the
absence of heat stroke".
"""

from statistics import fmean

from conftest import emit

from repro.analysis import format_table
from repro.sim import pair_spec

PAIRS = (
    ("gcc", "swim"),
    ("gzip", "mcf"),
    ("eon", "applu"),
    ("crafty", "art"),
)

POLICIES = ("stop_and_go", "sedation")


def specs(config, names):
    return {
        (a, b, policy): pair_spec(config, a, b, policy=policy)
        for a, b in PAIRS
        for policy in POLICIES
    }


def test_sec57_spec_pairs(results, bench_config, results_dir, benchmark):
    rows = []
    ratios = []
    for a, b in PAIRS:
        base = results[a, b, "stop_and_go"]
        guarded = results[a, b, "sedation"]
        for tid, name in ((0, a), (1, b)):
            base_ipc = base.threads[tid].ipc
            guarded_ipc = guarded.threads[tid].ipc
            ratio = guarded_ipc / base_ipc if base_ipc else 1.0
            ratios.append(ratio)
            rows.append(
                [
                    f"{a}+{b}",
                    name,
                    base_ipc,
                    guarded_ipc,
                    f"{ratio:.0%}",
                    guarded.sedations,
                ]
            )

    table = format_table(
        ["pair", "thread", "stop&go ipc", "sedation ipc", "ratio", "sedations"],
        rows,
        title="Section 5 (7): SPEC-only pairs — sedation has no false-positive cost",
    )
    emit(results_dir, "sec57_spec_pairs", table)

    # No thread loses more than ~10% to sedation, and on average the two
    # policies are indistinguishable.
    assert min(ratios) > 0.85
    assert 0.95 < fmean(ratios) < 1.1

    from repro.sim import run_workloads

    benchmark.pedantic(
        lambda: run_workloads(
            bench_config.with_policy("sedation"), ["gcc", "swim"], quantum_cycles=2_000
        ),
        rounds=1,
        iterations=1,
    )
