"""§5.6 — sensitivity to the sedation temperature thresholds.

The paper varies the upper/lower thresholds around (356 K, 355 K) and shows
selective sedation "is not critically sensitive to the thresholds we
choose": any upper threshold comfortably between the normal operating point
and the emergency point detects the culprit before stop-and-go would have
engaged.
"""

from conftest import emit

from repro.analysis import format_table
from repro.sim import pair_spec, solo_spec

THRESHOLD_PAIRS = ((356.0, 354.1), (356.5, 354.2), (357.0, 354.4), (357.4, 354.8))
VICTIM = "gzip"


def specs(config, names):
    out = {
        "solo": solo_spec(config, VICTIM, policy="stop_and_go"),
        "attacked": pair_spec(config, VICTIM, "variant2", policy="stop_and_go"),
    }
    for upper, lower in THRESHOLD_PAIRS:
        out[upper, lower] = pair_spec(
            config.with_thresholds(upper, lower), VICTIM, "variant2",
            policy="sedation",
        )
    return out


def test_sec56_threshold_sensitivity(results, bench_config, results_dir, benchmark):
    solo = results["solo"]
    attacked = results["attacked"]

    rows = []
    restored = {}
    for upper, lower in THRESHOLD_PAIRS:
        defended = results[upper, lower]
        ratio = defended.threads[0].ipc / solo.threads[0].ipc
        restored[(upper, lower)] = ratio
        rows.append(
            [
                f"{upper:.1f}/{lower:.1f}",
                defended.threads[0].ipc,
                f"{ratio:.0%}",
                defended.emergencies,
                defended.sedations,
            ]
        )

    table = format_table(
        ["upper/lower (K)", "victim ipc", "vs solo", "emergencies", "sedations"],
        rows,
        title=(
            "Section 5.6: threshold sensitivity "
            f"(solo={solo.threads[0].ipc:.2f}, attacked={attacked.threads[0].ipc:.2f})"
        ),
    )
    emit(results_dir, "sec56_threshold_sensitivity", table)

    values = list(restored.values())
    # Every threshold choice beats the undefended (stop-and-go) outcome...
    attacked_ratio = attacked.threads[0].ipc / solo.threads[0].ipc
    assert all(v > attacked_ratio + 0.05 for v in values)
    # ...and the spread across choices is small (not critically sensitive).
    assert max(values) - min(values) < 0.25

    from repro.sim import run_workloads

    benchmark.pedantic(
        lambda: run_workloads(
            bench_config.with_thresholds(357.0, 354.4).with_policy("sedation"),
            [VICTIM, "variant2"],
            quantum_cycles=2_000,
        ),
        rounds=1,
        iterations=1,
    )
