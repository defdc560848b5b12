"""Engine throughput: simulated cycles per wall second.

Not a paper figure — the perf trajectory of the simulator itself.  Two
representative single runs are timed end to end through ``Simulator.run``:

* **attack** — gzip + variant2 under selective sedation (bursty power,
  sedation FSM active, little idle time to skip);
* **normal** — gcc + swim under stop-and-go (memory-bound SPEC pair, the
  idle fast-forward's best case).

A third measurement re-runs the attack pair with a ``TelemetrySession``
attached and asserts the **telemetry overhead guard**: the instrumented
run must stay within ``OVERHEAD_TOLERANCE`` of the plain run's
throughput — once for a bare session, and once each with a JSONL and a
columnar sink attached, so recording to disk is held to the same
budget.  The plain path contains no telemetry code at all (only
``None`` checks), so this bounds what observability costs when *on* and
documents that it costs nothing when off.  The comparison is paired
per round (each flavor against the same round's plain run) to keep the
ratios out of wall-clock noise.

The sink comparison also records bytes-per-run and events/second for
both on-disk formats and asserts the columnar acceptance gate from
docs/telemetry.md: the canonical attack log must pack into at most
``COLUMNAR_RATIO_CEILING`` of its JSONL size.

Results go to ``benchmarks/results/BENCH_throughput.json`` so successive
changes can track cycles-per-second over time; its ``ledger`` list keeps one
before/after row per performance change, naming the layer that moved.  The
``baseline`` block holds the pre-fast-path numbers (forward-Euler
substepping, no idle skip, recorded on the same class of machine) for the
speedup column; current numbers are machine-dependent, so compare trends,
not absolutes.

Run directly (``python benchmarks/perf_throughput.py``) or via pytest.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

from repro.config import scaled_config
from repro.sim import run_workloads
from repro.telemetry import TelemetrySession

#: Pre-fast-path engine throughput (cycles/s) at these exact settings,
#: measured before the exponential integrator / idle fast-forward landed.
BASELINE = {
    "attack_pair": {"workloads": ["gzip", "variant2"], "policy": "sedation",
                    "cycles_per_second": 28_125.8},
    "normal_pair": {"workloads": ["gcc", "swim"], "policy": "stop_and_go",
                    "cycles_per_second": 40_282.1},
}

SCALE = 4000.0
QUANTUM = 125_000

#: Maximum fractional throughput loss an attached TelemetrySession may
#: cost on the attack pair (the event-heaviest scenario).
OVERHEAD_TOLERANCE = 0.03

#: Runs per side of the overhead comparison (best-of-N wall time).
OVERHEAD_REPEATS = 3

#: The docs/telemetry.md acceptance gate: the canonical attack log in
#: columnar form must be at most this fraction of its JSONL size.
COLUMNAR_RATIO_CEILING = 0.25


def measure(
    workloads: list[str],
    policy: str,
    telemetry: bool = False,
    sink: Path | None = None,
) -> dict:
    config = scaled_config(time_scale=SCALE, quantum_cycles=QUANTUM).with_policy(
        policy
    )
    session = None
    if telemetry or sink is not None:
        sink_kwargs = {}
        if sink is not None:
            key = "columnar_path" if sink.suffix == ".npz" else "jsonl_path"
            sink_kwargs[key] = sink
        session = TelemetrySession(**sink_kwargs)
    start = time.perf_counter()
    result = run_workloads(config, workloads, telemetry=session)
    if session is not None:
        session.close()
    wall = time.perf_counter() - start
    perf = result.perf
    row = {
        "workloads": workloads,
        "policy": policy,
        "cycles": result.cycles,
        "wall_seconds": round(wall, 4),
        "cycles_per_second": round(result.cycles / wall, 1),
        "stepped_cycles": perf.stepped_cycles,
        "idle_skipped_cycles": perf.idle_skipped_cycles,
        "stall_skipped_cycles": perf.stall_skipped_cycles,
        "propagator_builds": perf.propagator_builds,
    }
    if session is not None:
        row["telemetry_events"] = session.bus.emitted
        row["events_per_second"] = round(session.bus.emitted / wall, 1)
    return row


def measure_telemetry_overhead() -> dict:
    """Best-of-N attack-pair throughput: plain vs session vs each sink.

    The comparison is *paired*: each round runs plain, bare session,
    JSONL sink, columnar sink back to back and computes each flavor's
    throughput ratio against that same round's plain run; the guard
    takes the best ratio per flavor across rounds.  Unpaired best-of-N
    is not enough here — wall-clock noise between rounds routinely
    exceeds the 3 % budget, while within a round the four runs see the
    same machine.  A *systematic* cost still fails: if a flavor is
    genuinely slower, it is slower in every round and no round yields a
    clean ratio.  The sink runs also record on-disk bytes, so the
    payload documents both what recording costs in time and what it
    costs in space (and the columnar:JSONL size ratio the format must
    hold).
    """
    with tempfile.TemporaryDirectory() as tmp:
        jsonl_path = Path(tmp) / "events.jsonl"
        columnar_path = Path(tmp) / "events.npz"
        flavors: dict[str, dict] = {
            "session": {"telemetry": True},
            "jsonl": {"sink": jsonl_path},
            "columnar": {"sink": columnar_path},
        }
        plain = 0.0
        best_ratio: dict[str, float] = dict.fromkeys(flavors, 0.0)
        best_rate: dict[str, float] = dict.fromkeys(flavors, 0.0)
        first: dict[str, dict] = {}
        for _ in range(OVERHEAD_REPEATS):
            round_plain = measure(["gzip", "variant2"], "sedation")[
                "cycles_per_second"
            ]
            plain = max(plain, round_plain)
            for name, kwargs in flavors.items():
                row = measure(["gzip", "variant2"], "sedation", **kwargs)
                rate = row["cycles_per_second"]
                best_ratio[name] = max(best_ratio[name], rate / round_plain)
                best_rate[name] = max(best_rate[name], rate)
                first.setdefault(name, row)
        jsonl_bytes = jsonl_path.stat().st_size
        columnar_bytes = columnar_path.stat().st_size

    def overhead(name: str) -> float:
        return round(max(0.0, 1.0 - best_ratio[name]), 4)

    return {
        "plain_cycles_per_second": plain,
        "instrumented_cycles_per_second": best_rate["session"],
        "jsonl_sink_cycles_per_second": best_rate["jsonl"],
        "columnar_sink_cycles_per_second": best_rate["columnar"],
        "events_per_run": first["session"]["telemetry_events"],
        "events_per_second": first["jsonl"]["events_per_second"],
        "jsonl_bytes_per_run": jsonl_bytes,
        "columnar_bytes_per_run": columnar_bytes,
        "columnar_jsonl_ratio": round(columnar_bytes / jsonl_bytes, 4),
        "columnar_ratio_ceiling": COLUMNAR_RATIO_CEILING,
        "overhead_fraction": overhead("session"),
        "jsonl_overhead_fraction": overhead("jsonl"),
        "columnar_overhead_fraction": overhead("columnar"),
        "tolerance": OVERHEAD_TOLERANCE,
    }


def run() -> dict:
    current = {
        "attack_pair": measure(["gzip", "variant2"], "sedation"),
        "normal_pair": measure(["gcc", "swim"], "stop_and_go"),
    }
    payload = {
        "time_scale": SCALE,
        "quantum_cycles": QUANTUM,
        "baseline": BASELINE,
        "current": current,
        "telemetry_overhead": measure_telemetry_overhead(),
        "speedup": {
            key: round(
                current[key]["cycles_per_second"]
                / BASELINE[key]["cycles_per_second"],
                2,
            )
            for key in BASELINE
        },
    }
    out = Path(__file__).parent / "results" / "BENCH_throughput.json"
    out.parent.mkdir(exist_ok=True)
    try:
        previous = json.loads(out.read_text())
    except (OSError, ValueError):
        previous = {}
    # perf_batch.py folds its speedup record into this file, and the
    # ``ledger`` holds hand-recorded before/after rows of perf changes; carry
    # both across rewrites so the benchmarks can run in either order.
    for key in ("batch_kernel", "ledger"):
        if key in previous:
            payload[key] = previous[key]
    out.write_text(json.dumps(payload, indent=1))
    return payload


def test_perf_throughput():
    payload = run()
    for key, row in payload["current"].items():
        print(
            f"{key}: {row['cycles_per_second']:,.0f} cyc/s "
            f"({payload['speedup'][key]:.2f}x baseline)"
        )
        assert row["cycles"] == QUANTUM
        assert row["cycles_per_second"] > 0
    overhead = payload["telemetry_overhead"]
    print(
        f"telemetry overhead: {overhead['overhead_fraction']:.1%} bare, "
        f"{overhead['jsonl_overhead_fraction']:.1%} jsonl, "
        f"{overhead['columnar_overhead_fraction']:.1%} columnar "
        f"({overhead['events_per_run']} events; "
        f"tolerance {overhead['tolerance']:.0%})"
    )
    print(
        f"log size: jsonl {overhead['jsonl_bytes_per_run']} B, "
        f"columnar {overhead['columnar_bytes_per_run']} B "
        f"(ratio {overhead['columnar_jsonl_ratio']:.3f}, "
        f"ceiling {overhead['columnar_ratio_ceiling']:.2f})"
    )
    assert overhead["overhead_fraction"] <= OVERHEAD_TOLERANCE
    assert overhead["jsonl_overhead_fraction"] <= OVERHEAD_TOLERANCE
    assert overhead["columnar_overhead_fraction"] <= OVERHEAD_TOLERANCE
    assert overhead["columnar_jsonl_ratio"] <= COLUMNAR_RATIO_CEILING


if __name__ == "__main__":
    print(json.dumps(run(), indent=1))
