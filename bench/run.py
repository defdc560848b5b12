"""Repository benchmark for the Heat Stroke reproduction.

Usage, from the root of a checkout::

    python bench/run.py [--seed N] [--seconds S]     every workload, then a traced pass
    python bench/run.py --workload W --seed N --seconds S --trace 0|1
    python bench/run.py --smoke                      short quanta, one unit each
    python bench/run.py --series OUT.json [--seed N]  ten seeds per workload
    python bench/run.py --compare A.json B.json

A run drives one workload in a closed loop: one unit at a time, each in a
fresh interpreter (``bench/unit.py``), until ``--seconds`` would be
exceeded.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  Metric names and units come from ``BENCHMARK.json``.
See ``bench/README.md`` for the workloads, the metrics and how to read a
trace.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from unit import WARM_SEEDS  # bench/ is sys.path[0] for this script

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
DIGESTS = BENCH / "digests.json"

#: The seed whose outputs are pinned in ``bench/digests.json``.
DEFAULT_SEED = 42

#: Seeds per workload in a ``--series``: the ``--compare`` rule of at least
#: 9 pair wins out of 10 assumes ten.
SERIES_SEEDS = 10


#: Wall budget of one ``--workload`` run, set-up included: no unit starts
#: after it, and a unit still running at it is killed, so a run ends
#: within three minutes even if the library hangs.
RUN_CAP_S = 170.0


@dataclass(frozen=True)
class Workload:
    quantum: int
    smoke_quantum: int
    #: units measured even when ``--seconds`` runs out first
    min_units: int


#: Quanta are sized so a run holds ten or more units: the reported value is
#: the best unit of the run, and a short unit is likelier to land in a
#: stretch where the host's other tenants leave the core alone.
WORKLOADS = {
    "attack-run": Workload(quantum=30_000, smoke_quantum=10_000, min_units=5),
    "solo-mem-run": Workload(quantum=250_000, smoke_quantum=20_000, min_units=5),
    "sweep-cold": Workload(quantum=4_000, smoke_quantum=2_000, min_units=5),
    "sweep-warm": Workload(quantum=2_000, smoke_quantum=1_000, min_units=10),
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_source_tree() -> None:
    """Refuse to run without the library's sources next to the benchmark."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)


# -- one unit in a fresh interpreter ------------------------------------------


def spawn(args: dict, timeout: float) -> dict:
    """Run ``bench/unit.py`` once; returns its report plus ``elapsed``.

    The child leads its own process group, so the sweeps' pool workers are
    stopped with it; the group is killed and waited for before returning.
    A child that crashes, times out or prints no report yields ``error``.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.monotonic()
    args = dict(args, spawn_ns=time.monotonic_ns())
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "unit.py"), json.dumps(args)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        return {"error": f"unit exceeded {timeout:.0f}s",
                "elapsed": time.monotonic() - start}
    finally:
        _kill_group(proc.pid)
    elapsed = time.monotonic() - start
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"unit exited {proc.returncode}: {err.strip()[-400:]}",
                "elapsed": elapsed}
    if err.strip():
        print(err.strip(), file=sys.stderr)
    try:
        report = json.loads(lines[-1])
    except ValueError:
        return {"error": "unit printed no JSON report", "elapsed": elapsed}
    report["elapsed"] = elapsed
    return report


def _kill_group(pgid: int) -> None:
    """SIGKILL a process group and wait until none of its members is left."""
    deadline = time.monotonic() + 5.0
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            os.killpg(pgid, 0)
            time.sleep(0.01)
    except (ProcessLookupError, PermissionError):
        return


# -- one workload -----------------------------------------------------------


def pinned_digest(workload: str, smoke: bool, seed: int) -> str | None:
    if seed != DEFAULT_SEED:
        return None
    pins = json.loads(DIGESTS.read_text())
    return pins["smoke" if smoke else "full"].get(workload)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Measure one workload for ``seconds``; the traced variant with ``trace``.

    Units alternate untraced/traced in a traced run, so the per-layer
    numbers and the untraced unit they are compared with come from the
    same stretch of machine time.
    """
    workload = WORKLOADS[name]
    quantum = workload.smoke_quantum if smoke else workload.quantum
    min_units = 1 if smoke else workload.min_units
    if trace:
        min_units = max(min_units, 2)
    run_deadline = time.monotonic() + RUN_CAP_S
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reference = pinned_digest(name, smoke, seed)
    base = {"workload": name, "seed": seed, "quantum": quantum,
            "trace": False, "mode": "unit", "cache_dir": str(work / "cache")}
    units: list[dict] = []
    fills: list[dict] = []
    try:
        # The warm sweep's set-up fills its cache one seed's grid at a
        # time.  A whole fill is one ~5 s call whose time swings by a third
        # with the host's load; of six ~1 s fills, like the other units,
        # the best can land in a quiet stretch (README, "Steadiness").
        # The replays' digest covers every result the fills wrote.
        for offset in range(WARM_SEEDS if name == "sweep-warm" else 0):
            fill = spawn(dict(base, mode="fill", seed=seed + offset),
                         run_deadline - time.monotonic())
            _check(fill, None)
            fills.append(fill)
            if fill["error"]:
                return _outcome(name, units, fills, trace)
        start = time.monotonic()
        while len(units) < min_units or (
            time.monotonic() - start
            + statistics.median(unit["elapsed"] for unit in units)
            <= seconds
        ):
            args = dict(base, trace=trace and len(units) % 2 == 1)
            if name == "sweep-cold":
                args["cache_dir"] = str(work / f"cold-{len(units)}")
            unit = spawn(args, run_deadline - time.monotonic())
            unit["traced"] = args["trace"]
            _check(unit, reference)
            reference = reference or unit.get("digest")
            units.append(unit)
            if name == "sweep-cold":
                shutil.rmtree(args["cache_dir"], ignore_errors=True)
            if time.monotonic() > run_deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return _outcome(name, units, fills, trace)


def _check(unit: dict, reference: str | None) -> None:
    """Set ``unit["error"]`` unless every spec succeeded with the right bytes."""
    if "error" in unit:
        return
    unit["error"] = None
    if unit["failures"]:
        unit["error"] = f"{unit['failures']} RunFailure slot(s)"
    elif reference is not None and unit["digest"] != reference:
        unit["error"] = f"digest {unit['digest'][:12]} != {reference[:12]}"


def _outcome(name: str, units: list[dict], fills: list[dict], trace: bool) -> dict:
    everything = units + fills
    failed = [unit for unit in everything if unit["error"]]
    for unit in failed:
        print(f"bench: {name}: {unit['error']}", file=sys.stderr)
    good = [unit for unit in units if not unit["error"]]
    plain = [unit for unit in good if not unit["traced"]]
    samples = {
        # The warm sweep's set-ups are its fills; every other unit sets up.
        "setup_s": [fill["setup_s"] for fill in fills if not fill["error"]]
        if fills else [unit["setup_s"] for unit in plain],
        "wall_s": [unit["wall_s"] for unit in plain],
        "sim_cycles_per_s": [unit["sim_cycles"] / unit["wall_s"] for unit in plain],
        "uops_per_s": [unit["uops"] / unit["wall_s"] for unit in plain],
        "specs_per_s": [unit["specs"] / unit["wall_s"] for unit in plain],
        "peak_rss_mb": [unit["peak_rss_mb"] for unit in plain],
    }
    outcome = {
        "correct": not failed and bool(plain),
        "attempted": len(everything),
        "failed": len(failed),
        "samples": samples,
        # Printed even when the pins reject it, so it can be re-pinned.
        "digest": next((unit["digest"] for unit in everything if "digest" in unit), None),
    }
    traced = [unit for unit in good if unit["traced"]]
    if trace:
        outcome["correct"] = outcome["correct"] and bool(traced)
    if traced and plain:
        # The fastest traced unit, against the fastest untraced one: the
        # same statistic the end-to-end metrics report.
        chosen = min(traced, key=lambda unit: unit["wall_s"])
        layers = dict(chosen["layers"])
        layers["trace.overhead_fraction"] = (
            chosen["wall_s"] / min(samples["wall_s"]) - 1.0
        )
        outcome["layers"] = layers
        _write_trace(name, chosen, layers)
    return outcome


def _write_trace(name: str, unit: dict, layers: dict) -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    payload = {
        "workload": name,
        "wall_s": unit["wall_s"],
        "layers": layers,
        "missing_hooks": unit["missing_hooks"],
        "span_fields": ["name", "start", "end", "parent",
                        "folded_seconds", "folded_calls"],
        "spans": unit["spans"],
    }
    (RESULTS / f"trace-{name}.json").write_text(json.dumps(payload))


def best(values: list[float], better: str) -> float:
    """A run's value: its best unit (for ``setup_s``, its best set-up).

    Other tenants of the host share its cores, and for stretches of tens of
    seconds they slow this process by up to 1.6x.  The median unit of a run
    follows those stretches; the best unit tracks the code's own cost far
    more steadily (README, "Steadiness").
    """
    return min(values) if better == "lower" else max(values)


def metric_values(outcome: dict, spec: dict, trace: bool) -> dict:
    """The result line's ``metrics`` object: every metric of the chosen tier."""
    if trace:
        layers = outcome.get("layers", {})
        return {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                for m in spec["per_layer"]}
    return {
        m["name"]: {"value": best(outcome["samples"][m["name"]], m["better"]),
                    "unit": m["unit"]}
        for m in spec["end_to_end"]
        if outcome["samples"][m["name"]]
    }


def tail_percentile(values: list[float], better: str) -> str:
    """The worst-side standard percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            q = p if better == "lower" else 100 - p
            return f"p{q}={statistics.quantiles(values, n=100)[q - 1]:.6g}"
    return "no percentile has 10 samples beyond it"


def describe(name: str, outcome: dict, spec: dict, trace: bool) -> None:
    print(f"{name}: {outcome['attempted']} unit(s), {outcome['failed']} failed, "
          f"digest {outcome['digest']}")
    if trace:
        for key, value in sorted(outcome.get("layers", {}).items()):
            if value:
                print(f"  {key:<34} {value:.6g}")
        return
    for m in spec["end_to_end"]:
        values = outcome["samples"][m["name"]]
        if values:
            print(f"  {m['name']:<18} best {best(values, m['better']):.6g} "
                  f"{m['unit']}  median {statistics.median(values):.6g}  "
                  f"n={len(values)}  {tail_percentile(values, m['better'])}")


# -- series and comparison --------------------------------------------------


def series(out: Path, seed: int, seconds: float) -> int:
    """Ten seeds per workload (seeds outermost), plus one traced run each.

    Returns 1 if any run was incorrect; the file is written either way.
    """
    spec = load_spec()
    runs = []
    for offset in range(SERIES_SEEDS):
        for w in spec["workloads"]:
            outcome = run_workload(w["name"], seed + offset, seconds, trace=False)
            runs.append(_series_row(w["name"], seed + offset, False, outcome, spec))
            print(json.dumps(runs[-1]), flush=True)
    for w in spec["workloads"]:
        outcome = run_workload(w["name"], seed, seconds, trace=True)
        runs.append(_series_row(w["name"], seed, True, outcome, spec))
    out.write_text(json.dumps({"seconds": seconds, "runs": runs}, indent=1) + "\n")
    return 0 if all(run["correct"] for run in runs) else 1


def _series_row(name: str, seed: int, trace: bool, outcome: dict, spec: dict) -> dict:
    return {"workload": name, "seed": seed, "trace": int(trace),
            "correct": outcome["correct"], "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": metric_values(outcome, spec, trace)}


def judge(base: list[float], new: list[float], better: str, bound: float) -> dict:
    """Verdict for one workload x metric.

    ``better``: at least 9/10 of index-aligned pairs won and the medians
    differ by more than the base's quartile distance.  ``worse``: the
    median moved the wrong way by more than ``bound``.  ``unresolved``:
    either side's quartile spread exceeds ``bound``, unless every new run
    beats every base run.  Otherwise ``same``.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    base_q, new_q = _quartiles(base), _quartiles(new)
    spread = max((base_q[1] - base_q[0]) / base_median,
                 (new_q[1] - new_q[0]) / new_median)
    change = sign * (new_median - base_median) / base_median
    pairs = list(zip(base, new, strict=False))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    beats_all = (max(new) < min(base)) if sign > 0 else (min(new) > max(base))
    if spread > bound:
        verdict = "better" if beats_all else "unresolved"
    elif change > bound:
        verdict = "worse"
    elif (change < 0 and wins >= 0.9 * len(pairs)
          and abs(new_median - base_median) > base_q[1] - base_q[0]):
        verdict = "better"
    else:
        verdict = "same"
    return {"verdict": verdict, "base": base_median, "new": new_median,
            "spread": spread, "wins": wins, "pairs": len(pairs)}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def compare(base_path: Path, new_path: Path) -> int:
    """Print one verdict per workload x end-to-end metric; 1 if any is worse."""
    spec = load_spec()
    base_runs = json.loads(base_path.read_text())["runs"]
    new_runs = json.loads(new_path.read_text())["runs"]
    worse = 0
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            def values(runs, workload=w["name"], metric=m["name"]):
                return [run["metrics"][metric]["value"] for run in runs
                        if run["workload"] == workload and not run["trace"]
                        and metric in run["metrics"]]

            base, new = values(base_runs), values(new_runs)
            if not base or not new:
                print(f"{w['name']:<13} {m['name']:<17} missing samples")
                continue
            v = judge(base, new, m["better"], m["bound"])
            worse += v["verdict"] == "worse"
            print(f"{w['name']:<13} {m['name']:<17} {v['verdict']:<10} "
                  f"new/base {v['new'] / v['base']:.4f} "
                  f"(base median {v['base']:.6g} {m['unit']}, "
                  f"new median {v['new']:.6g})  spread {v['spread']:.3f} "
                  f"(bound {m['bound']})  pair wins {v['wins']}/{v['pairs']}")
    return 1 if worse else 0


# -- command line ------------------------------------------------------------


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Every workload untraced, then the traced pass; one combined JSON line."""
    spec = load_spec()
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}, "layers": {}}
    for trace in (False, True):
        for w in spec["workloads"]:
            outcome = run_workload(w["name"], seed, seconds, trace, smoke)
            describe(w["name"], outcome, spec, trace)
            combined["correct"] = combined["correct"] and outcome["correct"]
            combined["attempted"] += outcome["attempted"]
            combined["failed"] += outcome["failed"]
            key = "layers" if trace else "metrics"
            combined[key][w["name"]] = metric_values(outcome, spec, trace)
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--series", type=Path, metavar="OUT")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    require_source_tree()
    spec = load_spec()
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("bench: BENCHMARK.json workloads differ from bench/run.py",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.series:
        return series(args.series, args.seed, seconds)
    if args.workload is None:
        return run_all(args.seed, 0.0 if args.smoke else seconds, args.smoke)
    outcome = run_workload(args.workload, args.seed, seconds, bool(args.trace),
                           args.smoke)
    describe(args.workload, outcome, spec, bool(args.trace))
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metric_values(outcome, spec, bool(args.trace)),
    }))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
