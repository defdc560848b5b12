"""One benchmark unit, run in a fresh interpreter by ``bench/run.py``.

Usage (internal): ``python bench/unit.py '<json args>'``.  The JSON names
the workload, seed, quantum, whether to trace, the cache directory of the
sweeps, ``mode`` (``"unit"``, or ``"fill"`` for one seed's share of the
warm sweep's cache fill) and ``spawn_ns``, the parent's ``time.monotonic_ns()`` just before it
started this process, so set-up time includes interpreter start and
``import repro``.  The unit prints one JSON object as its last line.

Each unit pays every cost a ``repro run`` user pays: nothing is memoised
across units, because every unit is a new process.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Thermal time compression for every workload (the figure suite's default).
TIME_SCALE = 4000.0

#: Worker processes for the sweeps: the reference host has two vCPUs.
JOBS = 2

#: Fig. 5's eleven gzip configurations: (other thread, policy or "ideal-sink").
FIG5 = (
    ("idle", "ideal-sink"),
    ("idle", "stop_and_go"),
    *(
        (variant, policy)
        for variant in ("variant1", "variant2", "variant3")
        for policy in ("ideal-sink", "stop_and_go", "sedation")
    ),
)

#: §5.6 sedation threshold ladder (upper K, lower K).
THRESHOLDS = ((356.0, 354.1), (356.5, 354.2), (357.0, 354.4), (357.4, 354.8))

#: §5.7 benign pairs, each under both policies.
BENIGN_PAIRS = (("gcc", "swim"), ("eon", "applu"))

#: Seeds replayed by the warm sweep: the grid at seed, seed+1, ... seed+5.
WARM_SEEDS = 6

#: Traced layers: the scalar engine's, then the campaign's.  Names follow
#: the modules they time.
LAYERS = [
    "simulator", "pipeline", "workloads", "power", "thermal", "sensors",
    "usage", "dtm",
    "parallel", "batch", "cache", "fingerprint", "journal", "rollup",
]

#: ``RUNNER_METRICS`` counters reported per traced unit.
#: (Lanes, trajectories, cohorts and splits come from the kernel's own
#: metrics dict as ``batch.*``; the runner's copies would repeat them.)
RUNNER_COUNTERS = [
    "runner.batch_groups", "runner.batch_completed", "runner.failures",
    "runner.retries",
]


def _import_repro() -> None:
    """Import the library from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    where = Path(repro.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"bench: imported repro from {where}, not {src}")


def paper_grid(seed: int, quantum: int) -> list:
    """The 21-spec campaign: Fig. 5, the §5.6 ladder, §5.7 pairs, faults."""
    from repro.config import scaled_config
    from repro.faults import FaultPlan, SensorFaultPlan
    from repro.sim.parallel import RunSpec
    from repro.workloads import intermittent_plan

    base = scaled_config(time_scale=TIME_SCALE, quantum_cycles=quantum, seed=seed)

    def configured(policy: str):
        return base.with_ideal_sink() if policy == "ideal-sink" else base.with_policy(policy)

    specs = [
        RunSpec(workloads=("gzip", other), config=configured(policy))
        for other, policy in FIG5
    ]
    sedation = base.with_policy("sedation")
    specs += [
        RunSpec(workloads=("gzip", "variant2"),
                config=sedation.with_thresholds(upper, lower))
        for upper, lower in THRESHOLDS
    ]
    specs += [
        RunSpec(workloads=pair, config=base.with_policy(policy))
        for pair in BENIGN_PAIRS
        for policy in ("stop_and_go", "sedation")
    ]
    faults = (
        FaultPlan(seed=11, sensor=SensorFaultPlan(mode="dropout", rate=0.1)),
        FaultPlan(seed=11, attacker=intermittent_plan(sedation.thermal)),
    )
    specs += [
        RunSpec(workloads=("gzip", "variant2"), config=sedation.with_faults(plan))
        for plan in faults
    ]
    return specs


def warm_grid(seed: int, quantum: int) -> list:
    return [
        spec
        for offset in range(WARM_SEEDS)
        for spec in paper_grid(seed + offset, quantum)
    ]


# -- hooks (traced units only) ---------------------------------------------


def hook_simulator(tracer, sim) -> None:
    """Wrap the layers of one built ``Simulator`` (instance attributes)."""
    tracer.hook(sim, "run", "simulator")
    tracer.hook(sim.core, "run_cycles", "pipeline")
    tracer.hook(sim.core, "skip_cycles", "pipeline")
    for thread in sim.core.threads:
        tracer.hook(thread.source, "peek_pc", "workloads", fold=True)
        tracer.hook(thread.source, "next_uop", "workloads", fold=True)
    tracer.hook(sim.accountant, "block_powers", "power")
    tracer.hook(sim.accountant, "idle_powers", "power")
    tracer.hook(sim.thermal, "advance", "thermal")
    tracer.hook(sim.sensors, "sample", "sensors")
    for name in ("sample", "skip", "miss_sample"):
        tracer.hook(sim.monitor, name, "usage")
    tracer.hook(sim.policy, "on_sensor", "dtm")


def hook_sweep(tracer, counts: dict, batch_shapes: list) -> None:
    """Wrap the campaign layers (module and class attributes)."""
    from repro.sim import durable, parallel, rollup

    def loaded(args, result) -> None:
        counts["cache.loads"] += 1
        counts["cache.hits"] += result is not None

    def stored(args, result) -> None:
        cache_dir, key = args[0], args[1]
        counts["cache.stores"] += 1
        try:
            path = parallel._cache_path(Path(cache_dir), key)
            counts["cache.bytes_written"] += path.stat().st_size
        except (AttributeError, OSError, TypeError):
            pass  # no cache dir, or no _cache_path any more: reads 0 (a test checks)

    def appended(args, result) -> None:
        counts["journal.appends"] += 1

    def batched(args, result) -> None:
        metrics = args[1] if len(args) > 1 and args[1] is not None else {}
        batch_shapes.append(dict(metrics))

    tracer.hook(parallel, "run_many", "parallel")
    tracer.hook(durable, "run_durable", "parallel")
    for module in (parallel, durable):
        tracer.hook(module, "spec_fingerprint", "fingerprint")
        tracer.hook(module, "_cache_load", "cache", after=loaded)
    tracer.hook(parallel, "_cache_store", "cache", after=stored)
    tracer.hook(parallel, "simulate_lockstep", "batch", after=batched)
    tracer.hook(durable.CampaignJournal, "append", "journal", after=appended)
    tracer.hook(durable.CampaignJournal, "records", "journal")
    for module in (rollup, durable):
        tracer.hook(module, "build_rollup", "rollup")
        tracer.hook(module, "write_rollup", "rollup")


# -- units -------------------------------------------------------------------


def digest(results) -> str:
    from repro.sim.durable import results_to_canonical_json

    return hashlib.sha256(results_to_canonical_json(results).encode()).hexdigest()


def scalar_unit(args: dict, tracer) -> tuple[float, float, list, dict]:
    """One ``Simulator.run``: (set-up seconds, wall seconds, results, counts)."""
    from repro.config import scaled_config
    from repro.sim.simulator import Simulator

    workloads, policy = {
        "attack-run": (["gzip", "variant2"], "sedation"),
        "solo-mem-run": (["mcf", "idle"], "stop_and_go"),
    }[args["workload"]]
    config = scaled_config(
        time_scale=TIME_SCALE, quantum_cycles=args["quantum"], seed=args["seed"]
    ).with_policy(policy)
    sim = Simulator(config, workloads=workloads)
    setup_s = _since_spawn(args)
    if tracer is not None:
        hook_simulator(tracer, sim)
    start = time.perf_counter()
    result = sim.run()
    wall = time.perf_counter() - start
    perf = result.perf
    counts = {
        "pipeline.stepped_cycles": perf.stepped_cycles,
        "pipeline.idle_skipped_cycles": perf.idle_skipped_cycles,
        "pipeline.stall_skipped_cycles": perf.stall_skipped_cycles,
        "thermal.propagator_builds": perf.propagator_builds,
        "dtm.engagements": result.stall_engagements,
        "dtm.sedations": result.sedations,
    }
    return setup_s, wall, [result], counts


def sweep_unit(args: dict, tracer) -> tuple[float, float, list, dict]:
    """One campaign: cold ``run_durable`` or a warm ``run_many`` replay."""
    from repro.sim import durable, parallel

    cold = args["workload"] == "sweep-cold"
    # A warm fill writes one seed's grid; a warm replay reads all of them.
    replay = args["workload"] == "sweep-warm" and args["mode"] == "unit"
    specs = (warm_grid if replay else paper_grid)(args["seed"], args["quantum"])
    setup_s = _since_spawn(args)
    counts = dict.fromkeys(
        ["cache.loads", "cache.hits", "cache.stores", "cache.bytes_written",
         "journal.appends"], 0,
    )
    batch_shapes: list[dict] = []
    if tracer is not None:
        hook_sweep(tracer, counts, batch_shapes)
    # Looked up after hooking, so the traced pass times the wrapped driver.
    drive = durable.run_durable if cold else parallel.run_many
    start = time.perf_counter()
    results = drive(specs, cache_dir=args["cache_dir"], jobs=JOBS,
                    raise_on_error=False)
    wall = time.perf_counter() - start
    if tracer is not None:
        counts.update(_batch_counts(batch_shapes, args["quantum"],
                                    tracer.self_s.get("batch", 0.0)))
        # A fresh process, so the registry holds this unit's counts only.
        registry = getattr(parallel, "RUNNER_METRICS", None)
        counters = getattr(registry, "counters", {})
        counts.update({name: counters.get(name, 0) for name in RUNNER_COUNTERS})
    return setup_s, wall, results, counts


def _batch_counts(shapes: list[dict], quantum: int, busy: float) -> dict:
    """The kernel's shape: dedup (lanes per trajectory) and pipeline speed."""
    total = {key: sum(shape.get(key, 0) for shape in shapes)
             for key in ("lanes", "trajectories", "cohorts", "splits", "stream_rows")}
    trajectories = total["trajectories"]
    return {
        **{f"batch.{key}": value for key, value in total.items()},
        "batch.lanes_per_trajectory": total["lanes"] / trajectories if trajectories else 0.0,
        "batch.cohorts_per_trajectory": total["cohorts"] / trajectories if trajectories else 0.0,
        "batch.lane_cycles_per_s": total["lanes"] * quantum / busy if busy else 0.0,
        "batch.trajectory_cycles_per_s": trajectories * quantum / busy if busy else 0.0,
    }


def _since_spawn(args: dict) -> float:
    return (time.monotonic_ns() - args["spawn_ns"]) / 1e9


def main() -> None:
    args = json.loads(sys.argv[1])
    _import_repro()
    from repro.sim.parallel import RunFailure

    tracer = None
    if args["trace"]:
        from tracer import Tracer  # bench/ is sys.path[0] for this script

        tracer = Tracer()
    unit = scalar_unit if args["workload"] in ("attack-run", "solo-mem-run") else sweep_unit
    setup_s, wall, results, counts = unit(args, tracer)
    if args["mode"] == "fill":
        # The warm sweep's set-up is the cache fill itself.
        setup_s = _since_spawn(args)
    report = {
        "setup_s": setup_s,
        "wall_s": wall,
        "specs": len(results),
        "failures": sum(isinstance(result, RunFailure) for result in results),
        "sim_cycles": sum(getattr(result, "cycles", 0) for result in results),
        "uops": sum(
            thread.committed
            for result in results
            if not isinstance(result, RunFailure)
            for thread in result.threads
        ),
        "digest": digest(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = tracer.layer_metrics(LAYERS, wall)
        uop_calls = layers["workloads.calls"]
        stepped = counts.get("pipeline.stepped_cycles", 0)
        layers["workloads.ns_per_call"] = (
            layers["workloads.self_s"] / uop_calls * 1e9 if uop_calls else 0.0
        )
        layers["pipeline.ns_per_stepped_cycle"] = (
            layers["pipeline.self_s"] / stepped * 1e9 if stepped else 0.0
        )
        report["layers"] = {**layers, **counts}
        report["missing_hooks"] = tracer.missing
        report["spans"] = tracer.spans
    print(json.dumps(report))


if __name__ == "__main__":
    main()
