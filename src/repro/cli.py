"""Command-line interface: ``python -m repro <command>``.

Commands (documented with examples in docs/cli.md):

* ``run`` — simulate one quantum of a workload mix under a DTM policy and
  print (or save) the result; ``--events`` streams a JSONL telemetry log.
* ``workloads`` — list every registered workload.
* ``attack`` — the quickstart demo: solo / attacked / defended comparison.
* ``temps`` — print the calibrated steady-state temperature ladder.
* ``events`` — filter/summarize an event log written by ``run`` (JSONL or
  columnar ``.npz``; summaries stream, so campaign-scale logs are fine).
* ``trace`` — render a temperature strip chart from a saved result or an
  event log.
* ``faults`` — run the same workload mix healthy and under an injected
  fault plan and compare what the defense still delivers.
* ``campaign-summary`` — list or render the campaign rollups written
  beside the run cache by ``run_many`` (docs/telemetry.md).
* ``campaign`` — list, inspect, or resume durable campaign journals
  (``repro campaign resume <id>`` finishes an interrupted campaign —
  docs/robustness.md).
* ``cache`` — cache-directory statistics and the quarantine listing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .analysis import format_table, strip_chart, trace_to_csv
from .blocks import BLOCK_NAMES, INT_RF, block_id
from .config import (
    EMERGENCY_TEMPERATURE_K,
    NORMAL_OPERATING_K,
    scaled_config,
)
from .errors import ReproError
from .faults import (
    SENSOR_FAULT_MODES,
    ActuatorFaultPlan,
    FaultPlan,
    SamplerFaultPlan,
    SensorFaultPlan,
)
from .power import EnergyModel
from .sim import ExperimentRunner, Simulator
from .sim.results import load_result, save_result
from .sim.parallel import RUNNER_METRICS
from .telemetry import (
    CaptureConfig,
    EventType,
    StreamingSummary,
    TelemetrySession,
    batch_narrative,
    columnar_meta,
    fault_injection_counts,
    iter_filtered,
    read_columnar,
    read_events,
    trace_rows,
)
from .thermal import RCThermalModel
from .workloads import (
    MALICIOUS_VARIANTS,
    SPEC_PROFILES,
    intermittent_plan,
    workload_names,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--time-scale", type=float, default=4000.0,
                        help="thermal time compression factor (DESIGN.md §4)")
    parser.add_argument("--quantum", type=int, default=None,
                        help="cycles per OS quantum (default: scaled preset)")
    parser.add_argument("--seed", type=int, default=42)


def _config(args) -> SimulationConfig:
    return scaled_config(
        time_scale=args.time_scale,
        quantum_cycles=args.quantum,
        seed=args.seed,
    )


def _is_columnar(path) -> bool:
    """Columnar ``.npz`` archives are selected by extension everywhere."""
    return path is not None and str(path).endswith(".npz")


def _read_log(path, retired: dict[str, int] | None = None):
    """(event iterator, columnar metadata or None) for either log format.

    Records of retired event types are skipped, counted in ``retired``.
    """
    if _is_columnar(path):
        return read_columnar(path, retired), columnar_meta(path)
    return read_events(path, retired), None


def cmd_run(args) -> int:
    config = _config(args).with_policy(args.policy)
    if args.ideal_sink:
        config = config.with_ideal_sink()
    session = None
    if args.events or args.telemetry:
        capture = CaptureConfig.parse(args.channel) if args.channel else None
        sink_kwargs = (
            {"columnar_path": args.events}
            if _is_columnar(args.events)
            else {"jsonl_path": args.events}
        )
        session = TelemetrySession(capture=capture, **sink_kwargs)
    simulator = Simulator(config, workloads=args.workloads, telemetry=session)
    result = simulator.run(trace=bool(args.output))
    print(result.summary())
    if args.perf and result.perf is not None:
        print(result.perf.summary())
    if session is not None:
        session.close()
        if args.telemetry:
            print(json.dumps(result.telemetry, indent=1))
        if args.events:
            suppressed = (
                f", {session.suppressed} capture-suppressed"
                if session.suppressed
                else ""
            )
            print(
                f"events: {session.bus.emitted} emitted "
                f"({session.bus.dropped} dropped from ring{suppressed}) "
                f"-> {args.events}"
            )
    if args.output:
        save_result(result, args.output)
        print(f"saved to {args.output}")
    return 0


def _format_event(event) -> str:
    parts = [f"[cycle {event.cycle:>8}] {event.type.value:<18}"]
    if event.thread is not None:
        parts.append(f"t{event.thread}")
    if event.block is not None:
        parts.append(BLOCK_NAMES[event.block])
    if event.value is not None:
        parts.append(f"value={event.value:.3f}")
    if event.data:
        parts.append(json.dumps(event.data, sort_keys=True))
    return " ".join(parts)


def cmd_events(args) -> int:
    retired: dict[str, int] = {}
    stream, meta = _read_log(args.log, retired)
    types = {EventType(name) for name in args.type} if args.type else None
    selected = iter_filtered(
        stream,
        types=types,
        thread=args.thread,
        block=block_id(args.block) if args.block else None,
        since=args.since,
        until=args.until,
    )
    if args.summary:
        # One streaming pass — the log is never materialized, so
        # campaign-scale archives summarize in bounded memory.  Batch
        # counters are per-process; present only when this process also
        # ran the simulations behind the log (programmatic use).  Ring
        # accounting rides columnar metadata only (JSONL has none).
        reducer = StreamingSummary()
        for event in selected:
            reducer.feed(event)
        print(reducer.render(
            batch_counters=RUNNER_METRICS.counters,
            ring=meta.get("ring") if meta else None,
            retired=retired,
        ))
        return 0
    remaining = 0
    for shown, event in enumerate(selected):
        if args.limit is not None and shown >= args.limit:
            remaining += 1
            continue
        print(_format_event(event))
    if remaining:
        print(f"... {remaining} more (raise --limit)")
    return 0


def cmd_trace(args) -> int:
    if args.events:
        stream, _ = _read_log(args.events)
        rows = trace_rows(stream)
    elif args.result:
        rows = load_result(args.result).trace
    else:
        raise ReproError("provide a result JSON or --events LOG.jsonl")
    if args.csv:
        print(trace_to_csv(rows), end="")
        return 0
    print(
        strip_chart(
            rows,
            emergency_k=EMERGENCY_TEMPERATURE_K,
            normal_k=NORMAL_OPERATING_K,
            width=args.width,
            column=args.column,
        )
    )
    return 0


def cmd_workloads(args) -> int:
    rows = []
    for name in workload_names():
        if name in MALICIOUS_VARIANTS:
            rows.append([name, "malicious kernel (paper Figs. 1-2)"])
        else:
            rows.append([name, SPEC_PROFILES[name].description])
    print(format_table(["workload", "description"], rows))
    return 0


def cmd_attack(args) -> int:
    config = _config(args)
    runner = ExperimentRunner(
        config, jobs=args.jobs, cache_dir=args.cache_dir, batch=args.batch
    )
    solo = runner.solo(args.victim, policy="stop_and_go")
    # One dispatch for both attacked arms: they share workloads, so the
    # batch tier runs them as one lock-step group that splits into
    # cohorts when the sedation policy diverges.
    paired = runner.pair_many(
        [(args.victim, args.variant)], policies=("stop_and_go", "sedation")
    )
    attacked = paired[(args.victim, args.variant, "stop_and_go")]
    defended = paired[(args.victim, args.variant, "sedation")]
    rows = [
        ["solo (stop-and-go)", solo.threads[0].ipc, solo.emergencies, "-"],
        [
            f"+{args.variant} (stop-and-go)",
            attacked.threads[0].ipc,
            attacked.emergencies,
            f"{1 - attacked.threads[0].ipc / solo.threads[0].ipc:.0%} degradation",
        ],
        [
            f"+{args.variant} (sedation)",
            defended.threads[0].ipc,
            defended.emergencies,
            f"attacker sedated {defended.threads[1].sedated_fraction:.0%}",
        ],
    ]
    print(format_table(
        ["configuration", f"{args.victim} ipc", "emergencies", "note"], rows,
        title=f"heat stroke vs {args.victim}",
    ))
    if args.batch:
        for line in batch_narrative(RUNNER_METRICS.counters):
            print(f"batch tier: {line}")
    return 0


def _fault_plan_from_args(args, thermal) -> FaultPlan:
    sensor = None
    if args.sensor is not None:
        sensor = SensorFaultPlan(
            mode=args.sensor,
            rate=args.sensor_rate,
            stuck_k=args.stuck_k,
            bias_k_per_sample=args.bias_k,
            burst_sigma_k=args.burst_sigma,
        )
    sampler = None
    if args.miss_rate > 0.0 or args.late_rate > 0.0:
        sampler = SamplerFaultPlan(
            miss_rate=args.miss_rate,
            late_rate=args.late_rate,
            late_cycles=args.late_cycles,
        )
    actuator = None
    if args.drop_rate > 0.0 or args.delay_cycles > 0:
        actuator = ActuatorFaultPlan(
            fail_rate=args.drop_rate, delay_cycles=args.delay_cycles
        )
    attacker = None
    if args.intermittent:
        attacker = intermittent_plan(
            thermal,
            on_seconds=args.on_ms * 1e-3,
            off_seconds=args.off_ms * 1e-3,
        )
    plan = FaultPlan(
        seed=args.fault_seed,
        sensor=sensor,
        sampler=sampler,
        actuator=actuator,
        attacker=attacker,
    )
    if not plan.any_runtime_faults:
        raise ReproError(
            "no faults configured — pass --sensor MODE, --miss-rate/"
            "--late-rate, --drop-rate/--delay-cycles, or --intermittent"
        )
    return plan


def cmd_faults(args) -> int:
    config = _config(args).with_policy(args.policy)
    plan = _fault_plan_from_args(args, config.thermal)
    healthy = Simulator(config, workloads=args.workloads).run()
    if _is_columnar(args.events):
        session = TelemetrySession(columnar_path=args.events)
    else:
        session = TelemetrySession(jsonl_path=args.events)
    faulted = Simulator(
        config.with_faults(plan), workloads=args.workloads, telemetry=session
    ).run()
    session.close()
    rows = []
    for tid, name in enumerate(args.workloads):
        before = healthy.threads[tid]
        after = faulted.threads[tid]
        rows.append([
            f"t{tid} {name}",
            before.ipc,
            after.ipc,
            f"{before.sedated_fraction:.0%} -> {after.sedated_fraction:.0%}",
        ])
    rows.append([
        "emergencies", healthy.emergencies, faulted.emergencies, "",
    ])
    print(format_table(
        ["thread", "healthy ipc", "faulted ipc", "sedated"], rows,
        title=f"fault plan (seed {plan.seed}) vs {args.policy}",
    ))
    injected = fault_injection_counts(session.bus.events())
    if injected:
        print("injected:")
        for name, count in injected.items():
            print(f"  {name:<22} {count}")
    if args.events:
        print(f"events -> {args.events}")
    return 0


def cmd_campaign_summary(args) -> int:
    from .sim.rollup import list_rollups, load_rollup

    if not args.key:
        rollups = list_rollups(args.cache_dir)
        if not rollups:
            print(f"no rollups under {args.cache_dir}/rollups")
            return 0
        rows = [
            [
                payload["key"][:12],
                payload["runs"],
                payload["failures"],
                " ".join(sorted(payload["policies"])),
                # A figure campaign holds dozens of mixes; the detail view
                # (``campaign-summary KEY``) lists them.
                len(payload["workloads"]),
            ]
            for payload in rollups
        ]
        print(format_table(
            ["rollup", "runs", "failures", "policies", "mixes"], rows,
            title=f"campaign rollups in {args.cache_dir}",
        ))
        return 0

    payload = load_rollup(args.cache_dir, args.key)
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    rows = []
    for policy, bucket in payload["policies"].items():
        mean_ipc = bucket["mean_ipc"]
        rows.append([
            policy,
            bucket["runs"],
            " ".join(f"{ipc:.3f}" for ipc in mean_ipc),
            bucket["emergencies"],
            bucket["sedations"],
            f"{bucket['peak_temperature_k']:.2f}",
        ])
    print(format_table(
        ["policy", "runs", "mean ipc (t0..)", "emergencies", "sedations",
         "peak T (K)"],
        rows,
        title=f"campaign {payload['key'][:12]} — {payload['runs']} runs "
              f"({payload['failures']} failures)",
    ))
    print(f"workloads: {', '.join(payload['workloads'])}")
    telemetry = payload.get("telemetry")
    if telemetry:
        emitted = sum(
            count
            for name, count in telemetry["counters"].items()
            if name.startswith("events.")
        )
        print(
            f"merged telemetry: {telemetry['runs']} instrumented runs, "
            f"{emitted} events counted"
        )
    return 0


def cmd_cache(args) -> int:
    from .sim.durable import cache_stats, quarantine_entries

    stats = cache_stats(args.cache_dir)
    if args.json:
        payload = dict(stats, quarantine=quarantine_entries(args.cache_dir))
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    versions = " ".join(
        f"v{version}={count}"
        for version, count in sorted(stats["format_versions"].items())
    )
    rows = [
        ["entries", stats["entries"], ""],
        ["bytes", stats["bytes"], ""],
        ["result formats", len(stats["format_versions"]), versions or "-"],
        ["rollups", stats["rollups"], ""],
        ["campaign journals", stats["campaigns"], ""],
        ["stale tmp files", stats["stale_tmp"], ""],
        ["unreadable entries", stats["unreadable"], ""],
        ["quarantined", stats["quarantined"], ""],
    ]
    print(format_table(
        ["metric", "count", "detail"], rows,
        title=f"cache {stats['cache_dir']}",
    ))
    quarantined = quarantine_entries(args.cache_dir)
    if quarantined:
        print(format_table(
            ["quarantined entry", "bytes", "reason"],
            [[e["file"][:28], e["bytes"], e["reason"]] for e in quarantined],
        ))
    return 0


def cmd_campaign(args) -> int:
    from .sim.durable import (
        list_campaigns,
        resume_campaign,
        results_to_canonical_json,
    )
    from .sim.parallel import RunFailure

    if args.action == "list":
        rows = [
            [
                row.get("campaign", "?")[:16],
                row.get("slots", "?"),
                row.get("completed", "?"),
                row.get("failed", "?"),
                row.get("sealed", row.get("error", "?")),
            ]
            for row in list_campaigns(args.cache_dir)
        ]
        if not rows:
            print(f"no campaign journals under {args.cache_dir}/journal")
            return 0
        print(format_table(
            ["campaign", "slots", "done", "failed", "state"],
            rows,
            title=f"durable campaigns in {args.cache_dir}",
        ))
        return 0

    if not args.id:
        raise ReproError(f"campaign {args.action} needs a campaign id")

    if args.action == "show":
        from .sim.durable import _find_journal, replay

        state = replay(_find_journal(Path(args.cache_dir), args.id))
        payload = {
            "campaign": state.campaign_id,
            "slots": len(state.manifest),
            "specs": len(state.order),
            "completed": sorted(state.completed),
            "failed": sorted(state.failed),
            "sealed": state.sealed or "open",
            "options": state.options,
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0

    # resume
    results = resume_campaign(
        args.id,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        force=args.force,
        retries=args.retries,
        raise_on_error=False,
    )
    failures = [r for r in results if isinstance(r, RunFailure)]
    print(
        f"campaign resumed: {len(results) - len(failures)} of "
        f"{len(results)} slot(s) ok"
    )
    for failure in failures[:5]:
        print(
            f"  {'+'.join(failure.workloads)}: {failure.kind} "
            f"({failure.error})"
        )
    if len(failures) > 5:
        print(f"  ... {len(failures) - 5} more")
    if args.canonical:
        print(results_to_canonical_json(results))
    return 1 if failures else 0


def cmd_temps(args) -> int:
    config = _config(args)
    model = RCThermalModel(config.thermal)
    energy = EnergyModel.default()
    rows = []
    for rate in (0, 2, 4, 6, 8, 10, 12):
        power = (
            energy.leakage_w[INT_RF]
            + rate * energy.energy_j[INT_RF] * config.thermal.frequency_hz
        )
        temp = model.steady_state_block_temperature(
            INT_RF, power, model.nominal_sink_k
        )
        note = ""
        if temp >= config.thermal.emergency_k:
            note = "EMERGENCY"
        elif temp >= config.sedation.upper_threshold_k:
            note = "upper threshold"
        elif temp >= config.thermal.normal_operating_k:
            note = "normal operating"
        rows.append([rate, temp, note])
    print(format_table(
        ["int-RF acc/cycle", "steady T (K)", ""], rows,
        title="calibrated temperature ladder",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Heat Stroke (HPCA 2005) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one quantum")
    run.add_argument("workloads", nargs=2, metavar="WORKLOAD",
                     help="two workload names (see `repro workloads`)")
    run.add_argument("--policy", default="stop_and_go",
                     choices=("ideal", "stop_and_go", "dvfs", "ttdfs", "fetch_gating", "sedation"))
    run.add_argument("--ideal-sink", action="store_true")
    run.add_argument("--output", help="save the result as JSON")
    run.add_argument("--perf", action="store_true",
                     help="print fast-path engine counters (cycles/s, skips)")
    run.add_argument("--events", metavar="LOG",
                     help="record telemetry events (.jsonl streams JSONL; "
                          ".npz packs a compressed columnar archive)")
    run.add_argument("--channel", action="append", metavar="TYPE[:STRIDE]",
                     help="record only this event channel, optionally "
                          "keeping every STRIDE-th event (repeatable; "
                          "metrics still see everything — docs/telemetry.md)")
    run.add_argument("--telemetry", action="store_true",
                     help="collect and print the telemetry metrics snapshot")
    _add_common(run)
    run.set_defaults(func=cmd_run)

    events = sub.add_parser(
        "events", help="filter/summarize an event log (JSONL or .npz)")
    events.add_argument("log", help="event log written by `run --events` "
                                    "(JSONL or columnar .npz)")
    events.add_argument("--type", action="append",
                        choices=[t.value for t in EventType],
                        help="keep only this event type (repeatable)")
    events.add_argument("--thread", type=int, help="keep one thread id")
    events.add_argument("--block", choices=BLOCK_NAMES,
                        help="keep one floorplan block")
    events.add_argument("--since", type=int, metavar="CYCLE",
                        help="keep events at or after this cycle")
    events.add_argument("--until", type=int, metavar="CYCLE",
                        help="keep events at or before this cycle")
    events.add_argument("--limit", type=int,
                        help="print at most N events")
    events.add_argument("--summary", action="store_true",
                        help="print counts, episodes, and the narrative")
    events.set_defaults(func=cmd_events)

    trace = sub.add_parser(
        "trace", help="temperature strip chart from a result or event log")
    trace.add_argument("result", nargs="?",
                       help="result JSON written by `run --output`")
    trace.add_argument("--events", metavar="LOG",
                       help="build the trace from an event log instead "
                            "(JSONL or columnar .npz)")
    trace.add_argument("--column", type=int, default=2, choices=(1, 2),
                       help="1 = hottest block, 2 = integer RF (default)")
    trace.add_argument("--width", type=int, default=72)
    trace.add_argument("--csv", action="store_true",
                       help="emit CSV instead of the strip chart")
    trace.set_defaults(func=cmd_trace)

    workloads = sub.add_parser("workloads", help="list registered workloads")
    workloads.set_defaults(func=cmd_workloads)

    attack = sub.add_parser("attack", help="solo vs attacked vs defended demo")
    attack.add_argument("--victim", default="gzip")
    attack.add_argument("--variant", default="variant2",
                        choices=MALICIOUS_VARIANTS)
    attack.add_argument("--jobs", type=int, default=None,
                        help="worker processes for independent runs")
    attack.add_argument("--batch", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="lock-step batch tier for uncached runs "
                             "(--no-batch forces the scalar path)")
    attack.add_argument("--cache-dir", default=None,
                        help="on-disk result cache (e.g. .repro_cache)")
    _add_common(attack)
    attack.set_defaults(func=cmd_attack)

    faults = sub.add_parser(
        "faults", help="healthy vs faulted comparison under a fault plan")
    faults.add_argument("workloads", nargs=2, metavar="WORKLOAD",
                        help="two workload names (see `repro workloads`)")
    faults.add_argument("--policy", default="sedation",
                        choices=("ideal", "stop_and_go", "dvfs", "ttdfs",
                                 "fetch_gating", "sedation"))
    faults.add_argument("--fault-seed", type=int, default=0,
                        help="seed for every fault injector's private RNG")
    faults.add_argument("--sensor", choices=SENSOR_FAULT_MODES,
                        help="thermal sensor fault mode")
    faults.add_argument("--sensor-rate", type=float, default=0.05,
                        help="per-reading fault probability (dropout/burst)")
    faults.add_argument("--stuck-k", type=float, default=None,
                        help="stuck-at value in Kelvin (default: freeze)")
    faults.add_argument("--bias-k", type=float, default=0.05,
                        help="bias drift in Kelvin per reading")
    faults.add_argument("--burst-sigma", type=float, default=8.0,
                        help="burst noise sigma in Kelvin")
    faults.add_argument("--miss-rate", type=float, default=0.0,
                        help="probability an EWMA sampler tick is missed")
    faults.add_argument("--late-rate", type=float, default=0.0,
                        help="probability an EWMA sampler tick fires late")
    faults.add_argument("--late-cycles", type=int, default=500,
                        help="delay of a late sampler tick")
    faults.add_argument("--drop-rate", type=float, default=0.0,
                        help="probability a sedate/release command is lost")
    faults.add_argument("--delay-cycles", type=int, default=0,
                        help="actuation delay for sedate/release commands")
    faults.add_argument("--intermittent", action="store_true",
                        help="duty-cycle the attacker (iThermTroj-style)")
    faults.add_argument("--on-ms", type=float, default=1.0,
                        help="attacker on-phase length in milliseconds")
    faults.add_argument("--off-ms", type=float, default=3.0,
                        help="attacker off-phase length in milliseconds")
    faults.add_argument("--events", metavar="LOG",
                        help="record the faulted run's events "
                             "(JSONL or columnar .npz)")
    _add_common(faults)
    faults.set_defaults(func=cmd_faults)

    campaign = sub.add_parser(
        "campaign-summary",
        help="list or render campaign rollups written beside the run cache")
    campaign.add_argument("key", nargs="?", default=None,
                          help="rollup key (unique prefix ok); omit to list")
    campaign.add_argument("--cache-dir", default=".repro_cache",
                          help="run cache holding the rollups/ directory")
    campaign.add_argument("--json", action="store_true",
                          help="print the raw rollup document")
    campaign.set_defaults(func=cmd_campaign_summary)

    durable = sub.add_parser(
        "campaign",
        help="list, inspect, or resume durable campaign journals")
    durable.add_argument("action", choices=("list", "show", "resume"),
                         help="list journals, show one, or resume one")
    durable.add_argument("id", nargs="?", default=None,
                         help="campaign id (unique prefix ok)")
    durable.add_argument("--cache-dir", default=".repro_cache",
                         help="run cache holding the journal/ directory")
    durable.add_argument("--jobs", type=int, default=None,
                         help="worker processes for the resumed tail")
    durable.add_argument("--force", action="store_true",
                         help="re-run failed specs")
    durable.add_argument("--retries", type=int, default=None,
                         help="override the journaled retry budget for "
                              "the resumed tail")
    durable.add_argument("--canonical", action="store_true",
                         help="print the canonical result JSON (the "
                              "byte-identity yardstick)")
    durable.set_defaults(func=cmd_campaign)

    cache = sub.add_parser(
        "cache", help="cache-directory statistics and quarantine listing")
    cache.add_argument("--cache-dir", default=".repro_cache",
                       help="cache directory to inspect")
    cache.add_argument("--json", action="store_true",
                       help="print raw statistics as JSON")
    cache.set_defaults(func=cmd_cache)

    temps = sub.add_parser("temps", help="print the temperature ladder")
    _add_common(temps)
    temps.set_defaults(func=cmd_temps)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # `repro events ... | head` closes our stdout mid-print; that is a
        # normal way to consume a log, not an error worth a traceback.
        sys.stderr.close()
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
