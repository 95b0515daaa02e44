"""Command-line interface: ``ebl-sim``.

Subcommands::

    ebl-sim run --trial 1 [--duration 60] [--trace out.tr]
    ebl-sim report [--duration 40] [--output EXPERIMENTS.md]
    ebl-sim sweep {packet-size,platoon-size,tdma-slots}
    ebl-sim campaign --trial 1 --seeds 5 --fault-plan light [--resume]
                     [--sanitize] [--trace-dir DIR]
    ebl-sim inspect --trial 1 [--export PREFIX]
    ebl-sim trace --trial 1 [--uid N|initial-warning] [--perfetto OUT.json]
                  [--jsonl OUT.jsonl]
    ebl-sim sanitize [--trial all | --config FILE] [--fault-plan light]
    ebl-sim fuzz --seed 1 --count 25 [--output fuzz-report.json]
    ebl-sim lint [paths ...]
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, Union

from repro.core.analysis import analyze_trial
from repro.core.runner import run_trial
from repro.core.trials import TRIAL_1, TRIAL_2, TRIAL_3
from repro.experiments.figures import (
    fig_5_6_trial1_delay,
    fig_7_trial1_throughput,
    fig_8_9_trial2_delay,
    fig_10_trial2_throughput,
    fig_11_14_trial3_delay,
    fig_15_trial3_throughput,
)
from repro.experiments.plots import render_delay_figure, render_throughput_figure
from repro.experiments.replication import replicate
from repro.experiments.report import generate_report, render_markdown
from repro.experiments.sweeps import (
    packet_size_sweep,
    platoon_size_sweep,
    tdma_slot_ablation,
)

TRIALS = {1: TRIAL_1, 2: TRIAL_2, 3: TRIAL_3}


def _cmd_run(args: argparse.Namespace) -> int:
    config = TRIALS[args.trial].with_overrides(duration=args.duration)
    result = run_trial(config)
    analysis = analyze_trial(result)
    print(f"== {config.name}: {config.packet_size}B over {config.mac_type} ==")
    for index, summary in sorted(analysis.delay_by_follower.items()):
        name = {1: "middle", 2: "trailing"}.get(index, f"follower {index}")
        print(f"  {name:9s} delay: {summary}")
    print(f"  steady-state delay : {analysis.steady_state_delay:.4f} s")
    print(f"  transient          : {analysis.transient_packets} packets")
    print(f"  throughput         : {analysis.throughput}")
    print(f"  confidence         : {analysis.confidence}")
    print(f"  initial pkt delay  : {analysis.initial_packet_delay:.4f} s")
    safety = analysis.safety
    print(
        f"  safety             : {safety.distance_during_delay:.2f} m travelled "
        f"({100 * safety.gap_fraction_consumed:.1f}% of the "
        f"{safety.separation:.0f} m gap)"
    )
    if args.trace and result.tracer is not None:
        with open(args.trace, "w") as stream:
            count = result.tracer.write(stream)
        print(f"  trace              : {count} lines -> {args.trace}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = generate_report(duration=args.duration)
    text = render_markdown(report)
    if args.output:
        with open(args.output, "w") as stream:
            stream.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0 if report.all_claims_hold else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    sweeps = {
        "packet-size": packet_size_sweep,
        "platoon-size": platoon_size_sweep,
        "tdma-slots": tdma_slot_ablation,
    }
    points = sweeps[args.kind]()
    print(f"{'param':>8} {'Mbps':>8} {'steady s':>9} {'initial s':>9} {'gap %':>7}")
    for p in points:
        print(
            f"{p.parameter:8.0f} {p.throughput_mbps:8.4f} "
            f"{p.steady_state_delay:9.4f} {p.initial_packet_delay:9.4f} "
            f"{100 * p.gap_fraction:7.1f}"
        )
    return 0


def _cmd_nam(args: argparse.Namespace) -> int:
    from repro.core.scenario import EblScenario
    from repro.trace.nam import NamTraceWriter

    config = TRIALS[args.trial].with_overrides(
        duration=args.duration, enable_trace=False
    )
    scenario = EblScenario(config)
    scenario.run()
    with open(args.output, "w") as stream:
        nam = NamTraceWriter(stream, width=600.0, height=600.0)
        nodes = [v.node for v in scenario.vehicles]
        nam.write_header([n.address for n in nodes])
        nam.animate(nodes, duration=config.duration, interval=args.interval)
    print(f"NAM animation trace written to {args.output} "
          f"(the paper launched nam on this format after every run)")
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    config = TRIALS[args.trial].with_overrides(duration=args.duration)
    seeds = list(range(1, args.replications + 1))
    print(f"Replicating {config.name} across seeds {seeds} ...")
    result = replicate(config, seeds=seeds)
    print(f"  throughput    : {result.throughput_ci}")
    print(f"  steady delay  : {result.delay_ci}")
    print(f"  initial delay : {result.initial_delay_ci}")
    print(
        "  (mean within-run precision "
        f"{100 * result.mean_within_run_precision():.1f}% — the paper's "
        "single-run CI method)"
    )
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    import os

    config = TRIALS[args.trial].with_overrides(duration=args.duration)
    result = run_trial(config)

    outputs: list[tuple[str, str]] = []
    if args.trial == 1:
        fig = fig_5_6_trial1_delay(result)
        outputs.append(("fig05_trial1_delay.txt", render_delay_figure(fig)))
        outputs.append(
            ("fig06_trial1_delay_transient.txt",
             render_delay_figure(fig, transient=True))
        )
        outputs.append(
            ("fig07_trial1_throughput.txt",
             render_throughput_figure(fig_7_trial1_throughput(result)))
        )
    elif args.trial == 2:
        fig = fig_8_9_trial2_delay(result)
        outputs.append(("fig08_trial2_delay.txt", render_delay_figure(fig)))
        outputs.append(
            ("fig09_trial2_delay_transient.txt",
             render_delay_figure(fig, transient=True))
        )
        outputs.append(
            ("fig10_trial2_throughput.txt",
             render_throughput_figure(fig_10_trial2_throughput(result)))
        )
    else:
        fig_p1, fig_p2 = fig_11_14_trial3_delay(result)
        outputs.append(("fig11_trial3_delay_p1.txt", render_delay_figure(fig_p1)))
        outputs.append(
            ("fig12_trial3_delay_p1_transient.txt",
             render_delay_figure(fig_p1, transient=True))
        )
        outputs.append(("fig13_trial3_delay_p2.txt", render_delay_figure(fig_p2)))
        outputs.append(
            ("fig14_trial3_delay_p2_transient.txt",
             render_delay_figure(fig_p2, transient=True))
        )
        outputs.append(
            ("fig15_trial3_throughput.txt",
             render_throughput_figure(fig_15_trial3_throughput(result)))
        )

    os.makedirs(args.output_dir, exist_ok=True)
    for filename, text in outputs:
        path = os.path.join(args.output_dir, filename)
        with open(path, "w") as stream:
            stream.write(text + "\n")
        print(f"wrote {path}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import campaign_trials, run_campaign
    from repro.faults.schedule import FAULT_PLAN_PRESETS

    base = TRIALS[args.trial].with_overrides(duration=args.duration)
    trials = campaign_trials(
        base,
        seeds=range(1, args.seeds + 1),
        fault_plan=FAULT_PLAN_PRESETS[args.fault_plan],
        inject_crash=args.inject_crash,
        inject_hang=args.inject_hang,
        heartbeat_dir=args.heartbeat_dir,
        heartbeat_interval=args.heartbeat_interval,
        sanitize=args.sanitize,
        trace_dir=args.trace_dir,
    )
    if args.heartbeat_dir or args.trace_dir:
        import os

        for directory in (args.heartbeat_dir, args.trace_dir):
            if directory:
                os.makedirs(directory, exist_ok=True)

    def progress(outcome) -> None:
        note = " (resumed)" if outcome.resumed else f" in {outcome.elapsed:.1f}s"
        print(f"  {outcome.key:24s} {outcome.status}{note}")
        if outcome.trace:
            print(f"  {'':24s} perfetto trace: {outcome.trace}")
        if outcome.status == "ok" and outcome.metrics:
            delay = outcome.metrics.get("initial_packet_delay", float("nan"))
            wdp = outcome.metrics.get("warning_delivery_probability")
            faults = outcome.metrics.get("faults_injected", 0.0)
            print(
                f"  {'':24s} initial delay {delay:.4f}s, "
                f"delivery p={wdp:.2f}, {faults:.0f} faults"
            )

    print(
        f"Campaign: {len(trials)} trials of {base.name} "
        f"(fault plan: {args.fault_plan}, watchdog {args.timeout:g}s, "
        f"jobs {args.jobs})"
    )
    result = run_campaign(
        trials,
        timeout=args.timeout,
        checkpoint=args.checkpoint,
        resume=args.resume,
        progress=progress,
        jobs=args.jobs,
    )
    failed = result.failed
    print(
        f"{len(result.succeeded)}/{len(result.outcomes)} trials ok, "
        f"{len(failed)} failed"
        + (f"; records in {args.checkpoint}" if args.checkpoint else "")
    )
    # A completed campaign exits 0 even with failed trials: the failures
    # are structured data, not a harness malfunction.
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.obs.config import ObservabilityConfig
    from repro.obs.export import (
        render_dwell_table,
        render_journey,
        render_journeys_summary,
        render_metrics_table,
        write_heartbeats_jsonl,
        write_journeys_csv,
        write_journeys_jsonl,
        write_metrics_csv,
        write_metrics_jsonl,
    )

    config = TRIALS[args.trial].with_overrides(
        duration=args.duration,
        observability=ObservabilityConfig(
            heartbeat_interval=args.heartbeat_interval
        ),
    )
    result = run_trial(config)
    obs = result.observability
    if obs is None or obs.registry is None:  # pragma: no cover - config enables it
        raise RuntimeError("inspect run produced no metric registry")
    print(
        f"== inspect {config.name}: {config.packet_size}B over "
        f"{config.mac_type}, {config.duration:g}s simulated =="
    )
    print()
    print(render_metrics_table(obs.registry))
    journeys = obs.journeys
    if journeys is not None:
        dwell = journeys.dwell_summary()
        if dwell:
            print()
            print("per-layer dwell over delivered data journeys:")
            print(render_dwell_table(dwell))
        # The initial warning packet of each lead->follower flow: the
        # first delivered data journey (trackers record in first-seen
        # order, so the first match is the earliest).
        for platoon in (result.platoon1, result.platoon2):
            for flow in platoon.flows:
                first = next(
                    (
                        j
                        for j in journeys.find(
                            src=flow.src, dst=flow.dst, delivered=True
                        )
                        if j.ptype in ("tcp", "udp", "cbr", "ebl")
                    ),
                    None,
                )
                if first is not None:
                    print()
                    print(
                        f"initial warning packet, platoon "
                        f"{platoon.platoon_id} flow "
                        f"{flow.src}->{flow.dst}:"
                    )
                    print(render_journey(first))
        summary = render_journeys_summary(journeys, slowest=args.slowest)
        if summary is not None:
            print()
            print(summary)
    if obs.introspector is not None and obs.introspector.records:
        last = obs.introspector.records[-1]
        print()
        print(
            f"{len(obs.introspector.records)} heartbeats; last: "
            f"sim_time={last['sim_time']:g}s events={last['events']} "
            f"events/wall-s={last['events_per_wall_s']:,.0f}"
        )
    if args.export:
        prefix = args.export
        counts = {
            f"{prefix}.metrics.jsonl": write_metrics_jsonl(
                obs.registry, f"{prefix}.metrics.jsonl"
            ),
            f"{prefix}.metrics.csv": write_metrics_csv(
                obs.registry, f"{prefix}.metrics.csv"
            ),
        }
        if journeys is not None:
            counts[f"{prefix}.journeys.jsonl"] = write_journeys_jsonl(
                journeys, f"{prefix}.journeys.jsonl"
            )
            counts[f"{prefix}.journeys.csv"] = write_journeys_csv(
                journeys, f"{prefix}.journeys.csv"
            )
        if obs.introspector is not None:
            counts[f"{prefix}.heartbeat.jsonl"] = write_heartbeats_jsonl(
                obs.introspector.records, f"{prefix}.heartbeat.jsonl"
            )
        print()
        for path, count in counts.items():
            print(f"wrote {count} records -> {path}")
    return 0


def _uid_arg(text: str) -> Union[int, str]:
    """``trace --uid``: a packet uid, or ``initial-warning``/``auto``."""
    if text in ("initial-warning", "auto"):
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a packet uid or 'initial-warning', got {text!r}"
        ) from None


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.config import ObservabilityConfig
    from repro.obs.tracing import (
        causal_chain,
        delivery_span,
        filter_spans,
        initial_warning_uid,
        render_chain,
        render_journey_spans,
        render_spans_table,
        send_time,
        write_chrome_trace,
        write_spans_jsonl,
    )

    config = TRIALS[args.trial].with_overrides(
        duration=args.duration,
        observability=ObservabilityConfig(
            metrics=False,
            journeys=False,
            tracing=True,
            max_spans=args.max_spans,
        ),
    )
    result = run_trial(config)
    obs = result.observability
    if obs is None or obs.spans is None:  # pragma: no cover - config enables it
        raise RuntimeError("trace run produced no span tracer")
    tracer = obs.spans
    spans = tracer.finalize()
    print(
        f"== trace {config.name}: {len(spans)} spans over "
        f"{config.duration:g}s simulated "
        f"({tracer.dropped} past the span cap) =="
    )

    uid: Optional[int] = None
    if args.uid is not None:
        if args.uid in ("initial-warning", "auto"):
            # The initial EBL warning: the fastest-delivered first data
            # packet of platoon 1's lead->follower flows (the packet the
            # paper's S6 initial-delay claim is about).
            best = None
            for flow in result.platoon1.flows:
                candidate = initial_warning_uid(
                    spans, src=flow.src, dst=flow.dst
                )
                if candidate is None:
                    continue
                span = delivery_span(spans, candidate, dst=flow.dst)
                sent = send_time(spans, candidate)
                if span is None or sent is None:
                    continue
                delay = span.fired_at - sent
                if best is None or delay < best[0]:
                    best = (delay, candidate, flow)
            if best is None:
                print("no delivered initial warning found in the trace")
                return 1
            uid = best[1]
            flow = best[2]
            print(
                f"initial warning: uid={uid} "
                f"(flow {flow.src}->{flow.dst})"
            )
        else:
            uid = args.uid

    if uid is not None:
        print()
        print(f"packet uid={uid} journey spans:")
        print(render_journey_spans(spans, uid))
        delivered = delivery_span(spans, uid)
        if delivered is None:
            print(f"uid={uid} was never delivered (no 'r AGT' mark)")
        else:
            chain = causal_chain(spans, delivered.sid)
            print()
            print(f"causal chain of the uid={uid} delivery:")
            print(render_chain(chain, uid, limit=args.limit))
            sent = send_time(spans, uid)
            if sent is not None:
                print(
                    f"end-to-end: sent t={sent:.6f} -> delivered "
                    f"t={delivered.fired_at:.6f} "
                    f"({delivered.fired_at - sent:.6f}s)"
                )
    elif any(
        value is not None
        for value in (args.layer, args.node, args.since, args.until, args.name)
    ):
        matched = filter_spans(
            spans,
            layer=args.layer,
            node=args.node,
            since=args.since,
            until=args.until,
            name=args.name,
        )
        print()
        print(f"{len(matched)} spans match:")
        print(render_spans_table(matched, limit=args.limit))

    if args.perfetto:
        count = write_chrome_trace(args.perfetto, spans, label=config.name)
        print(
            f"wrote {count} trace events -> {args.perfetto} "
            "(open in ui.perfetto.dev)"
        )
    if args.jsonl:
        write_spans_jsonl(args.jsonl, spans)
        print(f"wrote {len(spans)} spans -> {args.jsonl}")

    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.__main__ import run_from_args

    return run_from_args(args)


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.faults.schedule import FAULT_PLAN_PRESETS
    from repro.sanitizer.config import SanitizerConfig
    from repro.sanitizer.fuzz import load_config

    if args.config:
        configs = [
            load_config(args.config).with_overrides(
                sanitize=SanitizerConfig()
            )
        ]
    else:
        numbers = (
            sorted(TRIALS) if args.trial == "all" else [int(args.trial)]
        )
        configs = [
            TRIALS[number].with_overrides(
                duration=args.duration,
                fault_plan=FAULT_PLAN_PRESETS[args.fault_plan],
                sanitize=SanitizerConfig(),
            )
            for number in numbers
        ]
    dirty = 0
    for config in configs:
        result = run_trial(config)
        report = result.sanitizer_report
        if report is None:  # pragma: no cover - config enables the sanitizer
            raise RuntimeError(f"{config.name}: sanitizer produced no report")
        print(report.render())
        if not report.ok:
            dirty += 1
    return 1 if dirty else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.sanitizer.fuzz import run_fuzz

    def progress(index: int, outcome) -> None:
        marker = "ok" if outcome.status == "ok" else outcome.status.upper()
        print(f"  config #{index:4d} {outcome.key:18s} {marker}")

    report = run_fuzz(
        seed=args.seed,
        count=args.count,
        timeout=args.timeout,
        shrink_failures=not args.no_shrink,
        max_shrink_probes=args.max_shrink_probes,
        save_dir=args.save_failing,
        progress=progress if not args.quiet else None,
        jobs=args.jobs,
    )
    print(report.render())
    if args.output:
        report.write(args.output)
        print(f"fuzz report written to {args.output}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The ``ebl-sim`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="ebl-sim",
        description="Extended Brake Lights IVC MANET simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one trial and print its analysis")
    run_p.add_argument("--trial", type=int, choices=(1, 2, 3), default=1)
    run_p.add_argument("--duration", type=float, default=60.0)
    run_p.add_argument("--trace", help="write the packet trace to this file")
    run_p.set_defaults(func=_cmd_run)

    rep_p = sub.add_parser("report", help="run all trials, check every claim")
    rep_p.add_argument("--duration", type=float, default=40.0)
    rep_p.add_argument("--output", help="write markdown to this file")
    rep_p.set_defaults(func=_cmd_report)

    sweep_p = sub.add_parser("sweep", help="run a parameter sweep")
    sweep_p.add_argument(
        "kind", choices=("packet-size", "platoon-size", "tdma-slots")
    )
    sweep_p.set_defaults(func=_cmd_sweep)

    rep2_p = sub.add_parser(
        "replicate", help="independent multi-seed replications of a trial"
    )
    rep2_p.add_argument("--trial", type=int, choices=(1, 2, 3), default=3)
    rep2_p.add_argument("--duration", type=float, default=30.0)
    rep2_p.add_argument("--replications", type=int, default=5)
    rep2_p.set_defaults(func=_cmd_replicate)

    fig_p = sub.add_parser(
        "figures", help="render a trial's figures as text charts"
    )
    fig_p.add_argument("--trial", type=int, choices=(1, 2, 3), default=1)
    fig_p.add_argument("--duration", type=float, default=40.0)
    fig_p.add_argument("--output-dir", default="figures")
    fig_p.set_defaults(func=_cmd_figures)

    nam_p = sub.add_parser(
        "nam", help="write a NAM animation trace for a trial"
    )
    nam_p.add_argument("--trial", type=int, choices=(1, 2, 3), default=1)
    nam_p.add_argument("--duration", type=float, default=30.0)
    nam_p.add_argument("--interval", type=float, default=0.5)
    nam_p.add_argument("--output", default="out.nam")
    nam_p.set_defaults(func=_cmd_nam)

    camp_p = sub.add_parser(
        "campaign",
        help="crash-tolerant multi-seed campaign with optional fault "
        "injection, subprocess isolation, and checkpoint/resume",
    )
    camp_p.add_argument("--trial", type=int, choices=(1, 2, 3), default=1)
    camp_p.add_argument("--duration", type=float, default=30.0)
    camp_p.add_argument("--seeds", type=int, default=5,
                        help="run seeds 1..N (default 5)")
    camp_p.add_argument("--timeout", type=float, default=120.0,
                        help="per-trial watchdog, wall-clock seconds")
    camp_p.add_argument("--jobs", type=int, default=1,
                        help="trial subprocesses in flight at once "
                        "(default 1); per-trial records are bit-identical "
                        "at any value and results stay in trial order")
    camp_p.add_argument("--fault-plan", choices=("none", "light", "heavy"),
                        default="none")
    camp_p.add_argument("--checkpoint",
                        help="JSONL file recording per-trial outcomes")
    camp_p.add_argument("--resume", action="store_true",
                        help="skip trials already in the checkpoint")
    camp_p.add_argument("--inject-crash", action="store_true",
                        help="add a synthetic crashing trial (failure-path "
                        "exercise)")
    camp_p.add_argument("--inject-hang", action="store_true",
                        help="add a synthetic hung trial that must hit the "
                        "watchdog")
    camp_p.add_argument("--heartbeat-dir", default=None,
                        help="run each trial with a heartbeat introspector "
                        "appending to DIR/<key>.heartbeat.jsonl (the "
                        "watchdog then reports a killed trial's progress)")
    camp_p.add_argument("--heartbeat-interval", type=float, default=1.0,
                        help="sim-time seconds between heartbeats "
                        "(default 1.0)")
    camp_p.add_argument("--sanitize", action="store_true",
                        help="run every trial under the runtime invariant "
                        "sanitizer; violations become structured 'violation' "
                        "outcomes in the checkpoint")
    camp_p.add_argument("--trace-dir", default=None,
                        help="record a causal span trace in every trial and "
                        "write DIR/<key>.perfetto.json for failed/violation "
                        "trials only")
    camp_p.set_defaults(func=_cmd_campaign)

    ins_p = sub.add_parser(
        "inspect",
        help="run a trial with full telemetry and render its metrics, "
        "per-layer dwell times, and packet journeys",
    )
    ins_p.add_argument("--trial", type=int, choices=(1, 2, 3), default=1)
    ins_p.add_argument("--duration", type=float, default=30.0)
    ins_p.add_argument(
        "--heartbeat-interval", type=float, default=1.0,
        help="sim-time seconds between introspector heartbeats (default 1.0)",
    )
    ins_p.add_argument(
        "--slowest", type=int, default=5,
        help="how many slowest journeys to list (default 5)",
    )
    ins_p.add_argument(
        "--export", metavar="PREFIX",
        help="also write PREFIX.metrics.{jsonl,csv}, "
        "PREFIX.journeys.{jsonl,csv}, and PREFIX.heartbeat.jsonl",
    )
    ins_p.set_defaults(func=_cmd_inspect)

    trace_p = sub.add_parser(
        "trace",
        help="record a causal span trace of one trial; print causal "
        "chains, filter spans, export Perfetto/JSONL",
    )
    trace_p.add_argument("--trial", type=int, choices=(1, 2, 3), default=1)
    trace_p.add_argument("--duration", type=float, default=12.0)
    trace_p.add_argument(
        "--uid", type=_uid_arg, default=None,
        help="packet uid to explain: print its journey spans and the "
        "causal chain of its delivery; the literal 'initial-warning' "
        "resolves the trial's first delivered brake warning",
    )
    trace_p.add_argument(
        "--layer", default=None,
        help="filter spans by protocol layer (des, mac, net, phy, ...)",
    )
    trace_p.add_argument(
        "--node", type=int, default=None, help="filter spans by node address"
    )
    trace_p.add_argument(
        "--since", type=float, default=None,
        help="filter spans fired at/after this sim time",
    )
    trace_p.add_argument(
        "--until", type=float, default=None,
        help="filter spans fired at/before this sim time",
    )
    trace_p.add_argument(
        "--name", default=None,
        help="filter spans by case-insensitive name substring",
    )
    trace_p.add_argument(
        "--limit", type=int, default=40,
        help="max rendered chain steps / table rows (default 40)",
    )
    trace_p.add_argument(
        "--max-spans", type=int, default=500_000,
        help="span recording cap (default 500000)",
    )
    trace_p.add_argument(
        "--perfetto", metavar="OUT.json", default=None,
        help="export Chrome/Perfetto trace-event JSON (ui.perfetto.dev)",
    )
    trace_p.add_argument(
        "--jsonl", metavar="OUT.jsonl", default=None,
        help="export the resolved spans as compact JSONL",
    )
    trace_p.set_defaults(func=_cmd_trace)

    san_p = sub.add_parser(
        "sanitize",
        help="run trials under the runtime invariant sanitizer (simsan) "
        "and report violations; exit 1 when any are found",
    )
    san_p.add_argument(
        "--trial", choices=("1", "2", "3", "all"), default="all",
        help="paper trial(s) to check (default: all)",
    )
    san_p.add_argument(
        "--config", metavar="FILE",
        help="instead of a paper trial, run a saved trial-config JSON "
        "(as written by 'ebl-sim fuzz --save-failing')",
    )
    san_p.add_argument("--duration", type=float, default=30.0)
    san_p.add_argument(
        "--fault-plan", choices=("none", "light", "heavy"), default="none",
        help="fault-injection preset for paper trials (ignored with "
        "--config; default: none)",
    )
    san_p.set_defaults(func=_cmd_sanitize)

    fuzz_p = sub.add_parser(
        "fuzz",
        help="generate seed-derived random scenario configs, run each "
        "under the sanitizer, and shrink any failure to a minimal repro",
    )
    fuzz_p.add_argument(
        "--seed", type=int, default=1,
        help="root seed; the same seed reproduces the same config "
        "sequence (default 1)",
    )
    fuzz_p.add_argument(
        "--count", type=int, default=25,
        help="number of configs to generate and run (default 25)",
    )
    fuzz_p.add_argument(
        "--timeout", type=float, default=60.0,
        help="per-config watchdog, wall-clock seconds (default 60)",
    )
    fuzz_p.add_argument(
        "--jobs", type=int, default=1,
        help="isolation probes in flight at once during the initial "
        "sweep (default 1); shrinking is inherently sequential",
    )
    fuzz_p.add_argument(
        "--output", metavar="FILE",
        help="write the JSON fuzz report here",
    )
    fuzz_p.add_argument(
        "--save-failing", metavar="DIR",
        help="save failing configs (original + shrunk) as ready-to-run "
        "JSON under DIR",
    )
    fuzz_p.add_argument(
        "--no-shrink", action="store_true",
        help="report failures without shrinking them",
    )
    fuzz_p.add_argument(
        "--max-shrink-probes", type=int, default=150,
        help="probe budget per shrink (default 150)",
    )
    fuzz_p.add_argument(
        "--quiet", action="store_true",
        help="suppress per-config progress lines",
    )
    fuzz_p.set_defaults(func=_cmd_fuzz)

    lint_p = sub.add_parser(
        "lint",
        help="run simlint, the determinism/scheduling static analysis "
        "(rules SIM001-SIM013; baseline, JSON and SARIF output)",
    )
    from repro.lint.__main__ import add_lint_arguments

    add_lint_arguments(lint_p)
    lint_p.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
