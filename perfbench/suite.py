"""The command line behind ``perfbench/run.py``, and the pinned digests."""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Optional

from repro.experiments.campaign import run_campaign

from perfbench import layers, measure
from perfbench.report import (
    BENCHMARK_JSON,
    PINS_JSON,
    format_workload,
    full_report,
    load_json,
    result_line,
    write_json,
)
from perfbench.workloads import BY_NAME, POOL_SEEDS, WORKLOADS


def load_pins() -> dict[str, dict[str, str]]:
    return load_json(PINS_JSON) if PINS_JSON.exists() else {}


def run_workload(
    name: str, seed: int, seconds: float, traced: bool
) -> dict[str, Any]:
    """Measure one workload in this process; returns its report."""
    workload = BY_NAME[name]
    seeds = workload.seeds_for(seed, seconds)
    tally = measure.Tally(load_pins().get(name, {}))
    run = layers.trace if traced else measure.measure
    metrics = run(workload, seeds, tally)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "digests": tally.digests,
        "errors": tally.errors,
    }


def workload_pins(name: str) -> dict[str, str]:
    """Digests of every trial of the workload's seed pool, computed now."""
    workload = BY_NAME[name]
    trials = workload.trials(list(range(1, POOL_SEEDS + 1)))
    pins = {}
    for trial in trials:
        pins[trial.key] = measure.trial_digest(
            measure.run_inprocess(trial.config).result
        )
        gc.collect()  # traced trials leave garbage; keep the process small
    if workload.jobs:
        for outcome in run_campaign(trials, jobs=workload.jobs).outcomes:
            if outcome.status != "ok":
                raise RuntimeError(f"{outcome.key}: {outcome.status}")
            pins[measure.outcome_key(outcome.key)] = measure.outcome_digest(outcome)
    return pins


def refresh_pins(name: Optional[str] = None) -> None:
    """Recompute and write the pins of one workload, or of all of them."""
    pins = load_pins()
    for workload in WORKLOADS:
        if name in (None, workload.name):
            pins[workload.name] = workload_pins(workload.name)
    write_json(PINS_JSON, pins)


def _parse(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description="EBL simulator benchmark"
    )
    parser.add_argument(
        "--workload", choices=sorted(BY_NAME), help="run one workload in this process"
    )
    parser.add_argument("--seed", type=int, default=1, help="first trial seed")
    parser.add_argument(
        "--seconds",
        type=float,
        default=20.0,
        help="run length the trial count is scaled to (default 20)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1: the per-layer pass",
    )
    parser.add_argument("--output", help="write the full JSON report here")
    parser.add_argument(
        "--refresh-pins",
        action="store_true",
        help="recompute pins.json (never part of a performance change)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_all(args: argparse.Namespace) -> dict[str, dict[str, Any]]:
    """Each workload in a fresh spawned interpreter, one after another."""
    reports = {}
    context = multiprocessing.get_context("spawn")
    for workload in WORKLOADS:
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            report = pool.submit(
                run_workload, workload.name, args.seed, args.seconds,
                bool(args.trace),
            ).result()
        print("\n".join(format_workload(report)), flush=True)
        reports[workload.name] = report
    return reports


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse(argv)
    if args.refresh_pins:
        refresh_pins(args.workload)
        return 0
    traced = bool(args.trace)
    benchmark = load_json(BENCHMARK_JSON)
    if args.workload is not None:
        report = run_workload(args.workload, args.seed, args.seconds, traced)
        print("\n".join(format_workload(report)))
        reports = {args.workload: report}
        line = result_line(report, benchmark)
    else:
        reports = _run_all(args)
        lines = {name: result_line(report, benchmark) for name, report in reports.items()}
        line = {
            "correct": all(item["correct"] for item in lines.values()),
            "attempted": sum(item["attempted"] for item in lines.values()),
            "failed": sum(item["failed"] for item in lines.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, item in lines.items()
                for metric, value in item["metrics"].items()
            },
        }
    if args.output:
        write_json(
            Path(args.output), full_report(reports, args.seed, args.seconds, traced)
        )
    print(json.dumps(line), flush=True)
    return 0
