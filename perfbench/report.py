"""Report files, the one-line result, and the checked-in metric list.

Standard library only, so :mod:`perfbench.compare` runs without the
simulator.  A report is ``{"schema", "host", "seed", "seconds",
"traced", "workloads": {name: workload report}}``; a workload report
holds every metric the run measured with its unit and sample count,
the attempted and failed trial counts, and the digest of every trial.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
PINS_JSON = Path(__file__).resolve().parent / "pins.json"
SCHEMA = "perfbench/v1"


def load_json(path: Path) -> Any:
    with open(path) as stream:
        return json.load(stream)


def write_json(path: Path, data: Any) -> None:
    with open(path, "w") as stream:
        json.dump(data, stream, indent=1, sort_keys=True)
        stream.write("\n")


def host_info() -> dict[str, Any]:
    nproc = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "nproc": nproc,
    }


def full_report(
    workloads: dict[str, dict[str, Any]], seed: int, seconds: float, traced: bool
) -> dict[str, Any]:
    return {
        "schema": SCHEMA,
        "host": host_info(),
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "workloads": workloads,
    }


def result_line(
    report: dict[str, Any], benchmark: dict[str, Any]
) -> dict[str, Any]:
    """The final output line: BENCHMARK.json's metrics for this pass.

    Raises if the run did not measure one of them, or measured it in
    another unit: the metric list and the code must agree.
    """
    section = "per_layer" if report["traced"] else "end_to_end"
    metrics = {}
    for spec in benchmark[section]:
        measured = report["metrics"][spec["name"]]
        if measured["unit"] != spec["unit"]:
            raise ValueError(
                f"{spec['name']}: measured in {measured['unit']}, "
                f"BENCHMARK.json says {spec['unit']}"
            )
        metrics[spec["name"]] = {"value": measured["value"], "unit": spec["unit"]}
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def format_workload(report: dict[str, Any]) -> list[str]:
    """Human-readable lines: every metric by name, with unit and n."""
    lines = [
        f"== {report['workload']} ({'traced' if report['traced'] else 'untraced'}"
        f", seed {report['seed']}): {report['attempted']} trials, "
        f"{report['failed']} failed"
    ]
    for name, entry in sorted(report["metrics"].items()):
        lines.append(
            f"  {name:<34} {entry['value']:>14.6g} {entry['unit']:<13} "
            f"n={entry['n']}"
        )
    lines.extend(f"  FAILED {error}" for error in report["errors"])
    return lines
