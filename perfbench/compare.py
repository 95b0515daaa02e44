"""Compare two benchmark reports written by ``perfbench/run.py --output``.

    python3 perfbench/compare.py A.json B.json

Prints, for each workload and metric, the two values, the change from A
to B and the bound BENCHMARK.json fixes for it.  Exits 1 if an
end-to-end metric got worse by more than its bound, if ``failed_frac``
rose, or if a trial digest present in both reports differs; otherwise 0.
Per-layer metrics (two ``--traced`` reports) have no bound and are only
printed.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Optional

if __package__ in (None, ""):  # run as a script
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.report import BENCHMARK_JSON, load_json  # noqa: E402


def _failed_frac(report: dict[str, Any]) -> float:
    return report["failed"] / report["attempted"] if report["attempted"] else 1.0


def compare(
    a: dict[str, Any], b: dict[str, Any], benchmark: dict[str, Any]
) -> tuple[list[str], list[str]]:
    """Table lines, and one message per regression found."""
    if a["traced"] != b["traced"]:
        raise ValueError("cannot compare a traced report with an untraced one")
    specs = benchmark["per_layer" if a["traced"] else "end_to_end"]
    lines: list[str] = []
    problems: list[str] = []
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        if name not in a["workloads"] or name not in b["workloads"]:
            lines.append(f"{name}: only in {'A' if name in a['workloads'] else 'B'}")
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for spec in specs:
            metric = spec["name"]
            va = wa["metrics"][metric]["value"]
            vb = wb["metrics"][metric]["value"]
            change = (vb - va) / va if va else 0.0
            bound: Optional[float] = spec.get("bound")
            worse = change if spec["better"] == "lower" else -change
            verdict = ""
            if bound is not None:
                verdict = "WORSE" if worse > bound else "ok"
                if worse > bound:
                    problems.append(
                        f"{name} {metric}: {change:+.1%} is worse than "
                        f"the {bound:.0%} bound"
                    )
            lines.append(
                f"{name:<22} {metric:<31} {va:>12.6g} {vb:>12.6g} "
                f"{change:>+8.1%} "
                f"{'' if bound is None else f'{bound:.0%}':>5} {verdict}"
            )
        fa, fb = _failed_frac(wa), _failed_frac(wb)
        lines.append(
            f"{name:<22} {'failed_frac':<31} {fa:>12.6g} {fb:>12.6g} "
            f"{fb - fa:>+8.3f} {'0':>5} {'WORSE' if fb > fa else 'ok'}"
        )
        if fb > fa:
            problems.append(f"{name} failed_frac rose from {fa:g} to {fb:g}")
        for key in sorted(set(wa["digests"]) & set(wb["digests"])):
            if wa["digests"][key] != wb["digests"][key]:
                problems.append(f"{name}: digest of {key} differs")
    return lines, problems


def main(argv: Optional[list[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (load_json(Path(path)) for path in args)
    lines, problems = compare(a, b, load_json(BENCHMARK_JSON))
    print(
        f"{'workload':<22} {'metric':<31} {'A':>12} {'B':>12} "
        f"{'change':>8} {'bound':>5}"
    )
    print("\n".join(lines))
    for problem in problems:
        print(f"REGRESSION {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
