"""Fail a perfbench smoke run unless its result line says it was correct.

Usage::

    python3 perfbench/run.py --seconds 2 | python3 tools/check_perfbench.py
    python3 perfbench/run.py --traced --seconds 2 | python3 tools/check_perfbench.py

``perfbench/run.py`` exits 0 even when trials fail, so this filter
echoes its input and then checks the last line, the JSON result:

* ``correct`` is true and ``failed`` is 0;
* on a traced run (one that reports ``trace.coverage``), every
  workload's coverage is within 1% of 1.0, and the instrumentation sinks
  recorded on ``tdma-observed`` (``obs.records`` and
  ``sanitizer.records`` above 0).  perfbench wraps simulator methods by
  name, so these catch a rename in ``src/`` that silently unhooks it.

Host-time numbers are not checked.  Exits 1 with one line per problem.
"""

from __future__ import annotations

import json
import sys

#: Counts the traced pass must see on the one instrumented workload.
SINK_RECORDS = ("tdma-observed/obs.records", "tdma-observed/sanitizer.records")


def problems(result: dict) -> list[str]:
    """Everything wrong with one parsed result line."""
    found = []
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}, not true")
    if result.get("failed") != 0:
        found.append(
            f"{result.get('failed')} of {result.get('attempted')} trials failed"
        )
    metrics = result.get("metrics", {})
    coverage = {
        name: entry["value"]
        for name, entry in metrics.items()
        if name.endswith("/trace.coverage")
    }
    for name, value in sorted(coverage.items()):
        if not abs(value - 1.0) <= 0.01:
            found.append(f"{name} is {value!r}, not within 1% of 1.0")
    if coverage:
        for name in SINK_RECORDS:
            value = metrics.get(name, {}).get("value")
            if value is None or not value > 0:
                found.append(f"{name} is {value!r}, expected above 0")
    return found


def main() -> int:
    last = ""
    for line in sys.stdin:
        sys.stdout.write(line)
        sys.stdout.flush()
        if line.strip():
            last = line
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    if not isinstance(result, dict):
        print("perfbench check: the last output line is not a JSON result")
        return 1
    found = problems(result)
    for problem in found:
        print(f"perfbench check: {problem}")
    if not found:
        print("perfbench check: ok")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
