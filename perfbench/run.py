"""Run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py [--seed N] [--traced] [--output FILE]
    python3 perfbench/run.py --refresh-pins [--workload NAME]

With ``--workload`` one workload runs in this process.  Every metric is
printed by name with its unit, and the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: BENCHMARK.json's end-to-end metrics, or its per-layer
metrics with ``--trace 1`` (``--traced``).  Without ``--workload`` every
workload runs in its own fresh child process, one after another.
``--output`` writes the full report that ``perfbench/compare.py`` reads.

The simulator is imported from ``src/`` beside this directory; without
it the benchmark exits with status 2 before measuring anything.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no simulator source at {SRC}", file=sys.stderr)
        sys.exit(2)
    for path in (SRC, ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from perfbench.suite import main

    sys.exit(main())
