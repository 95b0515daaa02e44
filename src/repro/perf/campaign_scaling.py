"""Worker-pool scaling bench for the campaign runner.

Runs the same multi-seed campaign twice — sequentially (``jobs=1``) and
on the worker pool (``jobs=N``) — and reports the wall-clock speedup
together with a field-by-field comparison of the per-trial records.
The comparison is the point: the pool's contract is that scheduling
never feeds back into results, so every (status, metrics, violations)
triple must be **bit-identical** across the two runs; any mismatch
makes :func:`main` exit non-zero.

Speedup itself is reported, not gated — on a single hardware thread the
CPU-bound trials cannot overlap, and hosted-runner wall clocks are too
noisy for absolute gating (see docs/PERFORMANCE.md).  The
retry-protocol speedup *assertion* lives in
``tests/perf/test_campaign_scaling.py``.

Like the rest of ``repro.perf``, this module is host-side measurement:
the wall-clock reads are intentional and marked for simlint.

Usage::

    PYTHONPATH=src python -m repro.perf.campaign_scaling \
        --trial 3 --seeds 8 --jobs 4 --duration 3
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Optional, Sequence

from repro.core.trials import TRIAL_1, TRIAL_2, TRIAL_3, TrialConfig
from repro.experiments.campaign import (
    CampaignResult,
    campaign_trials,
    run_campaign,
)

SCHEMA = "repro.campaign-scaling/1"

_TRIALS = {1: TRIAL_1, 2: TRIAL_2, 3: TRIAL_3}


def _comparable(outcome) -> str:
    """The scheduling-independent fields of one record, canonically.

    ``elapsed`` is wall clock and legitimately differs run to run;
    everything else must not.  The comparison happens on serialized
    JSON: float equality is then bit-exact (shortest round-trip repr)
    while a NaN metric — e.g. ``initial_packet_delay`` of a trial whose
    warning never fired — still compares equal to itself, which Python's
    ``==`` on the raw dicts would not.
    """
    return json.dumps(
        {
            "key": outcome.key,
            "status": outcome.status,
            "metrics": outcome.metrics,
            "error": outcome.error,
            "violations": outcome.violations,
            "trace": outcome.trace,
        },
        sort_keys=True,
    )


def compare_outcomes(
    sequential: CampaignResult, parallel: CampaignResult
) -> list[str]:
    """Keys whose records differ between the two runs (empty == identical)."""
    mismatches = []
    for seq, par in zip(sequential.outcomes, parallel.outcomes):
        if _comparable(seq) != _comparable(par):
            mismatches.append(seq.key)
    return mismatches


def measure_campaign_scaling(
    base: TrialConfig,
    seeds: int = 8,
    jobs: int = 4,
    timeout: float = 120.0,
) -> dict:
    """Time the same ``seeds``-trial campaign at ``jobs=1`` and ``jobs=N``."""
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    trials = campaign_trials(base, seeds=range(1, seeds + 1))

    def timed(n_jobs: int) -> tuple[CampaignResult, float]:
        start = time.perf_counter()  # simlint: disable=SIM002
        result = run_campaign(trials, timeout=timeout, jobs=n_jobs)
        return result, time.perf_counter() - start  # simlint: disable=SIM002

    sequential, wall_sequential = timed(1)
    parallel, wall_parallel = timed(jobs)
    mismatches = compare_outcomes(sequential, parallel)
    statuses: dict[str, int] = {}
    for outcome in parallel.outcomes:
        statuses[outcome.status] = statuses.get(outcome.status, 0) + 1
    return {
        "schema": SCHEMA,
        "trial": base.name,
        "duration": base.duration,
        "seeds": seeds,
        "jobs": jobs,
        "wall_sequential_s": wall_sequential,
        "wall_parallel_s": wall_parallel,
        "speedup": (
            wall_sequential / wall_parallel if wall_parallel > 0 else 0.0
        ),
        "identical": not mismatches,
        "mismatches": mismatches,
        "statuses": statuses,
    }


def format_report(report: dict) -> str:
    lines = [
        f"campaign scaling: {report['seeds']} seeds of {report['trial']} "
        f"({report['duration']:g}s sim each)",
        f"  jobs=1              {report['wall_sequential_s']:8.2f}s wall",
        f"  jobs={report['jobs']:<3d}            {report['wall_parallel_s']:8.2f}s wall"
        f"  ({report['speedup']:.2f}x)",
        "  per-trial records: "
        + (
            "bit-identical across both runs"
            if report["identical"]
            else "MISMATCH on " + ", ".join(report["mismatches"])
        ),
    ]
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="campaign worker-pool scaling bench"
    )
    parser.add_argument("--trial", type=int, choices=(1, 2, 3), default=3)
    parser.add_argument("--seeds", type=int, default=8,
                        help="run seeds 1..N twice (default 8)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="pool width of the parallel arm (default 4)")
    parser.add_argument("--duration", type=float, default=3.0,
                        help="simulated seconds per trial (default 3)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-trial watchdog (default 120)")
    parser.add_argument("--output", metavar="FILE",
                        help="write the JSON report here")
    args = parser.parse_args(argv)
    base = _TRIALS[args.trial].with_overrides(duration=args.duration)
    report = measure_campaign_scaling(
        base, seeds=args.seeds, jobs=args.jobs, timeout=args.timeout
    )
    print(format_report(report))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            json.dump(report, stream, indent=2)
            stream.write("\n")
        print(f"scaling report written to {args.output}")
    # Differing records mean the pool broke determinism — that gates.
    return 0 if report["identical"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke
    raise SystemExit(main())
