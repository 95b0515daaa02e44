"""Timed trials, correctness digests and the end-to-end metrics.

The benchmark reaches the simulator only through its public entry
points: :class:`EblScenario`, ``Environment.run``, :func:`harvest`,
:func:`analyze_trial` and :func:`run_campaign`.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.core.analysis import analyze_trial
from repro.core.runner import TrialResult, harvest
from repro.core.scenario import EblScenario
from repro.core.trials import TrialConfig
from repro.experiments.campaign import (
    CampaignResult,
    CampaignTrial,
    TrialOutcome,
    campaign_trials,
    run_campaign,
)

from perfbench.workloads import Workload

if TYPE_CHECKING:  # layers imports this module
    from perfbench.layers import LayerClock

#: One-trial campaigns timed for the campaign workload's ``setup_s``.
CAMPAIGN_SETUP_REPEATS = 25
#: Simulated seconds of each of those campaigns.
CAMPAIGN_SETUP_DURATION = 0.001


def _sha256(record: Any) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def trial_digest(result: TrialResult) -> str:
    """SHA-256 over what a trial delivered, floats as ``repr``.

    Kernel event counts stay out: a pure speed-up may change them.
    """
    platoons = (result.platoon1, result.platoon2)
    return _sha256(
        {
            "flows": [
                [
                    flow.src,
                    flow.dst,
                    flow.delivered_segments,
                    flow.duplicates,
                    [[repr(s.sent_at), repr(s.received_at)] for s in flow.delays],
                ]
                for platoon in platoons
                for flow in platoon.flows
            ],
            "throughput": [
                [[repr(s.time), repr(s.mbps)] for s in platoon.throughput.samples]
                for platoon in platoons
            ],
            "transmissions": result.scenario.channel.transmissions,
        }
    )


def outcome_digest(outcome: TrialOutcome) -> str:
    """SHA-256 over a campaign outcome record, without its wall time."""
    return _sha256(
        {
            "key": outcome.key,
            "status": outcome.status,
            "metrics": {name: repr(value) for name, value in outcome.metrics.items()},
        }
    )


def outcome_key(key: str) -> str:
    """Pin key of a campaign outcome (in-process digests use the bare key)."""
    return f"outcome:{key}"


def peak_rss_mb() -> float:
    """High-water RSS of this process and of its largest child, MiB."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    # Linux reports KiB, macOS bytes.
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


def metric(value: float, unit: str, n: int) -> dict[str, Any]:
    return {"value": value, "unit": unit, "n": n}


@dataclass
class Tally:
    """Attempted and failed trials, and the digest of every trial run."""

    pins: dict[str, str]
    attempted: int = 0
    failed: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def record(
        self,
        label: str,
        pin_key: str,
        digest: Optional[str] = None,
        error: Optional[str] = None,
    ) -> None:
        """Count one trial; a failure counts once whatever went wrong."""
        self.attempted += 1
        if digest is not None:
            self.digests[label] = digest
            pinned = self.pins.get(pin_key)
            if error is None and digest != pinned:
                error = f"digest {digest[:12]} != pinned {(pinned or 'none')[:12]}"
        if error is not None:
            self.failed += 1
            self.errors.append(f"{label}: {error}")

    def record_result(self, label: str, pin_key: str, result: TrialResult) -> None:
        """Count one in-process trial: digest plus sanitizer verdict."""
        report = result.sanitizer_report
        error = None
        if report is not None and not report.ok:
            error = f"{len(report) + report.overflow} sanitizer violation(s)"
        self.record(label, pin_key, trial_digest(result), error)

    def record_outcome(self, outcome: TrialOutcome) -> None:
        """Count one campaign trial: status plus outcome digest."""
        key = outcome_key(outcome.key)
        if outcome.status == "ok":
            self.record(key, key, outcome_digest(outcome))
        else:
            last = outcome.error.strip().splitlines()[-1:] or [""]
            self.record(key, key, error=f"status {outcome.status}: {last[0]}")


@dataclass
class TrialRun:
    """Host seconds of one in-process trial, and what it produced."""

    #: Construct :class:`EblScenario` and call ``start()``.
    setup_s: float
    #: ``Environment.run`` alone.
    run_s: float
    #: Run + harvest + analysis.
    trial_s: float
    #: Set-up + run + harvest + analysis.
    total_s: float
    result: TrialResult
    #: Per-layer snapshot when the trial ran under a :class:`LayerClock`.
    layers: Optional[dict[str, Any]] = None


def run_inprocess(
    config: TrialConfig, clock: Optional[LayerClock] = None
) -> TrialRun:
    """Build, run, harvest and analyse one trial, timing each step.

    With ``clock`` the scenario is instrumented after construction and before ``start()``, and only
    work inside ``Environment.run`` is attributed to layers.
    """
    start = time.perf_counter()
    scenario = EblScenario(config)
    if clock is not None:
        clock.install(scenario)
    scenario.start()
    built = time.perf_counter()
    if clock is not None:
        clock.reset()
    scenario.env.run(until=config.duration)
    ran = time.perf_counter()
    layers = clock.snapshot() if clock is not None else None
    result = harvest(scenario)
    # Platoon 2 communicates from t=0, so any trial of 1.5 s or more has
    # the two throughput samples analysis needs; platoon 1 brakes ~8 s in.
    analyze_trial(result, platoon_id=2)
    done = time.perf_counter()
    return TrialRun(
        setup_s=built - start,
        run_s=ran - built,
        trial_s=done - built,
        total_s=done - start,
        result=result,
        layers=layers,
    )


def try_inprocess(
    trial: CampaignTrial, tally: Tally, clock: Optional[LayerClock] = None
) -> Optional[TrialRun]:
    """:func:`run_inprocess` with the outcome counted; None if it raised.

    A trial that finished with a wrong answer still returns its timings.
    """
    label = trial.key if clock is None else f"{trial.key} traced"
    try:
        run = run_inprocess(trial.config, clock)
    except Exception as exc:  # a raising trial is a counted failure
        tally.record(label, trial.key, error=f"{type(exc).__name__}: {exc}")
        return None
    tally.record_result(label, trial.key, run.result)
    return run


def warm_up(workload: Workload, seed: int) -> None:
    """One untimed short trial: imports, lazy caches, allocator."""
    run_inprocess(workload.warmup_config(seed))


def timed_campaign(
    trials: list[CampaignTrial], jobs: int
) -> tuple[CampaignResult, float]:
    start = time.perf_counter()
    result = run_campaign(trials, jobs=jobs)
    return result, time.perf_counter() - start


def pool_metrics(
    result: CampaignResult, wall: float, jobs: int
) -> dict[str, dict[str, Any]]:
    """How busy the campaign's workers kept the pool."""
    busy = sum(outcome.elapsed for outcome in result.outcomes)
    n = len(result.outcomes)
    return {
        "experiments.campaign.pool_util": metric(busy / (jobs * wall), "ratio", n),
        "experiments.campaign.overhead_s": metric(
            (jobs * wall - busy) / n, "s", n
        ),
    }


def _campaign_setup_s(workload: Workload, seed: int) -> list[float]:
    """Spawn, build, run 1 ms and report, as one-trial campaigns."""
    probe = campaign_trials(
        workload.variants[0].with_overrides(duration=CAMPAIGN_SETUP_DURATION),
        [seed],
        fault_plan=workload.fault_plan,
    )
    samples = []
    for _ in range(CAMPAIGN_SETUP_REPEATS):
        result, wall = timed_campaign(probe, jobs=1)
        if result.outcomes[0].status != "ok":
            raise RuntimeError(f"set-up probe failed: {result.outcomes[0].error}")
        samples.append(wall)
    return samples


def measure(
    workload: Workload, seeds: list[int], tally: Tally
) -> dict[str, dict[str, Any]]:
    """Run the workload's trials untraced; returns its end-to-end metrics."""
    trials = workload.trials(seeds)
    warm_up(workload, seeds[0])
    extra: dict[str, dict[str, Any]] = {}
    if workload.jobs:
        setups = _campaign_setup_s(workload, seeds[0])
        result, wall = timed_campaign(trials, workload.jobs)
        for outcome in result.outcomes:
            tally.record_outcome(outcome)
        finished = [
            (trial, outcome)
            for trial, outcome in zip(trials, result.outcomes)
            if outcome.status == "ok"
        ]
        sim_s = [trial.config.duration for trial, _ in finished]
        host_s = [outcome.elapsed for _, outcome in finished]
        trial_s = host_s
        extra = pool_metrics(result, wall, workload.jobs)
    else:
        # Keep numbers only: holding finished trials would inflate RSS.
        setups, sim_s, host_s, trial_s = [], [], [], []
        for trial in trials:
            run = try_inprocess(trial, tally)
            if run is not None:
                setups.append(run.setup_s)
                sim_s.append(trial.config.duration)
                host_s.append(run.total_s)
                trial_s.append(run.trial_s)
    if not trial_s:
        raise RuntimeError(f"{workload.name}: every trial failed")
    n = len(trial_s)
    return {
        "sim_s_per_host_s": metric(sum(sim_s) / sum(host_s), "sim_s/host_s", n),
        "trial_host_s_p50": metric(statistics.median(trial_s), "s", n),
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": metric(peak_rss_mb(), "MiB", 1),
        "failed_frac": metric(tally.failed / tally.attempted, "ratio", tally.attempted),
        **extra,
    }
