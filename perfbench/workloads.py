"""The benchmark's workloads and the trials each one runs.

Every workload is a closed loop: the next trial starts only when the
previous one has finished (the campaign workload keeps ``jobs`` trials in
flight).  A run does a fixed amount of work: its seed count is sized so
that the run takes about ``REFERENCE_SECONDS`` of host time on a 2-core
host, and ``--seconds`` scales it.  Fixed work keeps runs of two commits
comparable; a time-boxed loop would run more trials on the faster commit
and so move ``peak_rss_mb`` (which grows with back-to-back traced trials)
for reasons unrelated to memory.

A run's seeds come from ``--seed`` and wrap inside a pool of
``POOL_SEEDS`` seeds whose digests are pinned in ``pins.json``, so every
measured trial is checked bit-for-bit whatever seed the run is given.
The reasons for each workload are in README.md and BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.trials import TRIAL_1, TRIAL_2, TRIAL_3, TrialConfig
from repro.experiments.campaign import CampaignTrial, campaign_trials
from repro.faults.schedule import FAULT_PLAN_PRESETS, FaultPlan
from repro.obs.config import ObservabilityConfig
from repro.sanitizer.config import SanitizerConfig

#: Seeds with pinned digests; run seeds wrap around inside this pool.
POOL_SEEDS = 64
#: Host seconds the per-workload seed counts are sized for.
REFERENCE_SECONDS = 20.0
#: Simulated seconds of the untimed warm-up trial every run starts with
#: (the shortest trial whose results can be analysed).
WARMUP_DURATION = 2.0
#: Trials the traced (per-layer) pass covers.
TRACED_TRIALS = 5


@dataclass(frozen=True)
class Workload:
    """One set of trial configs, run once per seed."""

    name: str
    #: Trial configs run for every seed, in this order.
    variants: tuple[TrialConfig, ...]
    #: Seeds per run at ``REFERENCE_SECONDS``.
    seeds: int
    #: Campaign worker processes; 0 runs the trials in this process.
    jobs: int = 0
    fault_plan: Optional[FaultPlan] = None

    def seeds_for(self, seed: int, seconds: float) -> list[int]:
        """The run's trial seeds: consecutive from ``seed``, inside the pool."""
        count = max(1, round(self.seeds * seconds / REFERENCE_SECONDS))
        return [1 + (seed - 1 + i) % POOL_SEEDS for i in range(count)]

    def trials(self, seeds: list[int]) -> list[CampaignTrial]:
        """One trial per seed and variant, keyed ``<variant>-seed<n>``."""
        return [
            trial
            for seed in seeds
            for base in self.variants
            for trial in campaign_trials(base, [seed], fault_plan=self.fault_plan)
        ]

    def warmup_config(self, seed: int) -> TrialConfig:
        """A short untimed trial that loads modules and fills caches."""
        return self.trials([seed])[0].config.with_overrides(
            duration=WARMUP_DURATION
        )

    def shortened(self, duration: float) -> "Workload":
        """The same workload with every trial cut to ``duration`` sim seconds."""
        return replace(
            self,
            variants=tuple(
                variant.with_overrides(duration=duration)
                for variant in self.variants
            ),
        )


_OBSERVED = ObservabilityConfig(metrics=True, journeys=True, tracing=True)

WORKLOADS: tuple[Workload, ...] = (
    # Trial 3: 802.11 DCF, 2x3 vehicles, 1000 B TCP, AODV, priority queue.
    Workload(
        name="dcf-paper",
        variants=(TRIAL_3.with_overrides(name="dcf-paper", duration=12.0),),
        seeds=20,
    ),
    # Trial 1 at 32 vehicles, one TDMA slot per vehicle (with 16 slots,
    # address % 16 would make vehicles share slots).
    Workload(
        name="tdma-dense",
        variants=(
            TRIAL_1.with_overrides(
                name="tdma-dense",
                platoon_size=16,
                tdma_num_slots=None,
                duration=30.0,
            ),
        ),
        seeds=20,
    ),
    # Trials 1 and 2 with every instrumentation sink on.  Only 20 seeds
    # (40 trials, about half the reference run length): each traced trial
    # leaves garbage behind (see README.md), so more trials mean a larger
    # process that also takes seconds to free at exit.
    Workload(
        name="tdma-observed",
        variants=tuple(
            base.with_overrides(
                name=f"tdma-observed-{base.name}",
                duration=60.0,
                observability=_OBSERVED,
                sanitize=SanitizerConfig(),
            )
            for base in (TRIAL_1, TRIAL_2)
        ),
        seeds=20,
    ),
    # Trial 3 under the heavy fault plan and 5% bursty loss, through the
    # campaign worker pool.
    Workload(
        name="dcf-faulted-campaign",
        variants=(
            TRIAL_3.with_overrides(
                name="dcf-faulted",
                duration=20.0,
                error_rate=0.05,
                error_bursts=True,
            ),
        ),
        seeds=20,
        jobs=2,
        fault_plan=FAULT_PLAN_PRESETS["heavy"],
    ),
)

BY_NAME: dict[str, Workload] = {workload.name: workload for workload in WORKLOADS}
