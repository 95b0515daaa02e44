"""Wall-clock overhead gates: observability and span tracing cost < 10%.

Both instrumentation layers are golden-tested to leave results
bit-identical (``tests/golden/test_*_neutral.py``); these gates hold
their host-time cost on Trial 3, the worst case: 802.11 contention gives
it by far the most events per simulated second.
"""

from __future__ import annotations

import gc
import time

from repro.core.runner import run_trial
from repro.core.scenario import EblScenario
from repro.core.trials import TRIAL_3
from repro.obs import ObservabilityConfig


def test_observability_overhead_under_10_percent():
    """Full telemetry (metrics + journeys) costs < 10% wall clock.

    Single-arm wall-clock comparisons on a shared CI host drift by more
    than the effect being measured, so the two arms are interleaved
    round-by-round (slow drift hits both equally) and each arm keeps its
    best-of-N.  The timed region is the whole ``run_trial`` — build, run
    and harvest — because telemetry costs something in each.  Like the
    tracing gate below, the whole measurement retries up to five times
    and passes on the first attempt under budget: mid-suite heap
    fragmentation gives single attempts a noise tail, while a genuine
    regression shifts every attempt over the line.
    """

    def timed_trial(config):
        start = time.perf_counter()  # simlint: disable=SIM002
        run_trial(config)
        return time.perf_counter() - start  # simlint: disable=SIM002

    plain_cfg = TRIAL_3.with_overrides(
        duration=3.0, enable_trace=False, observability=None
    )
    observed_cfg = plain_cfg.with_overrides(observability=ObservabilityConfig())
    rounds = 4
    timed_trial(plain_cfg.with_overrides(duration=1.0))  # warm caches/allocator
    overheads = []
    for _attempt in range(5):
        best_base = float("inf")
        best_observed = float("inf")
        for _ in range(rounds):
            best_base = min(best_base, timed_trial(plain_cfg))
            best_observed = min(best_observed, timed_trial(observed_cfg))
        overheads.append(best_observed / best_base - 1.0)
        if overheads[-1] < 0.10:
            return
    assert False, (
        "observability overhead exceeded the 10% budget on every attempt: "
        + ", ".join(f"{100 * o:.1f}%" for o in overheads)
    )


def test_tracing_overhead_under_10_percent():
    """The traced kernel loop costs < 10% wall clock.

    Methodology matters here more than in the observability gate above:

    * time ``scenario.run()`` alone (not ``run_trial``) — result
      harvesting is identical in both arms and only adds noise;
    * ``gc.collect()`` between arms — the tracer pins every executed
      event, and letting a post-run gen-2 collection of one arm's
      garbage bleed into the other arm's timer fabricates overhead
      (the traced loop itself suspends cyclic GC while it runs);
    * interleave the arms and keep each one's best-of-N, as the
      observability gate does;
    * repeat the whole measurement up to five times and pass on the
      first attempt under budget.  The tracer's true cost sits well
      inside the budget, but pinning every event makes the traced arm
      disproportionately sensitive to host cache/frequency state on a
      shared runner, so single attempts have a noise tail the retry
      protocol absorbs.  A genuine regression shifts *every* attempt
      over the line and still fails.
    """

    def timed_run(config):
        scenario = EblScenario(config)
        gc.collect()
        start = time.perf_counter()  # simlint: disable=SIM002
        scenario.run()
        return time.perf_counter() - start  # simlint: disable=SIM002

    plain_cfg = TRIAL_3.with_overrides(duration=3.0)
    traced_cfg = plain_cfg.with_overrides(
        observability=ObservabilityConfig(
            metrics=False, journeys=False, tracing=True
        )
    )
    timed_run(plain_cfg)  # warm caches/allocator
    timed_run(traced_cfg)
    overheads = []
    for _attempt in range(5):
        best_plain = float("inf")
        best_traced = float("inf")
        for _ in range(4):
            best_plain = min(best_plain, timed_run(plain_cfg))
            best_traced = min(best_traced, timed_run(traced_cfg))
        overheads.append(best_traced / best_plain - 1.0)
        if overheads[-1] < 0.10:
            return
    assert False, (
        "tracing overhead exceeded the 10% budget on every attempt: "
        + ", ".join(f"{100 * o:.1f}%" for o in overheads)
    )
