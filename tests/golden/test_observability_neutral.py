"""Differential-digest guard: observability must not perturb results.

The whole telemetry layer is advertised as free of side effects on the
simulation: enabling the metric registry, the journey tracker, and even
the heartbeat introspector (which schedules its own timeout events) must
leave every packet trace record and every metric bit-identical.  These
tests run each trial twice in-process — observability off, then fully
on — and compare the complete trace digests.

Anything that breaks this (an instrument drawing from an RNG, a
heartbeat mutating state, an eid-dependent tiebreak flipping) fails
here before it can silently skew a paper figure.
"""

from __future__ import annotations

import pytest

from repro.core.runner import run_trial
from repro.core.trials import TRIAL_1, TRIAL_2, TRIAL_3
from repro.obs import ObservabilityConfig
from repro.perf.equivalence import metrics_summary, trace_digest


#: Matches the golden-summary duration: long enough for the brake
#: warning to propagate through both platoons.
DURATION = 12.0

TRIALS = {"trial1": TRIAL_1, "trial2": TRIAL_2, "trial3": TRIAL_3}

#: Everything on at once — metrics, journeys, and the heartbeat process,
#: which inserts extra (state-reading) events into the schedule.
FULL_OBSERVABILITY = ObservabilityConfig(
    metrics=True, journeys=True, heartbeat_interval=1.0
)


@pytest.mark.parametrize("name", sorted(TRIALS))
def test_trace_digest_identical_with_observability(name):
    base = TRIALS[name].with_overrides(duration=DURATION, enable_trace=True)
    plain = run_trial(base)
    observed = run_trial(base.with_overrides(observability=FULL_OBSERVABILITY))
    assert trace_digest(observed) == trace_digest(plain), (
        f"{name}: enabling observability changed the packet trace — the "
        "telemetry layer has a simulation side effect"
    )


def test_summary_identical_and_telemetry_present():
    """One trial checked field-by-field, plus proof the telemetry ran."""
    base = TRIAL_1.with_overrides(duration=DURATION)
    plain = run_trial(base)
    observed = run_trial(base.with_overrides(observability=FULL_OBSERVABILITY))
    assert metrics_summary(observed) == metrics_summary(plain)
    obs = observed.observability
    assert obs is not None and obs.registry is not None
    # The run was genuinely instrumented, not silently no-op'd.
    assert obs.registry.counter("mac.data.received").value > 0
    assert obs.journeys is not None and obs.journeys.journeys()
    assert obs.introspector is not None and obs.introspector.records
