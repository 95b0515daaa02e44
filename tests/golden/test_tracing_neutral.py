"""Differential-digest guard: span tracing must not perturb results.

Same discipline as ``test_observability_neutral.py``, extended to the
span tracer.  It hooks the kernel's event loop itself (the traced loop
widens heap entries to six elements), so this is the strongest version
of the neutrality claim: the *kernel* runs a different code path and the
packet trace must still be bit-identical.
"""

from __future__ import annotations

import itertools

import pytest

import repro.net.packet as packet_module
from repro.core.runner import run_trial
from repro.core.trials import TRIAL_1, TRIAL_3
from repro.obs import ObservabilityConfig
from repro.perf.equivalence import metrics_summary, trace_digest


def run_fresh(config):
    """Run a trial with the packet uid counter rewound to zero."""
    packet_module._uid_counter = itertools.count()
    return run_trial(config)


#: Long enough for the brake warning to propagate through both platoons.
DURATION = 12.0

TRACING = ObservabilityConfig(metrics=False, journeys=False, tracing=True)

#: Trial 1 (TDMA) and Trial 3 (802.11 contention) cover both kernels'
#: scheduling styles; trial 2 adds nothing the digest would notice.
TRIALS = {"trial1": TRIAL_1, "trial3": TRIAL_3}


@pytest.mark.parametrize("name", sorted(TRIALS))
def test_trace_digest_identical_with_tracing(name):
    base = TRIALS[name].with_overrides(duration=DURATION, enable_trace=True)
    plain = run_fresh(base)
    traced = run_fresh(base.with_overrides(observability=TRACING))
    assert trace_digest(traced) == trace_digest(plain), (
        f"{name}: enabling the span tracer changed the packet trace — "
        "the traced kernel loop has a simulation side effect"
    )
    tracer = traced.observability.spans
    assert tracer is not None and len(tracer) > 0  # it genuinely recorded


def test_summary_identical_with_tracing():
    base = TRIAL_1.with_overrides(duration=DURATION)
    plain = run_fresh(base)
    traced = run_fresh(base.with_overrides(observability=TRACING))
    assert metrics_summary(traced) == metrics_summary(plain)
    spans = traced.observability.spans.finalize()
    # The causal structure resolved: nearly every span has a parent.
    assert sum(1 for s in spans if s.parent is not None) / len(spans) > 0.9
