"""Differential-digest guard: the sanitizer must not perturb results.

Same contract as the observability layer (see
``test_observability_neutral.py``): enabling the full sanitizer — the
conservation ledger on the trace path, the protocol monitors in the MAC/
transport hot paths, and the kernel checks (which flip the event loop
into strict mode) — must leave every packet trace record bit-identical.
A monitor that draws from an RNG, schedules an event, or mutates
protocol state would fail here before it could skew a paper figure.
"""

from __future__ import annotations

import pytest

from repro.core.runner import run_trial
from repro.core.trials import TRIAL_1, TRIAL_2, TRIAL_3
from repro.perf.equivalence import metrics_summary, trace_digest
from repro.sanitizer.config import SanitizerConfig


#: Long enough for the brake warning to propagate through both platoons.
DURATION = 12.0

TRIALS = {"trial1": TRIAL_1, "trial2": TRIAL_2, "trial3": TRIAL_3}


@pytest.mark.parametrize("name", sorted(TRIALS))
def test_trace_digest_identical_with_sanitizer(name):
    base = TRIALS[name].with_overrides(duration=DURATION, enable_trace=True)
    plain = run_trial(base)
    sanitized = run_trial(base.with_overrides(sanitize=SanitizerConfig()))
    assert trace_digest(sanitized) == trace_digest(plain), (
        f"{name}: enabling the sanitizer changed the packet trace — a "
        "checker has a simulation side effect"
    )
    report = sanitized.sanitizer_report
    assert report is not None and report.ok, report.render()


def test_summary_identical_and_sanitizer_ran():
    base = TRIAL_1.with_overrides(duration=DURATION)
    plain = run_trial(base)
    sanitized = run_trial(base.with_overrides(sanitize=SanitizerConfig()))
    assert metrics_summary(sanitized) == metrics_summary(plain)
    report = sanitized.sanitizer_report
    # The run was genuinely audited, not silently no-op'd.
    assert report.counters["audited"] > 0
    assert report.counters["delivered"] > 0
