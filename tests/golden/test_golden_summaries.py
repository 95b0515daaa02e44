"""Golden determinism regression tests.

Each trial's bit-exact metric summary (per-flow delay samples, throughput
series, delivery counts — floats serialised via ``repr``) is snapshotted
as JSON next to this file, and the trace digest of the same run
(:func:`repro.perf.equivalence.trace_digest`, one SHA-256 over every
packet-trace record, uids included, plus the metrics) is pinned in
``trial_digests.json``.  Any change to the event stream — an RNG drawn in
a different order, a float computed differently, an event reordered, a
uid drawn more or less often — shows up here as a diff against the
snapshot or the digest.

When a change is *intended* to alter results (new physics, a fixed bug),
regenerate the snapshots and commit them with the change::

    PYTHONPATH=src python -m pytest tests/golden --update-golden

The diff of the regenerated JSON then documents exactly what moved.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.runner import TrialResult, run_trial
from repro.core.trials import TRIAL_1, TRIAL_2, TRIAL_3
from repro.perf.equivalence import metrics_summary, trace_digest

GOLDEN_DIR = Path(__file__).resolve().parent
DIGESTS = GOLDEN_DIR / "trial_digests.json"

#: Short enough to keep the suite fast, long enough that both platoons
#: exchange traffic and the brake warning propagates.
GOLDEN_DURATION = 12.0

GOLDEN_TRIALS = {
    "trial1": TRIAL_1,
    "trial2": TRIAL_2,
    "trial3": TRIAL_3,
}


def pinned_digests() -> dict[str, str]:
    """The committed trace digest of each golden trial."""
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


@pytest.fixture(scope="module", params=sorted(GOLDEN_TRIALS))
def trial(request) -> tuple[str, TrialResult]:
    """One golden run per trial, shared by its summary and digest checks."""
    name = request.param
    config = GOLDEN_TRIALS[name].with_overrides(duration=GOLDEN_DURATION)
    return name, run_trial(config)


def test_metric_summary_matches_golden(trial, request):
    name, result = trial
    summary = metrics_summary(result)
    path = GOLDEN_DIR / f"{name}_summary.json"

    if request.config.getoption("--update-golden"):
        path.write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"golden snapshot regenerated: {path.name}")

    assert path.exists(), (
        f"missing golden snapshot {path.name}; generate it with "
        f"'python -m pytest tests/golden --update-golden'"
    )
    golden = json.loads(path.read_text())
    assert summary == golden, (
        f"{name} metric summary drifted from its golden snapshot; if the "
        f"change is intentional, regenerate with --update-golden and "
        f"commit the JSON diff"
    )


def test_trace_digest_matches_golden(trial, request):
    name, result = trial
    digest = trace_digest(result)

    if request.config.getoption("--update-golden"):
        golden = {k: v for k, v in pinned_digests().items() if k in GOLDEN_TRIALS}
        golden[name] = digest
        DIGESTS.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden digest regenerated: {name}")

    golden = pinned_digests()
    assert name in golden, (
        f"no golden digest for {name}; generate it with "
        f"'python -m pytest tests/golden --update-golden'"
    )
    assert digest == golden[name], (
        f"{name} trace digest drifted from {DIGESTS.name}; if the change is "
        f"intentional, regenerate with --update-golden and commit the diff"
    )


def test_golden_snapshots_are_committed():
    """Every trial has a snapshot and a digest on disk (guards against
    skipped setup)."""
    missing = [
        name
        for name in GOLDEN_TRIALS
        if not (GOLDEN_DIR / f"{name}_summary.json").exists()
        or name not in pinned_digests()
    ]
    assert not missing, f"golden snapshots missing for: {missing}"
