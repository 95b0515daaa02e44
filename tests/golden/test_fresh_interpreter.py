"""A fresh interpreter reproduces a pinned trace digest.

Every other golden test runs its trial in the pytest process, after
whatever ran before it.  This one reruns a pinned trial in a new
interpreter under two fixed ``PYTHONHASHSEED`` values and requires the
digest committed in ``trial_digests.json``.  State left behind by earlier
in-process work, and iteration order that follows string hashes or
object addresses, would both show up here as a digest that differs from
the pin or between the two seeds.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.golden.test_golden_summaries import GOLDEN_DURATION, pinned_digests

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: Trial 1, the cheapest pinned trial: the run is a small part of the
#: subprocess's cost, most of which is importing the simulator.
_DIGEST_SCRIPT = """
import sys
from repro.core.runner import run_trial
from repro.core.trials import TRIAL_1
from repro.perf.equivalence import trace_digest

config = TRIAL_1.with_overrides(duration=float(sys.argv[1]))
print(trace_digest(run_trial(config)))
"""


@pytest.mark.parametrize("hash_seed", ["0", "2718"])
def test_fresh_interpreter_reproduces_pinned_digest(hash_seed):
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC), PYTHONHASHSEED=hash_seed)
    result = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT, repr(GOLDEN_DURATION)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == pinned_digests()["trial1"], (
        f"trial1 in a fresh interpreter (PYTHONHASHSEED={hash_seed}) "
        "diverged from its pinned digest"
    )
