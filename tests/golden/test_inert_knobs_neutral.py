"""Exact metamorphic oracles: settings that draw nothing change nothing.

Two knobs have a value at which they must be inert:

* a fault plan that draws no fault events (``FaultPlan()``) must give the
  same trace as no fault plan at all;
* with ``error_rate=0`` no frame is lost, so switching the loss model to
  bursty (``error_bursts=True``) must change nothing either.

Each oracle runs three rows of the golden config matrix that have no
fault plan and a clean channel, one per MAC family (TDMA, 802.11 and
EDCA), and demands the row's golden ``trace_digest`` bit for bit.
"""

from __future__ import annotations

import pytest

from repro.core.runner import run_trial
from repro.faults.schedule import FaultPlan
from repro.perf.equivalence import trace_digest

from tests.golden.test_config_matrix import MATRIX, _golden

ROWS = (
    "tdma-aodv-pri-32-vehicles",
    "802.11-aodv-droptail-dense",
    "edca-flooding-pri-arp-rts100-dense",
)

INERT = {
    "empty-fault-plan": {"fault_plan": FaultPlan()},
    "bursty-loss-at-rate-0": {"error_bursts": True},
}


def test_rows_have_no_faults_and_no_loss():
    for name in ROWS:
        config = MATRIX[name]
        assert config.fault_plan is None
        assert (config.error_rate, config.error_bursts) == (0.0, False)


@pytest.mark.parametrize("knob", sorted(INERT))
@pytest.mark.parametrize("name", ROWS)
def test_inert_knob_leaves_digest_unchanged(name, knob):
    config = MATRIX[name].with_overrides(**INERT[knob])
    assert trace_digest(run_trial(config)) == _golden()[name], (
        f"{name}: {knob} changed the trace although it draws nothing"
    )
