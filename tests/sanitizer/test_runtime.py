"""Sanitizer runtime: binding, capping, context stamping, clean trials."""

from __future__ import annotations

import pytest

from repro.core.runner import run_trial
from repro.core.trials import TRIAL_1, TRIAL_2, TRIAL_3, TrialConfig
from repro.des.core import Environment
from repro.faults.schedule import FAULT_PLAN_PRESETS
from repro.obs.config import ObservabilityConfig
from repro.obs.probes import NULL_MONITOR, NULL_PROBES, Probes
from repro.sanitizer.config import SanitizerConfig
from repro.sanitizer.runtime import Sanitizer
from repro.sanitizer.violations import InvariantViolation


def violation(checker="packet-leak", **overrides) -> InvariantViolation:
    base = dict(checker=checker, layer="net", message="m", time=1.0)
    base.update(overrides)
    return InvariantViolation(**base)


class TestConfigValidation:
    def test_all_disabled_rejected(self):
        with pytest.raises(ValueError):
            SanitizerConfig(ledger=False, kernel=False, protocols=False)

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(ValueError):
            SanitizerConfig(max_violations=0)

    def test_negative_grace_rejected(self):
        with pytest.raises(ValueError):
            SanitizerConfig(cutoff_grace=-0.1)


class TestEmit:
    def test_scenario_name_stamped(self):
        sanitizer = Sanitizer(
            SanitizerConfig(), Environment(), scenario_name="trial-x"
        )
        sanitizer.emit(violation())
        assert sanitizer.report.violations[0].scenario == "trial-x"

    def test_cap_overflows_instead_of_growing(self):
        sanitizer = Sanitizer(
            SanitizerConfig(max_violations=3), Environment()
        )
        for _ in range(5):
            sanitizer.emit(violation())
        assert len(sanitizer.report.violations) == 3
        assert sanitizer.report.overflow == 2
        assert not sanitizer.report.ok


class TestViolationRendering:
    def test_str_carries_scenario_time_uid_node(self):
        text = str(
            violation(scenario="trial2", time=3.141593, uid=42, node=7)
        )
        assert "scenario=trial2" in text
        assert "t=3.141593" in text
        assert "uid=42" in text
        assert "node=7" in text
        assert "[packet-leak/net]" in text

    def test_to_dict_omits_absent_context(self):
        data = violation().to_dict()
        assert "uid" not in data and "node" not in data

    def test_report_render_lists_violations_and_counters(self):
        sanitizer = Sanitizer(
            SanitizerConfig(), Environment(), scenario_name="t"
        )
        sanitizer.emit(violation(uid=9))
        sanitizer.report.counters["audited"] = 12
        text = sanitizer.report.render()
        assert "violations=1" in text
        assert "uid=9" in text
        assert "audited=12" in text


class TestApiBinding:
    def test_disabled_returns_null_monitors_and_no_ledger(self):
        assert NULL_PROBES.ledger is None
        assert NULL_PROBES.queue_monitor is NULL_MONITOR
        assert NULL_PROBES.tcp_monitor is NULL_MONITOR
        assert NULL_PROBES.tdma_monitor is NULL_MONITOR
        assert NULL_PROBES.dcf_monitor is NULL_MONITOR

    def test_null_monitor_hooks_are_noops(self):
        null = NULL_MONITOR
        null.on_occupancy(None, 999)
        null.on_segment_sent(None, -1)
        null.on_ack(None, -1)
        null.on_sink(None)
        null.on_slot_tx(None, 0.0, 0.0)
        null.on_nav(None, -1.0)
        null.on_backoff(None, -5)

    def test_active_sanitizer_binds_live_monitors(self):
        sanitizer = Sanitizer(SanitizerConfig(), Environment())
        probes = Probes(sanitizer=sanitizer)
        assert probes.ledger is sanitizer.ledger
        assert probes.packet_sinks == (sanitizer.ledger,)
        assert probes.queue_monitor is sanitizer.queue_mon
        assert probes.tcp_monitor is sanitizer.tcp_mon
        assert probes.tdma_monitor is sanitizer.tdma_mon
        assert probes.dcf_monitor is sanitizer.dcf_mon

    def test_partial_config_keeps_null_for_disabled_families(self):
        sanitizer = Sanitizer(
            SanitizerConfig(protocols=False), Environment()
        )
        probes = Probes(sanitizer=sanitizer)
        assert probes.ledger is sanitizer.ledger
        assert probes.queue_monitor is NULL_MONITOR


PAPER_TRIALS = {"trial1": TRIAL_1, "trial2": TRIAL_2, "trial3": TRIAL_3}


class TestCleanTrials:
    """Acceptance: the paper trials run sanitized with zero violations."""

    @pytest.mark.parametrize("name", sorted(PAPER_TRIALS))
    def test_paper_trial_sanitizer_clean(self, name):
        config = PAPER_TRIALS[name].with_overrides(
            duration=12.0, sanitize=SanitizerConfig()
        )
        result = run_trial(config)
        report = result.sanitizer_report
        assert report is not None
        assert report.ok, report.render()
        assert report.counters["audited"] > 0
        assert report.counters["leaked"] == 0

    @pytest.mark.parametrize("plan", ["light", "heavy"])
    def test_faulted_trial_losses_attributed_not_flagged(self, plan):
        config = TRIAL_1.with_overrides(
            duration=12.0,
            sanitize=SanitizerConfig(),
            fault_plan=FAULT_PLAN_PRESETS[plan],
        )
        result = run_trial(config)
        report = result.sanitizer_report
        assert report.ok, report.render()

    def test_sanitized_with_observability_cross_validates(self):
        config = TRIAL_1.with_overrides(
            duration=12.0,
            sanitize=SanitizerConfig(),
            observability=ObservabilityConfig(),
        )
        result = run_trial(config)
        report = result.sanitizer_report
        assert report.ok, report.render()

    def test_unsanitized_trial_has_no_report(self):
        config = TrialConfig(
            name="plain", duration=3.0, enable_trace=False,
            track_energy=False,
        )
        result = run_trial(config)
        assert result.sanitizer_report is None
