"""Tests for the obs activation API and ObservabilityConfig validation."""

from __future__ import annotations

import pytest

from repro.obs import ObservabilityConfig
from repro.obs import api
from repro.obs.journey import DEFAULT_MAX_JOURNEYS, JourneyTracker
from repro.obs.registry import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    MetricRegistry,
)


@pytest.fixture(autouse=True)
def clean_context():
    """Every test starts and ends with no active observability context."""
    api.deactivate()
    yield
    api.deactivate()


class TestApiBinding:
    def test_inactive_proxies_return_null_instruments(self):
        assert not api.is_active()
        assert api.active_registry() is None
        assert api.counter("mac.drops") is NULL_COUNTER
        assert api.gauge("queue.depth") is NULL_GAUGE
        assert api.histogram("tcp.rtt") is NULL_HISTOGRAM
        assert api.journey_tracker() is None

    def test_active_proxies_return_live_instruments(self):
        registry = MetricRegistry()
        tracker = JourneyTracker()
        api.activate(registry, tracker)
        assert api.is_active()
        assert api.active_registry() is registry
        assert api.counter("mac.drops") is registry.counter("mac.drops")
        assert api.gauge("queue.depth") is registry.gauge("queue.depth")
        assert api.histogram("tcp.rtt") is registry.histogram("tcp.rtt")
        assert api.journey_tracker() is tracker

    def test_deactivate_restores_null_path(self):
        api.activate(MetricRegistry(), JourneyTracker())
        api.deactivate()
        assert not api.is_active()
        assert api.counter("mac.drops") is NULL_COUNTER
        assert api.journey_tracker() is None

    def test_bound_instruments_outlive_deactivation(self):
        # Components bind once at construction; the instrument keeps
        # recording into its registry after the context is cleared.
        registry = MetricRegistry()
        api.activate(registry)
        counter = api.counter("mac.drops")
        api.deactivate()
        counter.inc(2)
        assert registry.counter("mac.drops").value == 2

    def test_journeys_without_metrics(self):
        tracker = JourneyTracker()
        api.activate(None, tracker)
        assert not api.is_active()  # metrics side stays on the null path
        assert api.counter("mac.drops") is NULL_COUNTER
        assert api.journey_tracker() is tracker


class TestObservabilityConfig:
    def test_defaults(self):
        config = ObservabilityConfig()
        assert config.metrics and config.journeys
        assert config.max_journeys == DEFAULT_MAX_JOURNEYS
        assert config.heartbeat_interval is None
        assert config.heartbeat_path is None

    @pytest.mark.parametrize("bad", [0, -1])
    def test_bad_max_journeys_rejected(self, bad):
        with pytest.raises(ValueError, match="max_journeys"):
            ObservabilityConfig(max_journeys=bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_heartbeat_interval_rejected(self, bad):
        with pytest.raises(ValueError, match="heartbeat_interval"):
            ObservabilityConfig(heartbeat_interval=bad)

    def test_all_disabled_rejected(self):
        with pytest.raises(ValueError, match="enables nothing"):
            ObservabilityConfig(metrics=False, journeys=False)

    def test_heartbeat_only_is_valid(self):
        config = ObservabilityConfig(
            metrics=False, journeys=False, heartbeat_interval=2.0
        )
        assert config.heartbeat_interval == 2.0
