"""Tests for the probes' instrument binding and ObservabilityConfig."""

from __future__ import annotations

import pytest

from repro.des.core import Environment
from repro.obs import Observability, ObservabilityConfig
from repro.obs.journey import DEFAULT_MAX_JOURNEYS
from repro.obs.probes import NULL_PROBES, Probes
from repro.obs.registry import NULL_COUNTER, NULL_HISTOGRAM


def observability(**config) -> Observability:
    return Observability(ObservabilityConfig(**config), Environment())


class TestApiBinding:
    def test_inactive_proxies_return_null_instruments(self):
        assert NULL_PROBES.registry is None
        assert NULL_PROBES.counter("mac.drops") is NULL_COUNTER
        assert NULL_PROBES.histogram("tcp.rtt") is NULL_HISTOGRAM
        assert NULL_PROBES.journeys is None
        assert NULL_PROBES.packet_sinks == ()

    def test_active_proxies_return_live_instruments(self):
        runtime = observability(tracing=True)
        probes = Probes(runtime)
        registry = runtime.registry
        assert probes.registry is registry
        assert probes.counter("mac.drops") is registry.counter("mac.drops")
        assert probes.histogram("tcp.rtt") is registry.histogram("tcp.rtt")
        assert probes.journeys is runtime.journeys
        assert probes.packet_sinks == (runtime.journeys, runtime.spans)

    def test_journeys_without_metrics(self):
        runtime = observability(metrics=False)
        probes = Probes(runtime)
        assert probes.counter("mac.drops") is NULL_COUNTER
        assert probes.journeys is runtime.journeys
        assert probes.packet_sinks == (runtime.journeys,)


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
