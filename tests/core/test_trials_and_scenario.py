"""Tests for trial configuration and scenario construction."""

import pytest

from repro.core.scenario import EblScenario, ScenarioGeometry
from repro.core.trials import TRIAL_1, TRIAL_2, TRIAL_3, TrialConfig
from repro.mac.dcf import Dcf80211Mac
from repro.mac.tdma import TdmaMac
from repro.mobility.kinematics import braking_distance
from repro.net.queues import DropTailQueue, PriQueue, REDQueue
from repro.routing.aodv import Aodv
from repro.routing.dsdv import Dsdv


# -- configs ----------------------------------------------------------------


def test_preset_trials_match_paper_parameters():
    assert TRIAL_1.packet_size == 1000 and TRIAL_1.mac_type == "tdma"
    assert TRIAL_2.packet_size == 500 and TRIAL_2.mac_type == "tdma"
    assert TRIAL_3.packet_size == 1000 and TRIAL_3.mac_type == "802.11"
    for trial in (TRIAL_1, TRIAL_2, TRIAL_3):
        assert trial.routing == "aodv"
        assert trial.queue_type == "pri"
        assert trial.speed_mps == pytest.approx(22.35, abs=0.05)
        assert trial.spacing == 25.0
        assert trial.platoon_size == 3


def test_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(packet_size=0)
    with pytest.raises(ValueError):
        TrialConfig(mac_type="wimax")
    with pytest.raises(ValueError):
        TrialConfig(queue_type="magic")
    with pytest.raises(ValueError):
        TrialConfig(routing="ospf")
    with pytest.raises(ValueError):
        TrialConfig(platoon_size=1)
    with pytest.raises(ValueError):
        TrialConfig(duration=0)
    with pytest.raises(ValueError):
        TrialConfig(throughput_interval=0)
    with pytest.raises(ValueError):
        TrialConfig(throughput_interval=-0.5)
    with pytest.raises(ValueError):
        TrialConfig(queue_limit=0)
    with pytest.raises(ValueError):
        TrialConfig(tcp_window=0)
    for field in ("duration", "speed_mps", "throughput_interval"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=field):
                TrialConfig(**{field: bad})


def test_with_overrides_returns_new_config():
    derived = TRIAL_1.with_overrides(packet_size=750)
    assert derived.packet_size == 750
    assert TRIAL_1.packet_size == 1000
    assert derived.mac_type == TRIAL_1.mac_type


def test_total_vehicles():
    assert TRIAL_1.total_vehicles == 6
    assert TrialConfig(platoon_size=5).total_vehicles == 10


# -- scenario construction ----------------------------------------------------------


def test_scenario_builds_six_vehicles():
    scenario = EblScenario(TRIAL_1.with_overrides(enable_trace=False))
    assert len(scenario.vehicles) == 6
    assert [v.address for v in scenario.vehicles] == list(range(6))


def test_scenario_macs_match_config():
    s1 = EblScenario(TRIAL_1.with_overrides(enable_trace=False))
    assert all(isinstance(v.node.mac, TdmaMac) for v in s1.vehicles)
    s3 = EblScenario(TRIAL_3.with_overrides(enable_trace=False))
    assert all(isinstance(v.node.mac, Dcf80211Mac) for v in s3.vehicles)


def test_scenario_tdma_slots_from_config():
    scenario = EblScenario(
        TRIAL_1.with_overrides(enable_trace=False, tdma_num_slots=24)
    )
    assert scenario.vehicles[0].node.mac.params.num_slots == 24


def test_scenario_tdma_slots_default_to_node_count_when_none():
    scenario = EblScenario(
        TRIAL_1.with_overrides(enable_trace=False, tdma_num_slots=None)
    )
    assert scenario.vehicles[0].node.mac.params.num_slots == 6


def test_scenario_queue_types():
    for qtype, cls in (("pri", PriQueue), ("red", REDQueue),
                       ("droptail", DropTailQueue)):
        scenario = EblScenario(
            TRIAL_1.with_overrides(enable_trace=False, queue_type=qtype)
        )
        assert type(scenario.vehicles[0].node.ifq) is cls


def test_scenario_routing_types():
    aodv = EblScenario(TRIAL_1.with_overrides(enable_trace=False))
    assert isinstance(aodv.vehicles[0].node.routing, Aodv)
    dsdv = EblScenario(
        TRIAL_1.with_overrides(enable_trace=False, routing="dsdv")
    )
    assert isinstance(dsdv.vehicles[0].node.routing, Dsdv)


def test_initial_geometry_matches_paper():
    """Spacing 25 m within platoons; platoon 2 at the intersection."""
    scenario = EblScenario(TRIAL_1.with_overrides(enable_trace=False))
    p1 = scenario.platoon1.positions(0.0)
    p2 = scenario.platoon2.positions(0.0)
    # Platoon 1 southbound column, 25 m apart.
    assert p1[0][1] - p1[1][1] == pytest.approx(25.0)
    assert p1[1][1] - p1[2][1] == pytest.approx(25.0)
    # Platoon 2 stopped at the intersection heading east.
    assert p2[0] == pytest.approx((-15.0, 0.0))
    assert p2[1][0] == pytest.approx(-40.0)


def test_timeline_arrival_and_brake_onset():
    config = TRIAL_1.with_overrides(enable_trace=False)
    scenario = EblScenario(config)
    geo = scenario.geometry
    assert scenario.arrival_time == pytest.approx(
        geo.approach_distance / config.speed_mps
    )
    expected_brake_dist = braking_distance(
        config.speed_mps, config.deceleration
    )
    assert scenario.brake_onset_time == pytest.approx(
        (geo.approach_distance - expected_brake_dist) / config.speed_mps
    )
    assert scenario.brake_onset_time < scenario.arrival_time
    assert scenario.departure_time == scenario.arrival_time


def test_platoon1_reaches_stop_line():
    scenario = EblScenario(TRIAL_1.with_overrides(enable_trace=False))
    at = scenario.arrival_time
    lead = scenario.platoon1.positions(at + 1.0)[0]
    assert lead == pytest.approx((0.0, -scenario.geometry.stop_offset))


def test_platoon2_departs_after_arrival():
    scenario = EblScenario(TRIAL_1.with_overrides(enable_trace=False))
    before = scenario.platoon2.positions(scenario.departure_time - 1.0)[0]
    after = scenario.platoon2.positions(scenario.departure_time + 5.0)[0]
    assert before == pytest.approx((-15.0, 0.0))
    assert after[0] > before[0]  # moving east


def test_braking_windows_gate_communication():
    scenario = EblScenario(TRIAL_1.with_overrides(enable_trace=False))
    lead1 = scenario.platoon1_vehicles[0]
    lead2 = scenario.platoon2_vehicles[0]
    assert lead2.is_braking_at(0.0)
    assert not lead2.is_braking_at(scenario.departure_time + 0.1)
    assert not lead1.is_braking_at(scenario.brake_onset_time - 0.1)
    assert lead1.is_braking_at(scenario.brake_onset_time + 0.1)


def test_geometry_is_configurable():
    geometry = ScenarioGeometry(approach_distance=100.0)
    scenario = EblScenario(
        TRIAL_1.with_overrides(enable_trace=False), geometry=geometry
    )
    config = TRIAL_1
    assert scenario.arrival_time == pytest.approx(100.0 / config.speed_mps)


def test_scenario_without_trace_has_no_tracer():
    scenario = EblScenario(TRIAL_1.with_overrides(enable_trace=False))
    assert scenario.tracer is None
    traced = EblScenario(TRIAL_1)
    assert traced.tracer is not None


def test_scenario_edca_mac():
    from repro.mac.edca import EdcaMac

    scenario = EblScenario(
        TRIAL_3.with_overrides(enable_trace=False, mac_type="edca")
    )
    assert all(isinstance(v.node.mac, EdcaMac) for v in scenario.vehicles)


def test_edca_trial_runs_end_to_end():
    from repro.core.analysis import analyze_trial
    from repro.core.runner import run_trial

    analysis = analyze_trial(
        run_trial(
            TRIAL_3.with_overrides(
                duration=15.0, mac_type="edca", enable_trace=False
            )
        )
    )
    assert analysis.throughput.average > 0.3
    assert analysis.safety.gap_fraction_consumed < 0.05


def test_trial_digest_does_not_depend_on_earlier_packets():
    """Each scenario starts packet uids from zero, so the same trial run
    twice in one process gives one trace digest, whatever was built in
    between."""
    from repro.core.runner import run_trial
    from repro.net.headers import IpHeader
    from repro.net.packet import Packet, PacketType
    from repro.perf.equivalence import trace_digest

    config = TRIAL_3.with_overrides(duration=3.0, enable_trace=True)
    first = run_trial(config)
    unrelated = [
        Packet(ptype=PacketType.CBR, size=100, ip=IpHeader(src=0, dst=1))
        for _ in range(17)
    ]
    assert unrelated[0].uid > 0
    second = run_trial(config)
    assert trace_digest(second) == trace_digest(first)
    assert min(rec.uid for rec in second.tracer.records) == 0


def test_scenarios_cannot_leak_probes_into_each_other():
    """Each scenario's probes live on its own environment: a plain
    scenario built right after a fully instrumented one binds none of its
    instruments and runs exactly as it does with nothing built before."""
    from repro.core.runner import harvest, run_trial
    from repro.des.core import Environment
    from repro.obs import ObservabilityConfig
    from repro.obs.probes import NULL_MONITOR, NULL_PROBES
    from repro.obs.registry import NULL_COUNTER
    from repro.perf.equivalence import trace_digest
    from repro.sanitizer import SanitizerConfig

    config = TRIAL_3.with_overrides(duration=3.0, enable_trace=True)
    alone = trace_digest(run_trial(config))
    instrumented = EblScenario(
        config.with_overrides(
            observability=ObservabilityConfig(tracing=True),
            sanitize=SanitizerConfig(),
        )
    )
    assert len(instrumented.vehicles[0].node._sinks) == 4
    plain = EblScenario(config)
    assert plain.channel._ledger is None
    assert plain.channel._obs_tx is NULL_COUNTER
    for vehicle in plain.vehicles:
        node = vehicle.node
        assert node._sinks == (plain.tracer,)
        assert node.phy._ledger is None
        assert node.phy._obs_sent is NULL_COUNTER
        assert node.ifq._obs_enq is NULL_COUNTER
        assert node.ifq._san is NULL_MONITOR
        assert node.mac.journeys is None and node.mac._ledger is None
        assert node.mac._obs_rx is NULL_COUNTER
        assert node.mac._san is NULL_MONITOR
        assert node.routing._obs_rreq is NULL_COUNTER
        for agent in node.agents.values():
            assert getattr(agent, "_san", NULL_MONITOR) is NULL_MONITOR
    plain.run()
    assert trace_digest(harvest(plain)) == alone
    assert Environment().probes is NULL_PROBES
