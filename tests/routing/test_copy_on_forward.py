"""Copy on forward: a received frame is read-only above the MAC.

The channel freezes one copy of each transmission and every radio in
range, and every stack above it, reads that one frame.  A routing layer
that forwards a packet, or edits it, clones it first (``Packet._clone``).
These tests watch every frame a radio starts to receive and check that
nothing changes it afterwards, in short multi-hop trials of every
routing protocol, and that a RREQ flood copies once per re-flood.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.scenario import EblScenario
from repro.core.trials import TRIAL_1, TRIAL_3
from repro.des import Environment
from repro.faults.schedule import FAULT_PLAN_PRESETS
from repro.net.packet import Packet
from repro.routing.aodv import Aodv, AodvParams
from repro.transport.udp import UdpAgent, UdpSink

from tests.conftest import build_line_topology, start_all


def _fields(pkt: Packet) -> tuple:
    """Every field a layer could write on a frame, as plain values."""
    return (
        pkt.ptype,
        pkt.size,
        pkt.uid,
        pkt.timestamp,
        pkt.num_forwards,
        dataclasses.asdict(pkt.ip),
        dataclasses.asdict(pkt.mac),
        {name: dataclasses.asdict(h) for name, h in pkt.headers.items()},
        dict(pkt.meta),
    )


def watch_frames(phys) -> dict[int, tuple[Packet, tuple]]:
    """Snapshot each frame the first time one of ``phys`` starts to
    receive it; returns ``id(frame) -> (frame, snapshot)``."""
    seen: dict[int, tuple[Packet, tuple]] = {}
    for phy in phys:
        begin = phy.begin_receive

        def watched(pkt, *args, _begin=begin, **kwargs):
            if id(pkt) not in seen:
                seen[id(pkt)] = (pkt, _fields(pkt))
            return _begin(pkt, *args, **kwargs)

        phy.begin_receive = watched
    return seen


def changed_frames(seen: dict[int, tuple[Packet, tuple]]) -> list[Packet]:
    return [frame for frame, snapshot in seen.values() if _fields(frame) != snapshot]


def _dense(base, **overrides):
    return base.with_overrides(duration=5.0, **overrides)


#: Multi-hop trials, each with the forwards it must make for the check
#: to mean something: AODV's RREQ and RREP re-floods at 32 vehicles, its
#: data forwards under crashes, DSDV's and flooding's data forwards.
#: Static routing sends every packet straight to its destination here;
#: ``test_static_relay_leaves_frames_as_received`` covers its forward.
TRIALS = {
    "aodv": (_dense(TRIAL_1, platoon_size=16, tdma_num_slots=None), "control"),
    "dsdv": (
        TRIAL_1.with_overrides(
            routing="dsdv", platoon_size=16, tdma_num_slots=None, duration=12.0
        ),
        "data",
    ),
    "flooding": (_dense(TRIAL_3, routing="flooding", platoon_size=4), "data"),
    "static": (TRIAL_3.with_overrides(routing="static", duration=3.0), None),
    "aodv-arp": (
        _dense(TRIAL_1, platoon_size=16, tdma_num_slots=None, use_arp=True),
        "control",
    ),
    "aodv-heavy-faults": (
        _dense(TRIAL_3, platoon_size=8, fault_plan=FAULT_PLAN_PRESETS["heavy"]),
        "data",
    ),
}


def _forwards(scenario: EblScenario, kind: str) -> int:
    """Data forwards, or AODV's RREQ re-floods plus RREP forwards."""
    nodes = [vehicle.node for vehicle in scenario.vehicles]
    if kind == "data":
        return sum(node.packets_forwarded for node in nodes)
    return sum(
        node.routing.stats.rreq_forwarded + node.routing.stats.rrep_forwarded
        for node in nodes
    )


@pytest.mark.parametrize("name", sorted(TRIALS))
def test_trial_leaves_every_frame_as_sent(name):
    config, forwarded = TRIALS[name]
    scenario = EblScenario(config)
    seen = watch_frames(vehicle.node.phy for vehicle in scenario.vehicles)
    scenario.run()
    assert seen
    if forwarded is not None:
        assert _forwards(scenario, forwarded) > 0
    assert changed_frames(seen) == []


def test_static_relay_leaves_frames_as_received():
    env = Environment()
    _, nodes = build_line_topology(env, 3, spacing=200.0)
    nodes[0].routing.add_route(2, 1)
    seen = watch_frames(node.phy for node in nodes)
    start_all(nodes)
    src, sink = UdpAgent(nodes[0], 1), UdpSink(nodes[2], 1)
    src.connect(2, 1)

    def send(env):
        yield env.timeout(0.1)
        src.send(100)

    env.process(send(env))
    env.run(until=1.0)
    assert sink.packets == 1 and nodes[1].packets_forwarded == 1
    assert changed_frames(seen) == []


@pytest.mark.parametrize("k", [2, 3, 5])
def test_rreq_flood_clones_once_per_reflood(k, monkeypatch):
    """One RREQ flood over k nodes in range of each other: every node but
    the origin re-floods it once and hears the other re-floods as
    duplicates.  Only the re-floods copy the frame."""
    env = Environment()
    params = AodvParams(rreq_retries=0)
    _, nodes = build_line_topology(
        env, k, spacing=20.0, routing_factory=lambda node: Aodv(node, params)
    )
    receiving = []
    clones = []
    clone = Packet._clone

    def counting_clone(pkt):
        if receiving:
            clones.append(pkt.uid)
        return clone(pkt)

    monkeypatch.setattr(Packet, "_clone", counting_clone)
    for node in nodes:
        rx_end = node.mac.phy_rx_end

        def watched(pkt, _rx_end=rx_end):
            receiving.append(pkt)
            try:
                _rx_end(pkt)
            finally:
                receiving.pop()

        node.mac.phy_rx_end = watched
    start_all(nodes)
    src = UdpAgent(nodes[0], 1)
    src.connect(99, 1)  # nobody answers: the flood runs its course

    def send(env):
        yield env.timeout(0.1)
        src.send(100)

    env.process(send(env))
    env.run(until=2.0)
    refloods = sum(node.routing.stats.rreq_forwarded for node in nodes)
    accepted = sum(node.mac.stats.data_received for node in nodes)
    assert refloods == k - 1
    assert accepted > refloods  # the duplicates were heard
    assert len(clones) == refloods
