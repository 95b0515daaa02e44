"""Tests for the AODV routing protocol."""

import pytest

from repro.des import Environment
from repro.net.addresses import BROADCAST
from repro.routing.aodv import Aodv, AodvParams
from repro.routing.aodv.messages import make_hello, make_rerr, make_rreq, make_rrep
from repro.trace.writer import Tracer
from repro.transport.udp import UdpAgent, UdpSink

from tests.conftest import build_line_topology, start_all


def aodv_factory(params=None):
    return lambda node: Aodv(node, params)


@pytest.fixture
def env():
    return Environment()


def send_after(env, agent, delay=0.1, payload=100, count=1, gap=0.05):
    def proc(env):
        yield env.timeout(delay)
        for _ in range(count):
            agent.send(payload)
            yield env.timeout(gap)

    env.process(proc(env))


# -- message constructors --------------------------------------------------------


def test_make_rreq_fields():
    pkt = make_rreq(
        src=1, rreq_id=7, origin_seqno=3, dst=5, dst_seqno=0,
        unknown_seqno=True, ttl=5,
    )
    header = pkt.header("aodv")
    assert pkt.ip.dst == BROADCAST
    assert pkt.ip.ttl == 5
    assert header.kind == "rreq"
    assert header.rreq_id == 7
    assert header.origin == 1
    assert header.dst == 5
    assert header.unknown_seqno


def test_make_rrep_fields():
    pkt = make_rrep(
        src=5, origin=1, dst=5, dst_seqno=9, hop_count=0, lifetime=10.0, ttl=30
    )
    header = pkt.header("aodv")
    assert pkt.ip.dst == 1
    assert header.kind == "rrep"
    assert header.dst_seqno == 9
    assert header.lifetime == 10.0


def test_make_rerr_requires_destinations():
    with pytest.raises(ValueError):
        make_rerr(src=1, unreachable=[])
    pkt = make_rerr(src=1, unreachable=[(5, 3)])
    assert pkt.header("aodv").unreachable == [(5, 3)]


def test_make_hello_is_one_hop_broadcast():
    pkt = make_hello(src=2, seqno=4, lifetime=2.0)
    assert pkt.ip.ttl == 1
    assert pkt.ip.dst == BROADCAST
    assert pkt.header("aodv").kind == "hello"


# -- single-hop discovery ----------------------------------------------------------


def test_single_hop_discovery_and_delivery(env):
    _, nodes = build_line_topology(
        env, 2, spacing=100.0, routing_factory=aodv_factory()
    )
    start_all(nodes)
    src, sink = UdpAgent(nodes[0], 1), UdpSink(nodes[1], 1)
    src.connect(1, 1)
    send_after(env, src)
    env.run(until=2.0)
    assert sink.packets == 1
    aodv0 = nodes[0].routing
    assert aodv0.stats.discoveries == 1
    assert aodv0.stats.rreq_sent >= 1
    route = aodv0.table.get(1)
    assert route is not None and route.next_hop == 1 and route.hop_count == 1


def test_destination_learns_reverse_route(env):
    _, nodes = build_line_topology(
        env, 2, spacing=100.0, routing_factory=aodv_factory()
    )
    start_all(nodes)
    src, sink = UdpAgent(nodes[0], 1), UdpSink(nodes[1], 1)
    src.connect(1, 1)
    send_after(env, src)
    env.run(until=2.0)
    reverse = nodes[1].routing.table.get(0)
    assert reverse is not None
    assert reverse.next_hop == 0


def test_route_reused_without_second_discovery(env):
    _, nodes = build_line_topology(
        env, 2, spacing=100.0, routing_factory=aodv_factory()
    )
    start_all(nodes)
    src, sink = UdpAgent(nodes[0], 1), UdpSink(nodes[1], 1)
    src.connect(1, 1)
    send_after(env, src, count=5)
    env.run(until=3.0)
    assert sink.packets == 5
    assert nodes[0].routing.stats.discoveries == 1


# -- multi-hop discovery -------------------------------------------------------------


def test_multihop_discovery_and_forwarding(env):
    _, nodes = build_line_topology(
        env, 4, spacing=200.0, routing_factory=aodv_factory()
    )
    start_all(nodes)
    src, sink = UdpAgent(nodes[0], 1), UdpSink(nodes[3], 1)
    src.connect(3, 1)
    send_after(env, src, count=3)
    env.run(until=5.0)
    assert sink.packets == 3
    route = nodes[0].routing.table.get(3)
    assert route.hop_count == 3
    assert route.next_hop == 1
    # Intermediate nodes forwarded data.
    assert nodes[1].packets_forwarded >= 3
    assert nodes[2].packets_forwarded >= 3


def test_intermediate_node_learns_both_directions(env):
    _, nodes = build_line_topology(
        env, 3, spacing=200.0, routing_factory=aodv_factory()
    )
    start_all(nodes)
    src, sink = UdpAgent(nodes[0], 1), UdpSink(nodes[2], 1)
    src.connect(2, 1)
    send_after(env, src)
    env.run(until=3.0)
    middle = nodes[1].routing.table
    assert middle.get(0) is not None
    assert middle.get(2) is not None


def test_rreq_duplicate_suppression(env):
    _, nodes = build_line_topology(
        env, 3, spacing=100.0, routing_factory=aodv_factory()
    )
    start_all(nodes)
    src, sink = UdpAgent(nodes[0], 1), UdpSink(nodes[2], 1)
    src.connect(2, 1)
    send_after(env, src)
    env.run(until=3.0)
    # All three nodes are in range of each other: node 1 hears node 0's
    # RREQ once directly; any echo of the same (origin, id) is dropped.
    assert sink.packets == 1


def test_unreachable_destination_fails_discovery(env):
    params = AodvParams(
        rreq_retries=1, node_traversal_time=0.01, net_diameter=5
    )
    _, nodes = build_line_topology(
        env, 1, routing_factory=aodv_factory(params)
    )
    start_all(nodes)
    src = UdpAgent(nodes[0], 1)
    src.connect(99, 1)  # nobody home
    send_after(env, src)
    env.run(until=10.0)
    aodv = nodes[0].routing
    assert aodv.stats.discovery_failures == 1
    assert nodes[0].packets_dropped >= 1
    assert aodv.table.lookup(99, env.now) is None


def test_expanding_ring_escalates_ttl(env):
    params = AodvParams(
        rreq_retries=2, node_traversal_time=0.01,
        ttl_start=1, ttl_increment=2, ttl_threshold=5, net_diameter=10,
    )
    _, nodes = build_line_topology(
        env, 1, routing_factory=aodv_factory(params)
    )
    start_all(nodes)
    src = UdpAgent(nodes[0], 1)
    src.connect(99, 1)
    send_after(env, src)
    env.run(until=10.0)
    # TTL 1, then 3, then 5 (three RREQs total for retries=2).
    assert nodes[0].routing.stats.rreq_sent == 3


def test_packets_buffered_during_discovery_all_delivered(env):
    _, nodes = build_line_topology(
        env, 2, spacing=100.0, routing_factory=aodv_factory()
    )
    start_all(nodes)
    src, sink = UdpAgent(nodes[0], 1), UdpSink(nodes[1], 1)
    src.connect(1, 1)

    def burst(env):
        yield env.timeout(0.1)
        for _ in range(5):
            src.send(100)  # all before discovery completes

    env.process(burst(env))
    env.run(until=3.0)
    assert sink.packets == 5


def test_buffer_overflow_drops_excess(env):
    params = AodvParams(buffer_size=3, rreq_retries=0,
                        node_traversal_time=0.5, net_diameter=35)
    _, nodes = build_line_topology(
        env, 1, routing_factory=aodv_factory(params)
    )
    start_all(nodes)
    src = UdpAgent(nodes[0], 1)
    src.connect(99, 1)

    def burst(env):
        yield env.timeout(0.1)
        for _ in range(6):
            src.send(100)

    env.process(burst(env))
    env.run(until=1.0)
    assert nodes[0].routing.stats.buffer_drops >= 3


# -- link failure and RERR ---------------------------------------------------------------


def test_link_failure_invalidates_routes_and_sends_rerr(env):
    _, nodes = build_line_topology(
        env, 2, spacing=100.0, routing_factory=aodv_factory()
    )
    start_all(nodes)
    src, sink = UdpAgent(nodes[0], 1), UdpSink(nodes[1], 1)
    src.connect(1, 1)
    send_after(env, src)
    env.run(until=2.0)
    assert sink.packets == 1
    # Sever the link: move node 1 out of range.
    nodes[1].mobility.x = 10_000.0
    send_after(env, src, delay=0.0, count=1)
    env.run(until=8.0)
    aodv0 = nodes[0].routing
    entry = aodv0.table.get(1)
    assert entry is not None and not entry.valid
    assert aodv0.stats.rerr_sent >= 1


def test_rerr_propagates_to_upstream_node(env):
    _, nodes = build_line_topology(
        env, 3, spacing=200.0, routing_factory=aodv_factory()
    )
    start_all(nodes)
    src, sink = UdpAgent(nodes[0], 1), UdpSink(nodes[2], 1)
    src.connect(2, 1)
    send_after(env, src)
    env.run(until=3.0)
    assert sink.packets == 1
    # Break the 1 -> 2 link.
    nodes[2].mobility.x = 10_000.0
    send_after(env, src, delay=0.0, count=2, gap=0.5)
    env.run(until=15.0)
    # Node 0's route through node 1 must eventually be invalidated.
    entry = nodes[0].routing.table.get(2)
    assert entry is None or not entry.valid


def test_route_rediscovery_after_failure(env):
    _, nodes = build_line_topology(
        env, 2, spacing=100.0, routing_factory=aodv_factory()
    )
    start_all(nodes)
    src, sink = UdpAgent(nodes[0], 1), UdpSink(nodes[1], 1)
    src.connect(1, 1)
    send_after(env, src)
    env.run(until=2.0)
    nodes[1].mobility.x = 10_000.0
    send_after(env, src, delay=0.0)
    env.run(until=10.0)
    # Bring the node back and send again: a fresh discovery must succeed.
    nodes[1].mobility.x = 100.0
    before = sink.packets
    send_after(env, src, delay=0.0, count=1)
    env.run(until=20.0)
    assert sink.packets > before


# -- HELLO beaconing -------------------------------------------------------------------------


def test_hello_beacons_create_neighbour_routes(env):
    params = AodvParams(hello_interval=0.5)
    _, nodes = build_line_topology(
        env, 2, spacing=100.0, routing_factory=aodv_factory(params)
    )
    start_all(nodes)
    env.run(until=2.0)
    assert nodes[0].routing.table.get(1) is not None
    assert nodes[1].routing.table.get(0) is not None
    assert nodes[0].routing.stats.hello_sent >= 3


def test_hello_loss_invalidates_neighbour(env):
    params = AodvParams(hello_interval=0.5, allowed_hello_loss=2)
    _, nodes = build_line_topology(
        env, 2, spacing=100.0, routing_factory=aodv_factory(params)
    )
    start_all(nodes)
    env.run(until=2.0)
    assert nodes[0].routing.table.get(1) is not None
    nodes[1].mobility.x = 10_000.0  # silence the neighbour
    env.run(until=8.0)
    entry = nodes[0].routing.table.get(1)
    assert entry is None or not entry.is_usable(env.now)


# -- sequence-number rules ----------------------------------------------------------------------


def test_fresher_seqno_replaces_route(env):
    _, nodes = build_line_topology(
        env, 1, routing_factory=aodv_factory()
    )
    aodv = nodes[0].routing
    aodv._update_route(dst=5, next_hop=2, hop_count=3, seqno=4,
                       valid_seqno=True, lifetime=100.0)
    aodv._update_route(dst=5, next_hop=7, hop_count=9, seqno=6,
                       valid_seqno=True, lifetime=100.0)
    entry = aodv.table.get(5)
    assert entry.next_hop == 7
    assert entry.seqno == 6


def test_stale_seqno_never_replaces_route(env):
    _, nodes = build_line_topology(env, 1, routing_factory=aodv_factory())
    aodv = nodes[0].routing
    aodv._update_route(dst=5, next_hop=2, hop_count=3, seqno=6,
                       valid_seqno=True, lifetime=100.0)
    aodv._update_route(dst=5, next_hop=7, hop_count=1, seqno=4,
                       valid_seqno=True, lifetime=100.0)
    assert aodv.table.get(5).next_hop == 2


def test_stale_rrep_for_a_broken_route_drops_the_buffered_packets(env):
    # Breaking a route bumps its seqno, so an RREP with the old seqno
    # cannot revive it: the discovery ends with no route, and its
    # buffered packet must leave a drop record, not vanish.
    tracer = Tracer()
    _, nodes = build_line_topology(
        env, 2, routing_factory=aodv_factory(), tracer=tracer
    )
    aodv = nodes[0].routing
    aodv._update_route(dst=5, next_hop=1, hop_count=2, seqno=6,
                       valid_seqno=True, lifetime=100.0)
    aodv.table.invalidate(5, env.now)
    src = UdpAgent(nodes[0], 1)
    src.connect(5, 1)
    src.send(100)
    assert 5 in aodv._discoveries
    rrep = make_rrep(src=5, origin=0, dst=5, dst_seqno=6, hop_count=1,
                     lifetime=10.0, ttl=5)
    rrep.mac.src = 1
    aodv.handle_packet(rrep)
    assert 5 not in aodv._discoveries
    drops = [(rec.event, rec.layer) for rec in tracer.records
             if rec.ptype == "cbr" and rec.event == "D"]
    assert drops == [("D", "NRTE")]
    assert nodes[0].packets_dropped == 1


def test_equal_seqno_shorter_path_wins(env):
    _, nodes = build_line_topology(env, 1, routing_factory=aodv_factory())
    aodv = nodes[0].routing
    aodv._update_route(dst=5, next_hop=2, hop_count=3, seqno=6,
                       valid_seqno=True, lifetime=100.0)
    aodv._update_route(dst=5, next_hop=7, hop_count=2, seqno=6,
                       valid_seqno=True, lifetime=100.0)
    assert aodv.table.get(5).next_hop == 7
