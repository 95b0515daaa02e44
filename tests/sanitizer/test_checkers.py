"""Protocol-monitor and route-table checker unit tests on stub state."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.faults.injector import FaultLogEntry
from repro.routing.aodv import AodvParams
from repro.routing.dsdv import DsdvParams
from repro.routing.table import RouteEntry, RouteTable
from repro.sanitizer.checkers import (
    DcfMonitor,
    QueueMonitor,
    TcpMonitor,
    TdmaMonitor,
    check_routing,
)


class _Env:
    def __init__(self, now=5.0):
        self.now = now


@pytest.fixture
def sink():
    violations = []
    return violations, violations.append


class TestQueueMonitor:
    def test_over_limit_flagged(self, sink):
        violations, emit = sink
        monitor = QueueMonitor(emit, _Env())
        monitor.on_occupancy(SimpleNamespace(limit=50), 51)
        assert [v.checker for v in violations] == ["queue-over-limit"]
        assert violations[0].layer == "net"
        assert "51" in violations[0].message

    def test_at_limit_clean(self, sink):
        violations, emit = sink
        monitor = QueueMonitor(emit, _Env())
        monitor.on_occupancy(SimpleNamespace(limit=50), 50)
        assert violations == []


class TestTcpMonitor:
    def agent(self, address=0, highest_ack=0):
        return SimpleNamespace(address=address, highest_ack=highest_ack)

    def test_ack_beyond_sent_flagged(self, sink):
        violations, emit = sink
        monitor = TcpMonitor(emit, _Env())
        agent = self.agent()
        monitor.on_segment_sent(agent, 5)
        monitor.on_ack(agent, 7)
        assert [v.checker for v in violations] == ["tcp-ack-unsent"]
        assert violations[0].node == 0

    def test_ack_within_sent_clean(self, sink):
        violations, emit = sink
        monitor = TcpMonitor(emit, _Env())
        agent = self.agent(highest_ack=4)
        for seqno in range(6):
            monitor.on_segment_sent(agent, seqno)
        monitor.on_ack(agent, 5)
        assert violations == []

    def test_highest_ack_regression_flagged(self, sink):
        violations, emit = sink
        monitor = TcpMonitor(emit, _Env())
        agent = self.agent(highest_ack=5)
        monitor.on_segment_sent(agent, 9)
        monitor.on_ack(agent, 5)
        agent.highest_ack = 3  # regression
        monitor.on_ack(agent, 4)
        assert "tcp-ack-regress" in [v.checker for v in violations]

    def test_go_back_n_rollback_not_flagged(self, sink):
        # Retransmitting after a timeout rewinds t_seqno, but the
        # high-water mark of *emitted* seqnos must survive it.
        violations, emit = sink
        monitor = TcpMonitor(emit, _Env())
        agent = self.agent(highest_ack=0)
        for seqno in range(10):
            monitor.on_segment_sent(agent, seqno)
        monitor.on_segment_sent(agent, 3)  # retransmission
        monitor.on_ack(agent, 9)
        assert violations == []

    def test_sink_regression_flagged(self, sink):
        violations, emit = sink
        monitor = TcpMonitor(emit, _Env())
        tcp_sink = SimpleNamespace(address=1, next_expected=7)
        monitor.on_sink(tcp_sink)
        tcp_sink.next_expected = 6
        monitor.on_sink(tcp_sink)
        assert [v.checker for v in violations] == ["tcp-sink-regress"]


def tdma_mac(slot_index=1, slot_duration=0.005, num_slots=4, guard=0.00003):
    return SimpleNamespace(
        address=1,
        slot_index=slot_index,
        slot_duration=slot_duration,
        frame_time=slot_duration * num_slots,
        params=SimpleNamespace(guard_time=guard),
    )


class TestTdmaMonitor:
    def test_on_boundary_clean(self, sink):
        violations, emit = sink
        monitor = TdmaMonitor(emit, _Env())
        mac = tdma_mac()
        # Slot 1 of frame 3: start = 3*frame + 1*slot.
        start = 3 * mac.frame_time + mac.slot_duration
        monitor.on_slot_tx(mac, start, 0.004)
        assert violations == []

    def test_off_boundary_misfire(self, sink):
        violations, emit = sink
        monitor = TdmaMonitor(emit, _Env())
        mac = tdma_mac()
        monitor.on_slot_tx(mac, mac.slot_duration + 0.001, 0.001)
        assert "tdma-slot-misfire" in [v.checker for v in violations]

    def test_overrun_flagged(self, sink):
        violations, emit = sink
        monitor = TdmaMonitor(emit, _Env())
        mac = tdma_mac()
        usable = mac.slot_duration - mac.params.guard_time
        monitor.on_slot_tx(mac, mac.slot_duration, usable + 0.001)
        assert "tdma-slot-overrun" in [v.checker for v in violations]

    def test_cross_slot_overlap_flagged(self, sink):
        violations, emit = sink
        monitor = TdmaMonitor(emit, _Env())
        first = tdma_mac(slot_index=1)
        second = tdma_mac(slot_index=2)
        second.address = 2
        start = first.slot_duration  # slot 1 boundary
        monitor.on_slot_tx(first, start, 0.004)
        # Slot 2's owner starts while slot 1's transmission is still
        # in the air (0.004 > 0.005 would be needed to clear... overlap
        # at slot-2 boundary: 0.010 > 0.005 + 0.004 is false -> craft
        # an overrunning first transmission instead).
        monitor.on_slot_tx(second, 2 * first.slot_duration, 0.004)
        assert violations == []  # cleanly separated
        long_monitor = TdmaMonitor(emit, _Env())
        long_monitor.on_slot_tx(first, start, 0.007)  # spills into slot 2
        long_monitor.on_slot_tx(second, 2 * first.slot_duration, 0.004)
        checkers = [v.checker for v in violations]
        assert "tdma-slot-overlap" in checkers

    def test_same_slot_index_sharing_not_flagged(self, sink):
        # With num_slots < vehicles two nodes legitimately share a slot
        # index; their on-air collision is physics, not a MAC bug.
        violations, emit = sink
        monitor = TdmaMonitor(emit, _Env())
        a = tdma_mac(slot_index=1)
        b = tdma_mac(slot_index=1)
        b.address = 5
        monitor.on_slot_tx(a, a.slot_duration, 0.004)
        monitor.on_slot_tx(b, b.slot_duration, 0.004)
        assert violations == []


class TestDcfMonitor:
    def mac(self, cw=31):
        return SimpleNamespace(address=2, _cw=cw)

    def test_nav_in_past_flagged(self, sink):
        violations, emit = sink
        monitor = DcfMonitor(emit, _Env(now=5.0))
        monitor.on_nav(self.mac(), 4.9)
        assert [v.checker for v in violations] == ["dcf-nav-negative"]

    def test_nav_in_future_clean(self, sink):
        violations, emit = sink
        monitor = DcfMonitor(emit, _Env(now=5.0))
        monitor.on_nav(self.mac(), 5.1)
        assert violations == []

    def test_backoff_negative_flagged(self, sink):
        violations, emit = sink
        monitor = DcfMonitor(emit, _Env())
        monitor.on_backoff(self.mac(), -1)
        assert [v.checker for v in violations] == ["dcf-backoff-range"]

    def test_backoff_beyond_cw_flagged(self, sink):
        violations, emit = sink
        monitor = DcfMonitor(emit, _Env())
        monitor.on_backoff(self.mac(cw=15), 16)
        assert [v.checker for v in violations] == ["dcf-backoff-range"]

    def test_backoff_in_window_clean(self, sink):
        violations, emit = sink
        monitor = DcfMonitor(emit, _Env())
        monitor.on_backoff(self.mac(cw=15), 15)
        monitor.on_backoff(self.mac(cw=15), 0)
        assert violations == []


class TestRouteTableChecks:
    """A usable route still points at a neighbour crashed at t=1."""

    def scenario(self, routing, params):
        table = RouteTable()
        table.upsert(RouteEntry(dst=4, next_hop=3, hop_count=2, seqno=6))
        node = SimpleNamespace(
            routing=SimpleNamespace(table=table, params=params),
            mac=SimpleNamespace(provides_link_feedback=True),
        )
        crash = FaultLogEntry(
            time=1.0, kind="node-crash", action="inject", target=(3,),
            severity=1.0,
        )
        return SimpleNamespace(
            env=_Env(now=30.0),
            config=SimpleNamespace(routing=routing),
            vehicles=[SimpleNamespace(address=0, node=node)],
            fault_injector=SimpleNamespace(log=[crash]),
        )

    def test_aodv_stale_route_flagged(self, sink):
        violations, emit = sink
        check_routing(self.scenario("aodv", AodvParams()), emit)
        assert [v.checker for v in violations] == ["aodv-stale-route"]

    def test_dsdv_table_gets_structural_checks_only(self, sink):
        # DsdvParams has no active_route_timeout to bound a horizon by.
        violations, emit = sink
        scenario = self.scenario("dsdv", DsdvParams())
        check_routing(scenario, emit)
        assert violations == []
        table = scenario.vehicles[0].node.routing.table
        table.get(4).hop_count = -1
        check_routing(scenario, emit)
        assert [v.checker for v in violations] == ["route-entry-range"]

    @pytest.mark.parametrize(
        "routing, params, expected",
        [
            ("aodv", AodvParams(), ["route-table-key", "aodv-stale-route"]),
            ("dsdv", DsdvParams(), ["route-table-key"]),
        ],
        ids=["aodv", "dsdv"],
    )
    def test_route_under_wrong_key_flagged(
        self, sink, routing, params, expected
    ):
        # The structural checks run on every table, under names that
        # belong to no one protocol.
        violations, emit = sink
        scenario = self.scenario(routing, params)
        entries = scenario.vehicles[0].node.routing.table._entries
        entries[5] = entries.pop(4)
        check_routing(scenario, emit)
        assert [v.checker for v in violations] == expected
