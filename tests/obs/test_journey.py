"""Tests for packet-journey tracking and dwell-time breakdowns."""

from __future__ import annotations

import pytest

from repro.net.headers import IpHeader, MacHeader
from repro.net.packet import Packet, PacketType
from repro.obs import api
from repro.obs.journey import (
    DEFAULT_MAX_JOURNEYS,
    Hop,
    Journey,
    JourneyTracker,
    aggregate_dwell,
    dwell_breakdown,
)


def data_packet(src=0, dst=1, size=1000, ptype=PacketType.CBR):
    return Packet(
        ptype=ptype,
        size=size,
        ip=IpHeader(src=src, dst=dst),
        mac=MacHeader(src=src, dst=dst),
    )


def make_journey(hops, src=0, dst=1, ptype="tcp"):
    journey = Journey(uid=1, ptype=ptype, src=src, dst=dst, size=1000)
    journey.hops.extend(Hop(*hop) for hop in hops)
    return journey


class TestJourney:
    def test_delivery_detection(self):
        journey = make_journey(
            [
                ("s", "AGT", 0, 0.0),
                ("s", "RTR", 0, 0.1),
                ("s", "MAC", 0, 0.2),
                ("r", "MAC", 1, 0.3),
                ("r", "AGT", 1, 0.3),
            ]
        )
        assert journey.delivered
        assert not journey.dropped
        assert journey.end_to_end_delay() == pytest.approx(0.3)

    def test_reception_at_wrong_node_is_not_delivery(self):
        # An overhearing third node's agent reception must not count.
        journey = make_journey([("s", "AGT", 0, 0.0), ("r", "AGT", 2, 0.5)])
        assert not journey.delivered
        assert journey.end_to_end_delay() is None

    def test_drop_and_retry_counts(self):
        journey = make_journey(
            [
                ("s", "AGT", 0, 0.0),
                ("x", "MAC", 0, 0.1),
                ("x", "MAC", 0, 0.2),
                ("D", "IFQ", 0, 0.3),
            ]
        )
        assert journey.dropped
        assert journey.retries == 2

    def test_to_dict_round_trips_hops(self):
        journey = make_journey([("s", "AGT", 0, 0.0), ("r", "AGT", 1, 0.4)])
        data = journey.to_dict()
        assert data["delivered"] is True
        assert data["delay"] == pytest.approx(0.4)
        assert data["hops"][0] == {
            "event": "s", "layer": "AGT", "node": 0, "t": 0.0,
        }


class TestDwellBreakdown:
    def test_segments_charged_to_stack_layers(self):
        journey = make_journey(
            [
                ("s", "AGT", 0, 0.00),   # -> routing until RTR send
                ("s", "RTR", 0, 0.02),   # -> mac until MAC send
                ("s", "MAC", 0, 0.10),   # -> air until receiver MAC
                ("r", "MAC", 1, 0.11),   # -> stack until agent
                ("r", "AGT", 1, 0.115),
            ]
        )
        dwell = dwell_breakdown(journey)
        assert dwell["routing"] == pytest.approx(0.02)
        assert dwell["mac"] == pytest.approx(0.08)
        assert dwell["air"] == pytest.approx(0.01)
        assert dwell["stack"] == pytest.approx(0.005)
        assert sum(dwell.values()) == pytest.approx(
            journey.end_to_end_delay()
        )

    def test_retry_time_lands_in_mac(self):
        journey = make_journey(
            [
                ("s", "AGT", 0, 0.0),
                ("s", "RTR", 0, 0.0),
                ("x", "MAC", 0, 0.1),
                ("x", "MAC", 0, 0.3),
                ("s", "MAC", 0, 0.5),
                ("r", "MAC", 1, 0.5),
                ("r", "AGT", 1, 0.5),
            ]
        )
        dwell = dwell_breakdown(journey)
        assert dwell["mac"] == pytest.approx(0.5)

    def test_hops_after_delivery_are_excluded(self):
        # The DCF sender's own "s MAC" confirmation fires after the ACK —
        # i.e. after the receiver already delivered.  That tail segment
        # must not be charged to any layer.
        journey = make_journey(
            [
                ("s", "AGT", 0, 0.0),
                ("s", "RTR", 0, 0.1),
                ("r", "MAC", 1, 0.2),
                ("r", "AGT", 1, 0.2),
                ("s", "MAC", 0, 0.9),  # post-delivery ACK-confirmed mark
            ]
        )
        dwell = dwell_breakdown(journey)
        assert sum(dwell.values()) == pytest.approx(0.2)

    def test_undelivered_journey_has_no_breakdown(self):
        journey = make_journey([("s", "AGT", 0, 0.0), ("D", "IFQ", 0, 0.1)])
        assert dwell_breakdown(journey) == {}

    def test_aggregate_skips_control_traffic(self):
        data = make_journey(
            [("s", "AGT", 0, 0.0), ("r", "AGT", 1, 0.4)], ptype="tcp"
        )
        control = make_journey(
            [("s", "AGT", 0, 0.0), ("r", "AGT", 1, 0.1)], ptype="aodv"
        )
        out = aggregate_dwell(iter([data, control]))
        assert out["routing"]["count"] == 1.0
        assert out["routing"]["total"] == pytest.approx(0.4)
        assert out["routing"]["mean"] == pytest.approx(0.4)
        assert out["routing"]["max"] == pytest.approx(0.4)


class TestJourneyTracker:
    def test_record_starts_and_appends(self):
        tracker = JourneyTracker()
        pkt = data_packet(ptype=PacketType.TCP)
        tracker.record("s", 0.0, 0, "AGT", pkt)
        tracker.record("r", 0.4, 1, "AGT", pkt)
        journey = tracker.journey(pkt.uid)
        assert journey is not None
        assert journey.ptype == "tcp"
        assert journey.src == 0 and journey.dst == 1
        assert [hop.event for hop in journey.hops] == ["s", "r"]
        assert journey.delivered

    def test_channel_copies_share_one_journey(self):
        # Receivers see copies that keep the sender's uid: the frame the
        # channel shares per transmission, which the stack above each
        # receiver reads, and the copy a routing layer makes to forward
        # it, both made by Packet._clone.  All receiver-side hops must
        # land on the sender's journey.
        tracker = JourneyTracker()
        pkt = data_packet()
        tracker.record("s", 0.0, 0, "MAC", pkt)
        clone = pkt._clone()
        tracker.record("r", 0.1, 1, "MAC", clone)
        assert len(tracker) == 1
        assert len(tracker.journey(pkt.uid).hops) == 2

    def test_cap_counts_overflow_but_keeps_existing(self):
        tracker = JourneyTracker(max_journeys=1)
        first = data_packet()
        second = data_packet()
        tracker.record("s", 0.0, 0, "AGT", first)
        tracker.record("s", 0.1, 0, "AGT", second)  # over cap: not started
        tracker.record("r", 0.2, 1, "AGT", first)   # existing: still appends
        assert len(tracker) == 1
        assert tracker.overflow == 1
        assert len(tracker.journey(first.uid).hops) == 2
        assert tracker.journey(second.uid) is None

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            JourneyTracker(max_journeys=0)

    def test_default_cap(self):
        assert JourneyTracker().max_journeys == DEFAULT_MAX_JOURNEYS

    def test_find_filters(self):
        tracker = JourneyTracker()
        a = data_packet(src=0, dst=1, ptype=PacketType.TCP)
        b = data_packet(src=2, dst=3, ptype=PacketType.CBR)
        tracker.record("s", 0.0, 0, "AGT", a)
        tracker.record("r", 0.1, 1, "AGT", a)
        tracker.record("s", 0.0, 2, "AGT", b)
        assert [j.uid for j in tracker.find(ptype="tcp")] == [a.uid]
        assert [j.uid for j in tracker.find(src=2)] == [b.uid]
        assert [j.uid for j in tracker.find(delivered=True)] == [a.uid]
        assert tracker.find(dst=9) == []

    def test_slowest_orders_by_delay(self):
        tracker = JourneyTracker()
        fast = data_packet()
        slow = data_packet()
        tracker.record("s", 0.0, 0, "AGT", fast)
        tracker.record("r", 0.1, 1, "AGT", fast)
        tracker.record("s", 0.0, 0, "AGT", slow)
        tracker.record("r", 0.9, 1, "AGT", slow)
        assert [j.uid for j in tracker.slowest(2)] == [slow.uid, fast.uid]


class TestJourneyOrderingUnderDcfRetransmission:
    """Journey hops must stay causally ordered through DCF retries."""

    def _run_lossy_pair(self, env, tracker):
        """Two DCF MACs; the receiver's first ACK is suppressed so the
        sender retries a frame that was in fact delivered."""
        from tests.mac.test_dcf import build_mac, collect, data_packet as dp
        from repro.des.events import DeferredCall
        from repro.net.channel import WirelessChannel

        channel = WirelessChannel(env)
        a = build_mac(env, channel, 0, 0.0)
        b = build_mac(env, channel, 1, 100.0)
        got = collect(b)
        # A full Node wires trace_callback into the journey tracker;
        # these bare MACs need the same wiring for s/r MAC hops.
        for mac in (a, b):
            mac.trace_callback = (
                lambda event, pkt, layer, _mac=mac: tracker.record(
                    event, env.now, _mac.address, layer, pkt
                )
            )

        original = b.phy.transmit
        dropped = []

        def lossy_transmit(pkt, duration):
            if pkt.mac.subtype == "ack" and not dropped:
                dropped.append(pkt)
                b.phy._tx_end_time = env.now + duration
                b.phy.busy_epoch += 1
                DeferredCall(env, duration, b.phy._notify_if_idle)
                return
            original(pkt, duration)

        b.phy.transmit = lossy_transmit
        pkt = dp(0, 1)
        tracker.record("s", env.now, 0, "AGT", pkt)
        a.ifq.put(pkt)
        env.run(until=2.0)
        assert dropped and got, "harness failed to force a retry"
        return pkt

    def test_retry_hops_are_time_ordered(self, env):
        from repro.obs.journey import JourneyTracker as Tracker

        tracker = Tracker()
        api.activate(None, tracker)
        try:
            pkt = self._run_lossy_pair(env, tracker)
        finally:
            api.deactivate()
        journey = tracker.journey(pkt.uid)
        assert journey is not None
        times = [hop.time for hop in journey.hops]
        assert times == sorted(times), "hops out of causal order"
        assert journey.retries >= 1
        # The retry mark lies between the first send attempt and the
        # (post-ACK) successful MAC send mark.
        events = [(hop.event, hop.layer) for hop in journey.hops]
        assert ("x", "MAC") in events
        assert events.index(("x", "MAC")) < events.index(("s", "MAC"))
