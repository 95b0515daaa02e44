"""Unit tests for the radio transceiver: carrier sense, capture, collisions."""

import itertools

import pytest

import repro.net.packet as packet_module
from repro.des import Environment
from repro.mac.csma import CsmaMac
from repro.mobility.base import StationaryMobility
from repro.net.addresses import BROADCAST
from repro.net.channel import WirelessChannel
from repro.net.headers import IpHeader, MacHeader, UdpHeader
from repro.net.node import Node
from repro.net.packet import Packet, PacketType
from repro.net.queues import DropTailQueue
from repro.phy.radio import WirelessPhy
from repro.routing.flooding import Flooding


class RecordingMac:
    """Minimal MAC stub recording phy callbacks."""

    def __init__(self):
        self.started = []
        self.received = []
        self.failed = []

    def phy_rx_start(self, pkt):
        self.started.append(pkt)

    def phy_rx_end(self, pkt):
        self.received.append(pkt)

    def phy_rx_failed(self, pkt, reason):
        self.failed.append((pkt, reason))


def make_phy(env, channel, x, y=0.0):
    phy = WirelessPhy(env, position_fn=lambda: (x, y))
    phy.mac = RecordingMac()
    channel.attach(phy)
    return phy


def data_packet(size=1000):
    return Packet(
        ptype=PacketType.CBR,
        size=size,
        ip=IpHeader(src=0, dst=1),
        mac=MacHeader(src=0, dst=1),
    )


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def channel(env):
    return WirelessChannel(env)


def test_in_range_reception_succeeds(env, channel):
    tx = make_phy(env, channel, 0.0)
    rx = make_phy(env, channel, 100.0)
    pkt = data_packet()
    tx.transmit(pkt, duration=0.004)
    env.run()
    assert len(rx.mac.received) == 1
    assert rx.mac.received[0].uid == pkt.uid
    assert rx.frames_received == 1


def test_out_of_range_reception_never_arrives(env, channel):
    tx = make_phy(env, channel, 0.0)
    rx = make_phy(env, channel, 600.0)  # beyond the 550 m CS range
    tx.transmit(data_packet(), duration=0.004)
    env.run()
    assert rx.mac.received == []
    assert rx.mac.failed == []


def test_sensing_zone_signal_is_not_decoded(env, channel):
    """Between 250 m and 550 m: medium busy but frame not decodable."""
    tx = make_phy(env, channel, 0.0)
    rx = make_phy(env, channel, 400.0)
    tx.transmit(data_packet(), duration=0.004)
    env.step()  # process transmit-side event scheduling
    env.run(until=0.002)
    assert rx.medium_busy
    env.run()
    assert rx.mac.received == []


def test_transmitting_state_and_half_duplex(env, channel):
    tx = make_phy(env, channel, 0.0)
    make_phy(env, channel, 100.0)
    tx.transmit(data_packet(), duration=0.01)
    assert tx.transmitting
    with pytest.raises(RuntimeError):
        tx.transmit(data_packet(), duration=0.01)
    env.run()
    assert not tx.transmitting


def test_transmit_requires_channel(env):
    phy = WirelessPhy(env, position_fn=lambda: (0, 0))
    with pytest.raises(RuntimeError):
        phy.transmit(data_packet(), 0.001)


def test_collision_corrupts_both_frames(env, channel):
    """Two equal-power simultaneous frames destroy each other."""
    tx1 = make_phy(env, channel, 0.0)
    tx2 = make_phy(env, channel, 200.0)
    rx = make_phy(env, channel, 100.0)  # equidistant: equal powers
    tx1.transmit(data_packet(), duration=0.004)
    tx2.transmit(data_packet(), duration=0.004)
    env.run()
    assert rx.mac.received == []
    assert len(rx.mac.failed) >= 1
    assert rx.frames_corrupted >= 1


def test_capture_stronger_frame_survives(env, channel):
    """A much closer transmitter captures the receiver."""
    far = make_phy(env, channel, 240.0)
    near = make_phy(env, channel, 26.0)
    rx = make_phy(env, channel, 0.0)
    far_pkt, near_pkt = data_packet(), data_packet()
    far.transmit(far_pkt, duration=0.004)
    near.transmit(near_pkt, duration=0.004)
    env.run()
    received_uids = [p.uid for p in rx.mac.received]
    assert near_pkt.uid in received_uids
    assert far_pkt.uid not in received_uids


def test_later_stronger_frame_captures_receiver(env, channel):
    """Capture works even when the strong frame starts second."""
    far = make_phy(env, channel, 240.0)
    near = make_phy(env, channel, 26.0)
    rx = make_phy(env, channel, 0.0)
    far_pkt, near_pkt = data_packet(), data_packet()
    far.transmit(far_pkt, duration=0.01)

    def late(env):
        yield env.timeout(0.002)
        near.transmit(near_pkt, duration=0.004)

    env.process(late(env))
    env.run()
    assert [p.uid for p in rx.mac.received] == [near_pkt.uid]


def test_reception_aborted_by_own_transmission(env, channel):
    """Starting to transmit stomps an in-progress reception."""
    tx = make_phy(env, channel, 0.0)
    rx = make_phy(env, channel, 100.0)
    pkt = data_packet()
    tx.transmit(pkt, duration=0.01)

    def preempt(env):
        yield env.timeout(0.002)
        rx.transmit(data_packet(), duration=0.001)

    env.process(preempt(env))
    env.run()
    assert pkt.uid not in [p.uid for p in rx.mac.received]


def test_wait_idle_fires_immediately_when_idle(env, channel):
    phy = make_phy(env, channel, 0.0)
    assert phy.wait_idle().triggered


def test_wait_idle_fires_when_signal_ends(env, channel):
    tx = make_phy(env, channel, 0.0)
    rx = make_phy(env, channel, 100.0)
    waited = []

    def waiter(env):
        yield env.timeout(0.001)  # mid-transmission
        yield rx.wait_idle()
        waited.append(env.now)

    tx.transmit(data_packet(), duration=0.004)
    env.process(waiter(env))
    env.run()
    assert len(waited) == 1
    assert waited[0] == pytest.approx(0.004, abs=1e-5)


def test_busy_epoch_increments_on_activity(env, channel):
    tx = make_phy(env, channel, 0.0)
    rx = make_phy(env, channel, 100.0)
    before = rx.busy_epoch
    tx.transmit(data_packet(), duration=0.001)
    env.run()
    assert rx.busy_epoch == before + 1
    assert tx.busy_epoch >= before + 1  # its own tx counts too


def test_channel_detach_stops_delivery(env, channel):
    tx = make_phy(env, channel, 0.0)
    rx = make_phy(env, channel, 100.0)
    channel.detach(rx)
    tx.transmit(data_packet(), duration=0.001)
    env.run()
    assert rx.mac.received == []


def test_channel_rejects_double_attach(env, channel):
    phy = make_phy(env, channel, 0.0)
    with pytest.raises(ValueError):
        channel.attach(phy)


def test_channel_counts_transmissions(env, channel):
    tx = make_phy(env, channel, 0.0)
    make_phy(env, channel, 100.0)
    tx.transmit(data_packet(), duration=0.001)
    env.run()
    assert channel.transmissions == 1


def accepting_mac(env, channel, address, x):
    """A real MAC on a radio at ``x``; returns the frames it passes up."""
    phy = WirelessPhy(env, position_fn=lambda: (x, 0.0))
    channel.attach(phy)
    mac = CsmaMac(env, address, phy, DropTailQueue(env))
    accepted = []
    mac.recv_callback = accepted.append
    return accepted


def flooding_node(env, channel, address, x):
    """A node at ``x`` that re-floods what it hears, and the frames its
    MAC passes up.  The node is not started, so what it forwards stays in
    its interface queue."""
    node = Node(
        env,
        address,
        StationaryMobility(x, 0.0),
        channel,
        lambda env, addr, phy, ifq: CsmaMac(env, addr, phy, ifq),
    )
    Flooding(node)
    accepted = []

    def receive(pkt):
        accepted.append(pkt)
        node._recv_from_mac(pkt)

    node.mac.recv_callback = receive
    return node, accepted


def broadcast_packet():
    return Packet(
        ptype=PacketType.CBR,
        size=1000,
        ip=IpHeader(src=0, dst=BROADCAST),
        mac=MacHeader(src=0, dst=BROADCAST),
        headers={"udp": UdpHeader(seqno=5)},
        meta={"note": "original"},
    )


def test_receivers_get_independent_copies(env, channel):
    """Stacks that accept one broadcast read the one frame the channel
    froze for it; a node that forwards the frame sends its own clone, so
    editing the forwarded packet reaches neither the frame the other
    receivers hold nor the sender's packet."""
    tx = make_phy(env, channel, 0.0)
    got1 = accepting_mac(env, channel, 1, 100.0)
    relay, got2 = flooding_node(env, channel, 2, 150.0)
    pkt = broadcast_packet()
    tx.transmit(pkt, duration=0.004)
    env.run()
    (first,), (second,) = got1, got2
    assert first is not pkt and first is second
    assert first.uid == second.uid == pkt.uid
    assert len(relay.ifq) == 1
    forwarded = relay.ifq.get().value
    assert forwarded is not second and forwarded.uid == pkt.uid
    assert (forwarded.ip.ttl, forwarded.num_forwards) == (31, 1)
    assert (forwarded.mac.src, forwarded.mac.dst) == (2, BROADCAST)
    forwarded.ip.ttl = 1
    forwarded.mac.dst = 7
    forwarded.meta["note"] = "edited"
    forwarded.header("udp").seqno = 9
    for other in (first, second, pkt):
        assert (other.ip.ttl, other.num_forwards) == (32, 0)
        assert (other.mac.src, other.mac.dst) == (0, BROADCAST)
        assert other.meta == {"note": "original"}
        assert other.header("udp").seqno == 5


def test_sender_edits_after_transmit_do_not_reach_receivers(env, channel):
    """The DCF sender edits its frame between attempts; receivers still
    decoding it must see it as it was sent."""
    tx = make_phy(env, channel, 0.0)
    rx = make_phy(env, channel, 100.0)
    pkt = data_packet()
    tx.transmit(pkt, duration=0.004)
    pkt.mac.retries = 3
    pkt.mac.duration = 0.5
    pkt.meta["phy_rate"] = 11e6
    pkt.ip.ttl = 1
    env.run()
    (got,) = rx.mac.received
    assert (got.mac.retries, got.mac.duration, got.ip.ttl) == (0, 0.0, 32)
    assert "phy_rate" not in got.meta


def test_receivers_of_one_transmission_share_one_frame(env, channel):
    tx = make_phy(env, channel, 0.0)
    receivers = [make_phy(env, channel, x) for x in (100.0, 150.0, 200.0)]
    pkt = data_packet()
    tx.transmit(pkt, duration=0.004)
    env.run()
    frames = [rx.mac.started[0] for rx in receivers]
    frames += [rx.mac.received[0] for rx in receivers]
    assert all(frame is frames[0] for frame in frames)
    assert frames[0] is not pkt and frames[0].uid == pkt.uid


@pytest.mark.parametrize("k", [1, 2, 5])
def test_one_transmission_costs_two_events_per_receiver(
    env, channel, k, monkeypatch
):
    """Offering one frame to k accepting radios processes 2k + 3 kernel
    events (a DeferredBatch stage, k deliveries, k retirements and the
    two-stage transmit-done trampoline) and draws exactly k uids, one
    per delivery."""
    tx = make_phy(env, channel, 0.0)
    accepted = [
        accepting_mac(env, channel, i + 1, 20.0 * (i + 1)) for i in range(k)
    ]
    pkt = broadcast_packet()
    monkeypatch.setattr(packet_module, "_uid_counter", itertools.count(1000))
    tx.transmit(pkt, duration=0.004)
    env.run()
    assert [len(frames) for frames in accepted] == [1] * k
    assert env.events_processed == 2 * k + 3
    assert next(packet_module._uid_counter) == 1000 + k


def test_propagation_delay_orders_reception(env, channel):
    """The nearer receiver hears the frame (start) earlier."""
    tx = make_phy(env, channel, 0.0)
    rx_near = make_phy(env, channel, 30.0)
    rx_far = make_phy(env, channel, 240.0)
    times = {}

    class TimedMac(RecordingMac):
        def __init__(self, name):
            super().__init__()
            self.name = name

        def phy_rx_start(self, pkt):
            times[self.name] = env.now

    rx_near.mac = TimedMac("near")
    rx_far.mac = TimedMac("far")
    tx.transmit(data_packet(), duration=0.004)
    env.run()
    assert times["near"] < times["far"]
