"""Tests for the 802.11 DCF MAC."""

import pytest

from repro.des import Environment
from repro.des.events import DeferredCall
from repro.mac.base import PLCP_OVERHEAD
from repro.mac.dcf import Dcf80211Mac, DcfParams
from repro.mac.edca import EdcaMac
from repro.net.addresses import BROADCAST
from repro.net.channel import WirelessChannel
from repro.net.headers import IpHeader, MacHeader
from repro.net.packet import Packet, PacketType
from repro.net.queues import DropTailQueue
from repro.phy.radio import RadioParams, WirelessPhy


def build_mac(env, channel, address, x, params=None):
    phy = WirelessPhy(env, position_fn=lambda: (x, 0.0))
    channel.attach(phy)
    ifq = DropTailQueue(env)
    mac = Dcf80211Mac(env, address, phy, ifq, params=params)
    mac.start()
    return mac


def data_packet(src, dst, size=1000, mac_dst=None):
    return Packet(
        ptype=PacketType.CBR,
        size=size,
        ip=IpHeader(src=src, dst=dst),
        mac=MacHeader(src=src, dst=dst if mac_dst is None else mac_dst),
    )


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def pair(env):
    channel = WirelessChannel(env)
    a = build_mac(env, channel, 0, 0.0)
    b = build_mac(env, channel, 1, 100.0)
    return a, b


def collect(mac):
    got = []
    mac.recv_callback = got.append
    return got


def test_difs_is_sifs_plus_two_slots():
    params = DcfParams()
    assert params.difs == pytest.approx(params.sifs + 2 * params.slot_time)


def test_unicast_delivery_with_ack(env, pair):
    a, b = pair
    got = collect(b)
    a.ifq.put(data_packet(0, 1))
    env.run(until=1.0)
    assert len(got) == 1
    assert a.stats.data_sent == 1
    assert b.stats.control_sent == 1  # the ACK
    assert a.stats.retransmissions == 0


def test_broadcast_has_no_ack(env, pair):
    a, b = pair
    got = collect(b)
    a.ifq.put(data_packet(0, BROADCAST, mac_dst=BROADCAST))
    env.run(until=1.0)
    assert len(got) == 1
    assert b.stats.control_sent == 0


def test_unicast_to_absent_node_exhausts_retries(env):
    channel = WirelessChannel(env)
    a = build_mac(env, channel, 0, 0.0)
    failures = []
    a.link_failure_callback = failures.append
    a.ifq.put(data_packet(0, 9, mac_dst=9))  # nobody at address 9
    env.run(until=5.0)
    assert len(failures) == 1
    assert a.stats.retransmissions == a.params.short_retry_limit + 1
    assert a.stats.drops == 1


def test_link_success_callback_on_ack(env, pair):
    a, b = pair
    collect(b)
    successes = []
    a.link_success_callback = successes.append
    a.ifq.put(data_packet(0, 1))
    env.run(until=1.0)
    assert len(successes) == 1


def test_duplicate_filtering_keeps_single_delivery(env, pair):
    """If the ACK is lost the sender retries; the receiver must not
    deliver the same frame twice (it re-ACKs instead)."""
    a, b = pair
    got = collect(b)
    # Suppress b's first ACK by making its radio "busy": simplest reliable
    # trigger is to monkeypatch one transmit to drop the frame.
    original = b.phy.transmit
    dropped = []

    def lossy_transmit(pkt, duration):
        if pkt.mac.subtype == "ack" and not dropped:
            dropped.append(pkt)
            # Pretend to transmit without reaching the channel.
            b.phy._tx_end_time = env.now + duration
            b.phy.busy_epoch += 1
            DeferredCall(env, duration, b.phy._notify_if_idle)
            return
        original(pkt, duration)

    b.phy.transmit = lossy_transmit
    a.ifq.put(data_packet(0, 1))
    env.run(until=2.0)
    assert len(got) == 1
    assert dropped, "test harness never dropped the ACK"
    assert b.stats.duplicates == 1
    assert a.stats.retransmissions >= 1


def test_two_senders_share_the_channel(env):
    channel = WirelessChannel(env)
    a = build_mac(env, channel, 0, 0.0)
    b = build_mac(env, channel, 1, 50.0)
    c = build_mac(env, channel, 2, 100.0)
    got = collect(c)
    for _ in range(10):
        a.ifq.put(data_packet(0, 2, mac_dst=2))
        b.ifq.put(data_packet(1, 2, mac_dst=2))
    env.run(until=5.0)
    assert len(got) == 20


def test_rts_cts_used_above_threshold(env):
    channel = WirelessChannel(env)
    params = DcfParams(rts_threshold=500)
    a = build_mac(env, channel, 0, 0.0, params=params)
    b = build_mac(env, channel, 1, 100.0, params=params)
    got = collect(b)
    a.ifq.put(data_packet(0, 1, size=1000))
    env.run(until=1.0)
    assert len(got) == 1
    # a sent RTS, b sent CTS and ACK.
    assert a.stats.control_sent >= 1
    assert b.stats.control_sent >= 2


def test_rts_not_used_below_threshold(env):
    channel = WirelessChannel(env)
    params = DcfParams(rts_threshold=5000)
    a = build_mac(env, channel, 0, 0.0, params=params)
    b = build_mac(env, channel, 1, 100.0, params=params)
    collect(b)
    a.ifq.put(data_packet(0, 1, size=1000))
    env.run(until=1.0)
    assert b.stats.control_sent == 1  # only the ACK


def test_frame_duration_includes_plcp_and_mac_header():
    env = Environment()
    channel = WirelessChannel(env)
    mac = build_mac(env, channel, 0, 0.0)
    duration = mac.frame_duration(1000)
    expected = PLCP_OVERHEAD + (1000 + MacHeader.WIRE_SIZE) * 8 / 2e6
    assert duration == pytest.approx(expected)


def test_cw_grows_and_caps(env):
    channel = WirelessChannel(env)
    mac = build_mac(env, channel, 0, 0.0)
    mac._cw = mac.params.cw_min
    for _ in range(20):
        mac._grow_cw()
    assert mac._cw == mac.params.cw_max


def test_nav_set_by_overheard_frames(env):
    """A third station overhearing a unicast defers for its NAV."""
    channel = WirelessChannel(env)
    a = build_mac(env, channel, 0, 0.0)
    b = build_mac(env, channel, 1, 50.0)
    c = build_mac(env, channel, 2, 100.0)
    collect(b)
    a.ifq.put(data_packet(0, 1, mac_dst=1))
    env.run(until=1.0)
    # c overheard a data frame carrying a NAV for the ACK window.
    assert c._nav_until > 0


def test_throughput_saturates_near_link_rate(env):
    """Back-to-back 1000B frames should achieve >50% of the 2 Mb/s rate
    (overheads: DIFS, backoff, ACK, PLCP)."""
    channel = WirelessChannel(env)
    a = build_mac(env, channel, 0, 0.0)
    b = build_mac(env, channel, 1, 100.0)
    got = collect(b)

    def feeder(env):
        for _ in range(40):
            for _ in range(5):
                a.ifq.put(data_packet(0, 1))
            yield env.timeout(0.02)

    env.process(feeder(env))
    env.run(until=1.0)
    bits = sum(p.size for p in got) * 8
    assert bits / 1.0 > 1.0e6


def test_eifs_longer_than_difs():
    params = DcfParams()
    assert params.eifs > params.difs


def test_corrupted_reception_sets_eifs_deferral(env):
    channel = WirelessChannel(env)
    a = build_mac(env, channel, 0, 0.0)
    b = build_mac(env, channel, 1, 100.0)
    # Inject a corrupted-frame notification directly.
    before = b._eifs_until
    b.phy_rx_failed(data_packet(0, 1), "collision")
    assert b._eifs_until > before
    assert b._eifs_until > env.now


def test_correct_reception_clears_eifs(env, pair):
    a, b = pair
    collect(b)
    b._eifs_until = env.now + 1.0
    a.ifq.put(data_packet(0, 1))
    env.run(until=1.0)
    assert b._eifs_until == 0.0


def test_eifs_defers_transmission(env):
    """After a corrupted frame, a queued packet waits out the EIFS."""
    channel = WirelessChannel(env)
    a = build_mac(env, channel, 0, 0.0)
    b = build_mac(env, channel, 1, 100.0)
    got = collect(b)
    # Pretend a collision just happened at 'a'.
    a.phy_rx_failed(data_packet(5, 6), "collision")
    deferral = a._eifs_until
    a.ifq.put(data_packet(0, 1))
    env.run(until=1.0)
    assert len(got) == 1
    # The frame cannot have finished before the EIFS deferral expired.
    assert deferral > 0


# -- backoff freeze boundaries ---------------------------------------------
#
# Station A counts down a fixed backoff draw while colocated radios, which
# A senses but cannot decode (no NAV, no EIFS), disturb the medium at
# scripted instants.  Each test derives A's departure from the per-slot
# rule with the same float operations the kernel performs, and requires
# the simulated departure to equal it exactly.


class FixedDraw:
    """Stub rng: every backoff draw is ``slots``."""

    def __init__(self, slots):
        self.slots = slots

    def randint(self, low, high):
        return self.slots


def countdown_station(env, channel, slots, mac_cls=Dcf80211Mac):
    """A at the origin; returns the MAC and the list its departures fill."""
    phy = WirelessPhy(env, position_fn=lambda: (0.0, 0.0))
    channel.attach(phy)
    mac = mac_cls(env, 0, phy, DropTailQueue(env), rng=FixedDraw(slots))
    mac.start()
    departures = []
    transmit = phy.transmit

    def record(pkt, duration):
        departures.append(env.now)
        transmit(pkt, duration)

    phy.transmit = record
    return mac, departures


def at(env, when, action):
    """Run ``action`` at exactly ``when`` (a timeout created at t = 0)."""

    def script():
        yield env.timeout(when)
        action()

    env.process(script())


def jam(env, channel, when, duration):
    """Send one frame at ``when`` from a new colocated radio, which A
    senses but cannot decode."""
    params = RadioParams(tx_power=1e-10)
    assert params.cs_threshold <= params.tx_power < params.rx_threshold
    phy = WirelessPhy(env, position_fn=lambda: (0.0, 0.0), params=params)
    channel.attach(phy)
    at(env, when, lambda: phy.transmit(data_packet(9, 9), duration))


def slot_boundaries(start, count, slot_time):
    """Boundaries of a countdown, by repeated addition as the kernel adds."""
    boundaries = []
    boundary = start
    for _ in range(count):
        boundary += slot_time
        boundaries.append(boundary)
    return boundaries


def per_slot_departure(start, slots, aifs, slot_time, busy=()):
    """When the per-slot rule sends A's frame.

    The countdown of ``slots`` starts at ``start``.  ``busy`` lists each
    ``(went_busy, went_idle)`` period of A's medium in order; none falls
    inside an AIFS wait.  A countdown freezes at the first slot boundary
    strictly after the medium went busy, and the slots before that
    boundary count.  It resumes AIFS after the medium went idle.
    """
    for went_busy, went_idle in busy:
        boundary = start
        while slots and boundary + slot_time <= went_busy:
            boundary += slot_time
            slots -= 1
        if not slots:
            raise ValueError("the countdown ends before the disturbance")
        start = went_idle + aifs
    boundary = start
    for _ in range(slots):
        boundary += slot_time
    return boundary + aifs


FRAME = 300e-6  # disturbing frame airtime; any frame lasts > one slot


@pytest.mark.parametrize(
    "slots, boundary, offset",
    [
        (6, 2, 7e-6),  # mid-slot: freezes on boundary 3, two slots count
        (6, 5, 19e-6),  # in the last slot: one slot remains
        (6, 3, 0.0),  # exactly on boundary 3: that slot counts too
    ],
    ids=["mid-slot", "last-slot", "on-boundary"],
)
def test_backoff_freezes_at_first_boundary_after_disturbance(
    env, slots, boundary, offset
):
    channel = WirelessChannel(env)
    mac, departures = countdown_station(env, channel, slots)
    params = mac.params
    start = params.difs
    disturbed = slot_boundaries(start, slots, params.slot_time)[boundary - 1]
    if offset:
        disturbed += offset
    jam(env, channel, disturbed, FRAME)
    mac.ifq.put(data_packet(0, BROADCAST, mac_dst=BROADCAST))
    env.run(until=0.01)
    expected = per_slot_departure(
        start, slots, params.difs, params.slot_time,
        busy=[(disturbed, disturbed + FRAME)],
    )
    assert departures == [expected]


def test_disturbance_at_the_countdowns_first_instant_counts_no_slot(env):
    channel = WirelessChannel(env)
    mac, departures = countdown_station(env, channel, 4)
    params = mac.params
    start = params.difs
    jam(env, channel, start, FRAME)
    mac.ifq.put(data_packet(0, BROADCAST, mac_dst=BROADCAST))
    env.run(until=0.01)
    expected = per_slot_departure(
        start, 4, params.difs, params.slot_time,
        busy=[(start, start + FRAME)],
    )
    assert departures == [expected]


def test_second_disturbance_before_the_freeze_boundary_changes_nothing(env):
    """Only the first disturbance picks the freeze boundary; the countdown
    resumes once both frames have left the air."""
    channel = WirelessChannel(env)
    mac, departures = countdown_station(env, channel, 5)
    params = mac.params
    start = params.difs
    second = slot_boundaries(start, 5, params.slot_time)[1]
    first, second = second + 5e-6, second + 15e-6
    jam(env, channel, first, FRAME)
    jam(env, channel, second, FRAME)
    mac.ifq.put(data_packet(0, BROADCAST, mac_dst=BROADCAST))
    env.run(until=0.01)
    expected = per_slot_departure(
        start, 5, params.difs, params.slot_time,
        busy=[(first, second + FRAME)],
    )
    assert departures == [expected]


def test_edca_countdown_defers_its_own_aifs(env):
    channel = WirelessChannel(env)
    mac, departures = countdown_station(env, channel, 7, mac_cls=EdcaMac)
    params = mac.params
    aifs = params.aifs(params.data_aifsn)  # a CBR frame is background data
    assert aifs != params.difs
    disturbed = slot_boundaries(aifs, 7, params.slot_time)[2] + 11e-6
    jam(env, channel, disturbed, FRAME)
    mac.ifq.put(data_packet(0, BROADCAST, mac_dst=BROADCAST))
    env.run(until=0.01)
    expected = per_slot_departure(
        aifs, 7, aifs, params.slot_time,
        busy=[(disturbed, disturbed + FRAME)],
    )
    assert departures == [expected]


def test_countdown_starting_before_one_millisecond_ends_on_its_boundary(env):
    """The countdown ends on the last boundary of the repeated sum, which
    here is not ``start + (last - start)``: a timer set by relative delay
    would fire one ulp early."""
    channel = WirelessChannel(env)
    mac, departures = countdown_station(env, channel, 7)
    params = mac.params
    queued = 3e-6
    start = queued + params.difs
    last = slot_boundaries(start, 7, params.slot_time)[-1]
    assert start < 1e-3 and start + (last - start) != last
    at(env, queued, lambda: mac.ifq.put(
        data_packet(0, BROADCAST, mac_dst=BROADCAST)
    ))
    env.run(until=0.01)
    assert departures == [per_slot_departure(
        start, 7, params.difs, params.slot_time
    )]
