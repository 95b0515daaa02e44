"""Tests for ARF rate adaptation and multi-rate reception."""

import pytest

from repro.des import Environment
from repro.mac.dcf import Dcf80211Mac
from repro.mac.rate_control import DEFAULT_RATES, ArfRateController
from repro.net.channel import WirelessChannel
from repro.net.headers import IpHeader, MacHeader
from repro.net.packet import Packet, PacketType
from repro.net.queues import DropTailQueue
from repro.phy.radio import RadioParams, WirelessPhy


# -- controller unit behaviour ----------------------------------------------


def test_arf_validation():
    with pytest.raises(ValueError):
        ArfRateController(rates=())
    with pytest.raises(ValueError):
        ArfRateController(rates=(2e6, 1e6))
    with pytest.raises(ValueError):
        ArfRateController(up_after=0)
    with pytest.raises(ValueError):
        ArfRateController(start_index=9)


def test_arf_starts_at_requested_rate():
    assert ArfRateController(start_index=1).current_rate == 2e6


def test_arf_steps_up_after_streak():
    arf = ArfRateController(up_after=3, start_index=0)
    for _ in range(3):
        arf.on_success()
    assert arf.current_rate == 2e6
    assert arf.steps_up == 1


def test_arf_steps_down_after_failures():
    arf = ArfRateController(down_after=2, start_index=2)
    arf.on_failure()
    assert arf.current_rate == 5.5e6  # one failure is tolerated
    arf.on_failure()
    assert arf.current_rate == 2e6
    assert arf.steps_down == 1


def test_arf_failed_probe_reverts_immediately():
    arf = ArfRateController(up_after=2, down_after=5, start_index=0)
    arf.on_success()
    arf.on_success()
    assert arf.current_index == 1  # stepped up; next frame is the probe
    arf.on_failure()               # probe failed
    assert arf.current_index == 0  # immediate fallback despite down_after=5


def test_arf_success_clears_probe_state():
    arf = ArfRateController(up_after=2, down_after=2, start_index=0)
    arf.on_success()
    arf.on_success()  # step up, probing
    arf.on_success()  # probe succeeded
    arf.on_failure()  # a later single failure must not revert instantly
    assert arf.current_index == 1


def test_arf_saturates_at_ladder_ends():
    arf = ArfRateController(up_after=1, start_index=len(DEFAULT_RATES) - 1)
    arf.on_success()
    assert arf.current_rate == DEFAULT_RATES[-1]
    arf2 = ArfRateController(down_after=1, start_index=0)
    arf2.on_failure()
    assert arf2.current_rate == DEFAULT_RATES[0]


# -- multi-rate radio sensitivity ---------------------------------------------------


def test_rate_thresholds_ordered():
    params = RadioParams()
    assert params.rx_threshold_for(1e6) < params.rx_threshold_for(2e6)
    assert params.rx_threshold_for(2e6) < params.rx_threshold_for(11e6)
    assert params.rx_threshold_for(None) == params.rx_threshold
    assert params.rx_threshold_for(2e6) == params.rx_threshold


def test_high_rate_frame_undecodable_at_range():
    """A frame tagged 11 Mb/s dies at a distance where 2 Mb/s works."""
    env = Environment()
    channel = WirelessChannel(env)
    received = []

    class Mac:
        def phy_rx_start(self, p):
            pass

        def phy_rx_end(self, p):
            received.append(p)

        def phy_rx_failed(self, p, r):
            pass

    tx = WirelessPhy(env, position_fn=lambda: (0.0, 0.0))
    rx = WirelessPhy(env, position_fn=lambda: (200.0, 0.0))
    tx.mac, rx.mac = Mac(), Mac()
    channel.attach(tx)
    channel.attach(rx)

    slow = Packet(ptype=PacketType.CBR, size=1000,
                  ip=IpHeader(src=0, dst=1), mac=MacHeader(src=0, dst=1))
    slow.meta["phy_rate"] = 2e6
    fast = Packet(ptype=PacketType.CBR, size=1000,
                  ip=IpHeader(src=0, dst=1), mac=MacHeader(src=0, dst=1),
                  meta={"phy_rate": 11e6})
    tx.transmit(slow, 0.004)
    env.run()

    def later(env):
        yield env.timeout(0.01)
        tx.transmit(fast, 0.001)

    env.process(later(env))
    env.run()
    uids = [p.uid for p in received]
    assert slow.uid in uids
    assert fast.uid not in uids


# -- end-to-end ARF over DCF -------------------------------------------------------------


def build_mac(env, channel, address, x, arf=None):
    phy = WirelessPhy(env, position_fn=lambda: (x, 0.0))
    channel.attach(phy)
    mac = Dcf80211Mac(env, address, phy, DropTailQueue(env, limit=200),
                      rate_controller=arf)
    mac.start()
    return mac


def data_packet(src, dst):
    return Packet(ptype=PacketType.CBR, size=1000,
                  ip=IpHeader(src=src, dst=dst),
                  mac=MacHeader(src=src, dst=dst))


def feed(env, mac, dst, count=150, gap=0.005):
    def feeder(env):
        for _ in range(count):
            mac.ifq.put(data_packet(mac.address, dst))
            yield env.timeout(gap)

    env.process(feeder(env))


def test_arf_climbs_to_top_rate_on_short_link():
    env = Environment()
    channel = WirelessChannel(env)
    arf = ArfRateController(up_after=5)
    a = build_mac(env, channel, 0, 0.0, arf=arf)
    b = build_mac(env, channel, 1, 50.0)
    got = []
    b.recv_callback = got.append
    feed(env, a, 1)
    env.run(until=2.0)
    assert arf.current_rate == 11e6
    assert len(got) > 100
    assert got[-1].meta["phy_rate"] == 11e6


def test_arf_settles_below_top_rate_on_marginal_link():
    """At 200 m the 11 Mb/s (and 5.5 Mb/s, +4 dB ≈ 188 m) probes fail;
    ARF must hold at 2 Mb/s and keep the link alive."""
    env = Environment()
    channel = WirelessChannel(env)
    arf = ArfRateController(up_after=5)
    a = build_mac(env, channel, 0, 0.0, arf=arf)
    b = build_mac(env, channel, 1, 200.0)
    got = []
    b.recv_callback = got.append
    feed(env, a, 1, count=100, gap=0.02)
    env.run(until=4.0)
    assert len(got) > 50
    # Every *delivered* frame was at a sustainable rate; the controller
    # may momentarily sit at 5.5 Mb/s mid-probe, but those probes fail.
    assert all(p.meta["phy_rate"] <= 2e6 for p in got)
    assert arf.steps_down >= 1  # probes were attempted and failed
    assert arf.current_rate <= 5.5e6  # never established 11 Mb/s


def test_arf_faster_than_fixed_rate_on_short_link():
    def run(arf):
        env = Environment()
        channel = WirelessChannel(env)
        a = build_mac(env, channel, 0, 0.0, arf=arf)
        b = build_mac(env, channel, 1, 50.0)
        got = []
        b.recv_callback = got.append
        feed(env, a, 1, count=900, gap=0.001)
        env.run(until=1.2)
        return len(got)

    adaptive = run(ArfRateController(up_after=5))
    fixed = run(None)
    assert adaptive > 1.5 * fixed
