"""AODV's duplicate-RREQ cache (RFC 3561 §6.5) expires oldest first.

A node stores each (origin, rreq_id) it has not seen with the time it
first saw it, so the cache is in time order and its stale entries are
always its oldest ones.  Expiry pops them from the front of the
insertion order instead of scanning the whole cache on every RREQ.
"""

from __future__ import annotations

import random

from repro.des import Environment
from repro.net.addresses import BROADCAST
from repro.net.headers import IpHeader
from repro.net.packet import Packet, PacketType
from repro.routing.aodv import Aodv, AodvParams
from repro.routing.aodv.messages import make_rreq

from tests.conftest import build_line_topology

#: path_discovery_time for these tests, seconds.
PDT = 1.0


def lone_aodv(path_discovery_time: float = PDT) -> Aodv:
    """An unstarted AODV node with nobody in range that gives up a
    discovery after its first RREQ."""
    params = AodvParams(path_discovery_time=path_discovery_time, rreq_retries=0)
    env = Environment()
    _, (node,) = build_line_topology(
        env, 1, routing_factory=lambda node: Aodv(node, params)
    )
    return node.routing


def full_scan(cache: dict, now: float) -> None:
    """The expiry as a scan of every entry: the reference."""
    horizon = now - PDT
    for key in [k for k, t in cache.items() if t < horizon]:
        del cache[key]


def rreq_from(origin: int, rreq_id: int, prev_hop: int = 5):
    pkt = make_rreq(
        src=origin,
        rreq_id=rreq_id,
        origin_seqno=1,
        dst=99,
        dst_seqno=0,
        unknown_seqno=True,
        ttl=5,
    )
    pkt.mac.src = prev_hop
    pkt.mac.dst = BROADCAST
    return pkt


def receive_at(aodv: Aodv, arrivals) -> None:
    """Hand each ``(time, pkt)`` to ``aodv`` at its time, then run."""
    env = aodv.env

    def feed(env):
        for time, pkt in arrivals:
            yield env.timeout(time - env.now)
            aodv.handle_packet(pkt)

    env.process(feed(env))
    env.run()


def test_expiry_matches_a_full_scan():
    rng = random.Random(20)
    aodv = lone_aodv()
    reference: dict = {}
    now = 0.0
    for _ in range(4000):
        roll = rng.random()
        if roll < 0.3:
            # Binary-exact steps land entries exactly on later horizons.
            now += rng.choice((0.0, 0.125, 0.25, 0.5, 1.0))
        elif roll < 0.4:
            now += rng.uniform(0.0, 0.3)
        elif roll < 0.7:
            key = (rng.randrange(6), rng.randrange(40))
            if key not in reference:
                aodv._remember_rreq(key, now)
                reference[key] = now
        elif roll < 0.995:
            aodv._expire_rreq_cache(now)
            full_scan(reference, now)
            assert list(aodv._rreq_seen.items()) == list(reference.items())
            assert list(aodv._rreq_order) == list(reference)
        else:
            aodv.handle_crash()
            reference.clear()
            assert not aodv._rreq_seen and not aodv._rreq_order


def test_entry_exactly_at_the_horizon_is_kept():
    aodv = lone_aodv()
    aodv._remember_rreq((1, 1), 2.0)
    aodv._remember_rreq((1, 2), 2.5)
    aodv._expire_rreq_cache(3.0)  # horizon 2.0: not older than it
    assert list(aodv._rreq_seen) == [(1, 1), (1, 2)]
    aodv._expire_rreq_cache(3.25)
    assert list(aodv._rreq_seen) == [(1, 2)]


def test_own_rreqs_expire_with_the_rest():
    aodv = lone_aodv()
    me = aodv.address

    def originate(env):
        yield env.timeout(0.5)
        aodv.route_packet(
            Packet(ptype=PacketType.CBR, size=100, ip=IpHeader(src=me, dst=98))
        )

    aodv.env.process(originate(aodv.env))
    receive_at(aodv, [(0.25, rreq_from(1, 1)), (1.0, rreq_from(2, 1))])
    assert list(aodv._rreq_seen) == [(1, 1), (me, 1), (2, 1)]
    receive_at(aodv, [(1.5, rreq_from(3, 1))])  # horizon 0.5 keeps our own
    assert list(aodv._rreq_seen) == [(me, 1), (2, 1), (3, 1)]
    receive_at(aodv, [(1.75, rreq_from(3, 2))])
    assert list(aodv._rreq_seen) == [(2, 1), (3, 1), (3, 2)]


def test_crash_between_insert_and_expiry_forgets_the_order_too():
    aodv = lone_aodv()
    receive_at(aodv, [(0.25, rreq_from(1, 1)), (0.5, rreq_from(2, 1))])
    aodv.handle_crash()
    assert not aodv._rreq_seen and not aodv._rreq_order
    receive_at(aodv, [(3.0, rreq_from(3, 1)), (3.25, rreq_from(1, 1))])
    assert list(aodv._rreq_seen.items()) == [((3, 1), 3.0), ((1, 1), 3.25)]
    aodv._expire_rreq_cache(4.125)
    assert list(aodv._rreq_seen) == [(1, 1)]


def test_key_seen_again_after_it_expired_is_a_new_rreq():
    aodv = lone_aodv()
    receive_at(
        aodv,
        [
            (0.25, rreq_from(1, 1)),
            (0.75, rreq_from(1, 1)),  # duplicate: silently discarded
            (0.5 + PDT, rreq_from(2, 1)),
            (1.5 + PDT, rreq_from(1, 1)),  # its entry expired at 0.5 + PDT
        ],
    )
    assert aodv.stats.rreq_forwarded == 3
    assert list(aodv._rreq_seen.items()) == [((2, 1), 0.5 + PDT), ((1, 1), 1.5 + PDT)]


class CountingCache(dict):
    """A dict that counts the entries read from it."""

    touched = 0

    def __getitem__(self, key):
        self.touched += 1
        return super().__getitem__(key)

    def _count(self, entries):
        for entry in entries:
            self.touched += 1
            yield entry

    def __iter__(self):
        return self._count(super().__iter__())

    def keys(self):
        return self._count(super().keys())

    def values(self):
        return self._count(super().values())

    def items(self):
        return self._count(super().items())


def test_expiry_touches_one_entry_more_than_it_expires():
    aodv = lone_aodv(path_discovery_time=100.0)
    receive_at(aodv, [(float(i), rreq_from(1, i)) for i in range(40)])
    cache = aodv._rreq_seen = CountingCache(aodv._rreq_seen)
    for now, expired in ((124.0, 24), (124.0, 0), (129.5, 6), (160.0, 10)):
        before = len(cache)
        cache.touched = 0
        aodv._expire_rreq_cache(now)
        assert before - len(cache) == expired
        assert cache.touched <= expired + 1
