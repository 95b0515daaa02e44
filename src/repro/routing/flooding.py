"""Controlled flooding (baseline protocol).

Every data packet is broadcast; every node rebroadcasts each packet it has
not seen before while the TTL lasts, and delivers it up if it is the
destination.  Maximally robust, maximally wasteful — the classic baseline
AODV is measured against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.addresses import BROADCAST
from repro.net.packet import Packet
from repro.routing.base import RoutingProtocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node


class Flooding(RoutingProtocol):
    """Flood-and-dedup routing."""

    def __init__(self, node: "Node", default_ttl: int = 8) -> None:
        super().__init__(node)
        if default_ttl < 1:
            raise ValueError("default_ttl must be at least 1")
        self.default_ttl = default_ttl
        self._seen: set[int] = set()
        #: Statistics.
        self.rebroadcasts = 0
        self.duplicates_suppressed = 0

    def route_packet(self, pkt: Packet) -> None:
        pkt.ip.ttl = min(pkt.ip.ttl, self.default_ttl)
        self._seen.add(pkt.uid)
        self.node.enqueue_to_mac(pkt, BROADCAST)

    def handle_packet(self, pkt: Packet) -> None:
        if pkt.uid in self._seen:
            self.duplicates_suppressed += 1
            return
        self._seen.add(pkt.uid)
        if pkt.ip.dst in (self.address, BROADCAST):
            self.node.deliver_up(pkt)
            if pkt.ip.dst == self.address:
                return
        if self._ttl_expired(pkt):
            return
        pkt = self._forward_copy(pkt)
        self.rebroadcasts += 1
        self.node.count_forward(pkt)
        self.node.enqueue_to_mac(pkt, BROADCAST)
