"""Static routing: a fixed next-hop map (testing and wired-up baselines)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.net.addresses import Address, BROADCAST
from repro.net.packet import Packet
from repro.routing.base import RoutingProtocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node


class StaticRouting(RoutingProtocol):
    """Routes from a hand-built ``dst -> next_hop`` table.

    Destinations absent from the table are assumed to be direct
    neighbours (next hop = destination), which is exactly right for the
    single-hop platoon topologies of the paper and keeps unit tests free
    of route-discovery noise.
    """

    def __init__(self, node: "Node", table: Optional[dict[Address, Address]] = None) -> None:
        super().__init__(node)
        self.table = dict(table or {})

    def add_route(self, dst: Address, next_hop: Address) -> None:
        """Install/overwrite a route."""
        self.table[dst] = next_hop

    def next_hop_for(self, dst: Address) -> Address:
        """Next hop toward ``dst`` (defaults to the destination itself)."""
        return self.table.get(dst, dst)

    def route_packet(self, pkt: Packet) -> None:
        if pkt.ip.dst == BROADCAST:
            self.node.enqueue_to_mac(pkt, BROADCAST)
            return
        self.node.enqueue_to_mac(pkt, self.next_hop_for(pkt.ip.dst))

    def handle_packet(self, pkt: Packet) -> None:
        if self._is_for_us(pkt):
            self.node.deliver_up(pkt)
            return
        if self._ttl_expired(pkt):
            return
        pkt = self._forward_copy(pkt)
        self.node.count_forward(pkt)
        self.node.enqueue_to_mac(pkt, self.next_hop_for(pkt.ip.dst))
