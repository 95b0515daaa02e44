"""Routing-protocol interface.

A routing protocol sits between the node's agents and its MAC: it chooses
next hops for locally originated packets (:meth:`route_packet`), processes
every packet the MAC delivers (:meth:`handle_packet` — local delivery,
forwarding, or protocol control), and reacts to link-layer feedback.

A packet the MAC delivers is read-only.  It is the one frame every
radio in range of the transmission shares, so a protocol that changes a
received packet or sends it back down (TTL, hop count, ``num_forwards``,
and the MAC header that :meth:`Node.enqueue_to_mac` fills in) first
takes its own copy with ``pkt._clone()``, after every check that can
drop the packet.  The clone keeps the uid and draws none.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.addresses import BROADCAST
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node


class RoutingProtocol:
    """Base class wiring a protocol to its node."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.env = node.env
        node.set_routing(self)

    @property
    def address(self) -> int:
        """This node's address."""
        return self.node.address

    def start(self) -> None:
        """Start protocol timers/processes (default: nothing)."""

    def route_packet(self, pkt: Packet) -> None:
        """Route a locally originated packet."""
        raise NotImplementedError

    def handle_packet(self, pkt: Packet) -> None:
        """Process a packet delivered by the MAC.

        ``pkt`` may be shared with every other receiver of the frame: read
        it freely, but forward or edit only a ``pkt._clone()``.
        """
        raise NotImplementedError

    def link_failed(self, pkt: Packet) -> None:
        """MAC could not deliver ``pkt`` to its next hop (default: drop)."""
        self.node.drop(pkt, "CBK")

    def link_ok(self, pkt: Packet) -> None:
        """MAC confirmed delivery of ``pkt`` (default: ignore)."""

    def handle_crash(self) -> None:
        """Node crashed: discard volatile protocol state (default: none)."""

    def handle_recovery(self) -> None:
        """Node rebooted after a crash (default: nothing to restore)."""

    # -- shared helpers ------------------------------------------------------

    def _is_for_us(self, pkt: Packet) -> bool:
        return pkt.ip.dst in (self.address, BROADCAST)

    def _ttl_expired(self, pkt: Packet) -> bool:
        """True, after dropping ``pkt``, if it has no hop of TTL left."""
        if pkt.ip.ttl <= 1:
            self.node.drop(pkt, "TTL")
            return True
        return False

    def _forward_copy(self, pkt: Packet) -> Packet:
        """This node's copy of received data ``pkt`` for the next hop:
        one hop less TTL, one more forward, the same uid."""
        fwd = pkt._clone()
        fwd.ip.ttl -= 1
        fwd.num_forwards += 1
        return fwd
