"""Destination-Sequenced Distance Vector routing (proactive baseline).

A compact DSDV: every node periodically broadcasts its full routing table
(destination, metric, even sequence number); receivers adopt routes with
newer sequence numbers, or equal seqno and better metric.  Broken links
(via MAC feedback) advertise an odd seqno with infinite metric.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.net.addresses import Address, BROADCAST
from repro.net.headers import DsdvHeader, IpHeader
from repro.net.packet import Packet, PacketType
from repro.routing.base import RoutingProtocol
from repro.routing.table import RouteEntry, RouteTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node

#: Metric used to advertise an unreachable destination.
INFINITY_METRIC = 255


@dataclass
class DsdvParams:
    """DSDV timing constants."""

    #: Full-dump broadcast period (ns-2 default: 15 s; we default lower so
    #: small scenarios converge quickly).
    update_interval: float = 5.0
    #: Random jitter applied to each update to avoid synchronisation.
    jitter: float = 0.5
    #: Routes not reconfirmed within this many periods are dropped.
    hold_periods: int = 3


class Dsdv(RoutingProtocol):
    """Proactive distance-vector routing with destination sequence numbers."""

    def __init__(
        self,
        node: "Node",
        params: Optional[DsdvParams] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(node)
        self.params = params or DsdvParams()
        self.table = RouteTable()
        self.seqno = 0  # our own even seqno
        self._rng = rng or random.Random(node.address)
        self.updates_sent = 0

    def start(self) -> None:
        self.env.process(self._update_loop())

    # -- periodic dumps ----------------------------------------------------------

    def _update_loop(self):
        # Desynchronise first broadcasts.
        yield self.env.timeout(self._rng.uniform(0, self.params.jitter))
        while True:
            self._broadcast_update()
            yield self.env.timeout(
                self.params.update_interval
                + self._rng.uniform(-self.params.jitter, self.params.jitter)
            )

    def _broadcast_update(self) -> None:
        self.seqno += 2
        now = self.env.now
        entries: list[tuple[Address, int, int]] = [(self.address, 0, self.seqno)]
        for entry in self.table:
            if entry.is_usable(now):
                entries.append((entry.dst, entry.hop_count, entry.seqno))
            elif not entry.valid:
                entries.append((entry.dst, INFINITY_METRIC, entry.seqno))
        header = DsdvHeader(entries=entries)
        pkt = Packet(
            ptype=PacketType.DSDV,
            size=IpHeader.WIRE_SIZE + header.wire_size,
            ip=IpHeader(src=self.address, dst=BROADCAST, ttl=1),
            headers={"dsdv": header},
        )
        self.updates_sent += 1
        self.node.enqueue_to_mac(pkt, BROADCAST)

    # -- data path --------------------------------------------------------------------

    def route_packet(self, pkt: Packet) -> None:
        if pkt.ip.dst == BROADCAST:
            self.node.enqueue_to_mac(pkt, BROADCAST)
            return
        route = self.table.lookup(pkt.ip.dst, self.env.now)
        if route is None:
            self.node.drop(pkt, "NRTE")
            return
        self.node.enqueue_to_mac(pkt, route.next_hop)

    def handle_packet(self, pkt: Packet) -> None:
        if pkt.ptype == PacketType.DSDV:
            self._recv_update(pkt)
            return
        if self._is_for_us(pkt):
            self.node.deliver_up(pkt)
            return
        if self._ttl_expired(pkt):
            return
        route = self.table.lookup(pkt.ip.dst, self.env.now)
        if route is None:
            self.node.drop(pkt, "NRTE")
            return
        pkt = self._forward_copy(pkt)
        self.node.count_forward(pkt)
        self.node.enqueue_to_mac(pkt, route.next_hop)

    # -- update processing --------------------------------------------------------------

    def _recv_update(self, pkt: Packet) -> None:
        header: DsdvHeader = pkt.header("dsdv")
        neighbour = pkt.ip.src
        lifetime = self.params.hold_periods * self.params.update_interval
        now = self.env.now
        for dst, metric, seqno in header.entries:
            if dst == self.address:
                continue
            hop_count = metric + 1 if metric < INFINITY_METRIC else INFINITY_METRIC
            entry = self.table.get(dst)
            accept = (
                entry is None
                or seqno > entry.seqno
                or (seqno == entry.seqno and hop_count < entry.hop_count)
            )
            if not accept:
                continue
            if hop_count >= INFINITY_METRIC:
                if entry is not None and entry.next_hop == neighbour:
                    self.table.invalidate(dst, now)
                    entry.seqno = max(entry.seqno, seqno)
                continue
            self.table.upsert(
                RouteEntry(
                    dst=dst,
                    next_hop=neighbour,
                    hop_count=hop_count,
                    seqno=seqno,
                    valid_seqno=True,
                    expires=now + lifetime,
                    valid=True,
                )
            )

    # -- link feedback ------------------------------------------------------------------

    def link_failed(self, pkt: Packet) -> None:
        broken = pkt.mac.dst
        self.node.drop(pkt, "CBK")
        now = self.env.now
        changed = False
        for entry in self.table.routes_via(broken):
            # invalidate() bumps the seqno by one, making it odd — DSDV's
            # marker for a broken route.
            self.table.invalidate(entry.dst, now)
            changed = True
        if changed:
            self._broadcast_update()
