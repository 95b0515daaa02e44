"""The AODV routing protocol engine."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.net.addresses import Address, BROADCAST
from repro.net.headers import AodvHeader
from repro.net.packet import Packet, PacketType
from repro.routing.aodv.config import AodvParams
from repro.routing.aodv.messages import make_hello, make_rerr, make_rreq, make_rrep
from repro.routing.base import RoutingProtocol
from repro.routing.table import RouteEntry, RouteTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node


@dataclass
class _Discovery:
    """State of an in-progress route discovery."""

    ttl: int
    retries: int = 0
    buffer: list[tuple[Packet, float]] = field(default_factory=list)
    #: Generation token: bumping it cancels the outstanding retry timer.
    generation: int = 0


@dataclass
class AodvStats:
    """Protocol counters used by tests and the experiment reports."""

    rreq_sent: int = 0
    rreq_forwarded: int = 0
    rrep_sent: int = 0
    rrep_forwarded: int = 0
    rerr_sent: int = 0
    hello_sent: int = 0
    discoveries: int = 0
    discovery_failures: int = 0
    buffered: int = 0
    buffer_drops: int = 0
    #: Times the whole protocol state was wiped by a node crash.
    state_resets: int = 0


class Aodv(RoutingProtocol):
    """Ad hoc On-demand Distance Vector routing."""

    def __init__(
        self, node: "Node", params: Optional[AodvParams] = None
    ) -> None:
        super().__init__(node)
        self.params = params or AodvParams()
        self.table = RouteTable()
        self.seqno = 0
        self.rreq_id = 0
        self.stats = AodvStats()
        self._discoveries: dict[Address, _Discovery] = {}
        #: (origin, rreq_id) duplicate cache with insertion times, and its
        #: keys oldest first.  Expiry pops the deque's front; walking a
        #: dict from the front would pass every slot deleted since its
        #: last resize, and an OrderedDict costs a list node per entry.
        self._rreq_seen: dict[tuple[Address, int], float] = {}
        self._rreq_order: deque[tuple[Address, int]] = deque()
        #: Last HELLO time per neighbour (when beaconing).
        self._neighbour_heard: dict[Address, float] = {}
        probes = self.env.probes
        self._obs_rreq = probes.counter("aodv.rreq.sent")
        self._obs_rrep = probes.counter("aodv.rrep.sent")
        self._obs_rerr = probes.counter("aodv.rerr.sent")
        self._obs_disc = probes.counter("aodv.discoveries")
        self._obs_disc_fail = probes.counter("aodv.discovery_failures")

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self.params.hello_interval > 0:
            self.env.process(self._hello_loop())
            self.env.process(self._neighbour_watchdog())

    def handle_crash(self) -> None:
        """Lose all volatile state: routes, discoveries, caches.

        Buffered data packets die with the node (dropped as NODE-DOWN);
        outstanding discovery timers find their generation gone and lapse.
        """
        for discovery in self._discoveries.values():
            for pkt, _ in discovery.buffer:
                self.node.drop(pkt, "NODE-DOWN")
        self._discoveries.clear()
        self.table = RouteTable()
        self._rreq_seen.clear()
        self._rreq_order.clear()
        self._neighbour_heard.clear()
        self.stats.state_resets += 1

    def handle_recovery(self) -> None:
        """Reboot: bump the sequence number so stale cached routes to us
        lose against anything we advertise post-restart (RFC 3561 §6.13
        spirit — a rebooted node must not reuse old sequence numbers)."""
        self.seqno += 1

    # -- origination -------------------------------------------------------------

    def route_packet(self, pkt: Packet) -> None:
        dst = pkt.ip.dst
        if dst == BROADCAST:
            self.node.enqueue_to_mac(pkt, BROADCAST)
            return
        if dst == self.address:
            self.node.deliver_up(pkt)
            return
        route = self.table.lookup(dst, self.env.now)
        if route is not None:
            self._refresh(dst)
            self._refresh(route.next_hop)
            self.node.enqueue_to_mac(pkt, route.next_hop)
            return
        self._buffer_and_discover(pkt)

    def _buffer_and_discover(self, pkt: Packet) -> None:
        dst = pkt.ip.dst
        discovery = self._discoveries.get(dst)
        if discovery is None:
            discovery = _Discovery(ttl=self.params.ttl_start)
            self._discoveries[dst] = discovery
            self._queue_packet(discovery, pkt)
            self.stats.discoveries += 1
            self._obs_disc.inc()
            self._send_rreq(dst, discovery)
        else:
            self._queue_packet(discovery, pkt)

    def _queue_packet(self, discovery: _Discovery, pkt: Packet) -> None:
        now = self.env.now
        # Evict stale buffered packets first.
        fresh = []
        for queued, queued_at in discovery.buffer:
            if now - queued_at > self.params.buffer_timeout:
                self.stats.buffer_drops += 1
                self.node.drop(queued, "BUF-TIMEOUT")
            else:
                fresh.append((queued, queued_at))
        discovery.buffer = fresh
        if len(discovery.buffer) >= self.params.buffer_size:
            self.stats.buffer_drops += 1
            self.node.drop(pkt, "BUF-FULL")
            return
        discovery.buffer.append((pkt, now))
        self.stats.buffered += 1

    def _send_rreq(self, dst: Address, discovery: _Discovery) -> None:
        self.seqno += 1
        self.rreq_id += 1
        entry = self.table.get(dst)
        dst_seqno = entry.seqno if entry is not None and entry.valid_seqno else 0
        unknown = entry is None or not entry.valid_seqno
        rreq = make_rreq(
            src=self.address,
            rreq_id=self.rreq_id,
            origin_seqno=self.seqno,
            dst=dst,
            dst_seqno=dst_seqno,
            unknown_seqno=unknown,
            ttl=discovery.ttl,
        )
        self._remember_rreq((self.address, self.rreq_id), self.env.now)
        self.stats.rreq_sent += 1
        self._obs_rreq.inc()
        self.node.enqueue_to_mac(rreq, BROADCAST)
        discovery.generation += 1
        self.env.process(
            self._discovery_timer(dst, discovery.generation, discovery.ttl)
        )

    def _discovery_timer(self, dst: Address, generation: int, ttl: int):
        yield self.env.timeout(self.params.ring_traversal_time(ttl))
        discovery = self._discoveries.get(dst)
        if discovery is None or discovery.generation != generation:
            return  # discovery completed or superseded
        if self.table.lookup(dst, self.env.now) is not None:
            self._complete_discovery(dst)
            return
        discovery.retries += 1
        if discovery.retries > self.params.rreq_retries:
            self._fail_discovery(dst, discovery)
            return
        # Expanding-ring escalation.
        if discovery.ttl < self.params.ttl_threshold:
            discovery.ttl = min(
                discovery.ttl + self.params.ttl_increment,
                self.params.ttl_threshold,
            )
        else:
            discovery.ttl = self.params.net_diameter
        self._send_rreq(dst, discovery)

    def _fail_discovery(self, dst: Address, discovery: _Discovery) -> None:
        self.stats.discovery_failures += 1
        self._obs_disc_fail.inc()
        for pkt, _ in discovery.buffer:
            self.node.drop(pkt, "NRTE")
        del self._discoveries[dst]

    def _complete_discovery(self, dst: Address) -> None:
        discovery = self._discoveries.pop(dst, None)
        if discovery is None:
            return
        route = self.table.lookup(dst, self.env.now)
        if route is None:
            # The table kept its invalidated entry: the RREP's seqno is
            # older than the one bumped when that route broke.  The
            # buffered packets have no route, so they are dropped.
            for pkt, _ in discovery.buffer:
                self.node.drop(pkt, "NRTE")
            return
        for pkt, queued_at in discovery.buffer:
            if self.env.now - queued_at > self.params.buffer_timeout:
                self.stats.buffer_drops += 1
                self.node.drop(pkt, "BUF-TIMEOUT")
                continue
            self._refresh(dst)
            self.node.enqueue_to_mac(pkt, route.next_hop)

    # -- packet reception -----------------------------------------------------------

    def handle_packet(self, pkt: Packet) -> None:
        if pkt.ptype == PacketType.AODV:
            self._handle_control(pkt)
            return
        self._handle_data(pkt)

    def _handle_data(self, pkt: Packet) -> None:
        if pkt.ip.dst in (self.address, BROADCAST):
            self.node.deliver_up(pkt)
            return
        if self._ttl_expired(pkt):
            return
        route = self.table.lookup(pkt.ip.dst, self.env.now)
        if route is None:
            # Forwarding failure: report the loss upstream (RFC 3561 §6.11).
            self.node.drop(pkt, "NRTE")
            self._broadcast_rerr([(pkt.ip.dst, self._last_seqno(pkt.ip.dst))])
            return
        self._refresh(pkt.ip.dst)
        self._refresh(route.next_hop)
        self._refresh(pkt.ip.src)
        pkt = self._forward_copy(pkt)
        self.node.count_forward(pkt)
        self.node.enqueue_to_mac(pkt, route.next_hop)

    def _handle_control(self, pkt: Packet) -> None:
        header: AodvHeader = pkt.header("aodv")
        prev_hop = pkt.mac.src
        if header.kind == AodvHeader.KIND_RREQ:
            self._recv_rreq(pkt, header, prev_hop)
        elif header.kind == AodvHeader.KIND_RREP:
            self._recv_rrep(pkt, header, prev_hop)
        elif header.kind == AodvHeader.KIND_RERR:
            self._recv_rerr(header, prev_hop)
        elif header.kind == AodvHeader.KIND_HELLO:
            self._recv_hello(header, prev_hop)

    # -- RREQ ----------------------------------------------------------------------------

    def _recv_rreq(self, pkt: Packet, header: AodvHeader, prev_hop: Address) -> None:
        if header.origin == self.address:
            return  # our own flood came back
        key = (header.origin, header.rreq_id)
        now = self.env.now
        self._expire_rreq_cache(now)
        if key in self._rreq_seen:
            return
        self._remember_rreq(key, now)

        hop_count = header.hop_count + 1
        # Create/refresh the reverse route to the originator.
        self._update_route(
            dst=header.origin,
            next_hop=prev_hop,
            hop_count=hop_count,
            seqno=header.origin_seqno,
            valid_seqno=True,
            lifetime=self.params.net_traversal_time * 2,
        )
        # And a route to the previous hop itself.
        self._update_neighbour(prev_hop)

        if header.dst == self.address:
            # We are the destination: answer with our own seqno.
            if header.dst_seqno > self.seqno:
                self.seqno = header.dst_seqno
            if not header.unknown_seqno and header.dst_seqno == self.seqno:
                self.seqno += 1
            self._send_rrep(
                origin=header.origin,
                dst=self.address,
                dst_seqno=self.seqno,
                hop_count=0,
                lifetime=self.params.my_route_timeout,
            )
            return

        entry = self.table.lookup(header.dst, now)
        fresh_enough = (
            entry is not None
            and entry.valid_seqno
            and (header.unknown_seqno or entry.seqno >= header.dst_seqno)
        )
        if fresh_enough:
            # Intermediate reply from our cached route.
            remaining = max(0.0, entry.expires - now)
            self._send_rrep(
                origin=header.origin,
                dst=header.dst,
                dst_seqno=entry.seqno,
                hop_count=entry.hop_count,
                lifetime=remaining,
            )
            if self.params.gratuitous_rrep:
                # Tell the destination about the origin too, so its
                # return traffic needs no discovery of its own.
                self._send_gratuitous_rrep(header, entry)
            return

        # Re-flood while TTL lasts, as our own copy of the shared frame.
        if pkt.ip.ttl <= 1:
            return
        pkt = pkt._clone()
        pkt.ip.ttl -= 1
        pkt.header("aodv").hop_count = hop_count
        self.stats.rreq_forwarded += 1
        self.node.enqueue_to_mac(pkt, BROADCAST)

    def _remember_rreq(self, key: tuple[Address, int], now: float) -> None:
        # Keys enter the cache once, at env.now, so insertion order is
        # time order and the stale entries are always its oldest ones.
        self._rreq_seen[key] = now
        self._rreq_order.append(key)

    def _expire_rreq_cache(self, now: float) -> None:
        horizon = now - self.params.path_discovery_time
        seen, order = self._rreq_seen, self._rreq_order
        while order and seen[order[0]] < horizon:
            del seen[order.popleft()]

    # -- RREP -------------------------------------------------------------------------------

    def _send_rrep(
        self,
        origin: Address,
        dst: Address,
        dst_seqno: int,
        hop_count: int,
        lifetime: float,
    ) -> None:
        reverse = self.table.lookup(origin, self.env.now)
        if reverse is None:
            return  # reverse path evaporated
        rrep = make_rrep(
            src=self.address,
            origin=origin,
            dst=dst,
            dst_seqno=dst_seqno,
            hop_count=hop_count,
            lifetime=lifetime,
            ttl=self.params.net_diameter,
        )
        self.stats.rrep_sent += 1
        self._obs_rrep.inc()
        # Forward route's precursors learn about the reverse next hop.
        forward = self.table.get(dst)
        if forward is not None:
            forward.precursors.add(reverse.next_hop)
        self.node.enqueue_to_mac(rrep, reverse.next_hop)

    def _send_gratuitous_rrep(self, rreq: AodvHeader, route) -> None:
        """Unicast a RREP describing the RREQ's *origin* toward the
        cached route's destination (RFC 3561 §6.6.3)."""
        origin_route = self.table.lookup(rreq.origin, self.env.now)
        if origin_route is None:
            return
        grat = make_rrep(
            src=self.address,
            origin=rreq.dst,      # travels toward the destination
            dst=rreq.origin,      # and describes a route to the origin
            dst_seqno=rreq.origin_seqno,
            hop_count=origin_route.hop_count,
            lifetime=max(0.0, origin_route.expires - self.env.now),
            ttl=self.params.net_diameter,
        )
        self.stats.rrep_sent += 1
        self._obs_rrep.inc()
        self.node.enqueue_to_mac(grat, route.next_hop)

    def _recv_rrep(self, pkt: Packet, header: AodvHeader, prev_hop: Address) -> None:
        hop_count = header.hop_count + 1
        self._update_neighbour(prev_hop)
        self._update_route(
            dst=header.dst,
            next_hop=prev_hop,
            hop_count=hop_count,
            seqno=header.dst_seqno,
            valid_seqno=True,
            lifetime=header.lifetime or self.params.active_route_timeout,
        )
        if header.origin == self.address:
            self._complete_discovery(header.dst)
            return
        # Forward the RREP along the reverse path.
        reverse = self.table.lookup(header.origin, self.env.now)
        if reverse is None:
            self.node.drop(pkt, "NRTE-RREP")
            return
        if self._ttl_expired(pkt):
            return
        pkt = pkt._clone()
        pkt.ip.ttl -= 1
        pkt.header("aodv").hop_count = hop_count
        forward = self.table.get(header.dst)
        if forward is not None:
            forward.precursors.add(reverse.next_hop)
        self.stats.rrep_forwarded += 1
        self.node.enqueue_to_mac(pkt, reverse.next_hop)

    # -- RERR and link failures -----------------------------------------------------------------

    def link_failed(self, pkt: Packet) -> None:
        """MAC retry exhaustion: the link to ``pkt.mac.dst`` is broken."""
        broken = pkt.mac.dst
        self.node.drop(pkt, "CBK")
        unreachable: list[tuple[Address, int]] = []
        for entry in self.table.routes_via(broken):
            self.table.invalidate(
                entry.dst, self.env.now, hold=self.params.delete_period
            )
            unreachable.append((entry.dst, entry.seqno))
        if unreachable:
            self._broadcast_rerr(unreachable)

    def _broadcast_rerr(self, unreachable: list[tuple[Address, int]]) -> None:
        rerr = make_rerr(self.address, unreachable)
        self.stats.rerr_sent += 1
        self._obs_rerr.inc()
        self.node.enqueue_to_mac(rerr, BROADCAST)

    def _recv_rerr(self, header: AodvHeader, prev_hop: Address) -> None:
        propagate: list[tuple[Address, int]] = []
        for dst, seqno in header.unreachable:
            entry = self.table.get(dst)
            if (
                entry is not None
                and entry.valid
                and entry.next_hop == prev_hop
            ):
                entry.seqno = max(entry.seqno, seqno)
                self.table.invalidate(
                    dst, self.env.now, hold=self.params.delete_period
                )
                if entry.precursors:
                    propagate.append((dst, entry.seqno))
        if propagate:
            self._broadcast_rerr(propagate)

    # -- HELLO beaconing ------------------------------------------------------------------------------

    def _hello_loop(self):
        while True:
            yield self.env.timeout(self.params.hello_interval)
            self.seqno += 1
            hello = make_hello(
                self.address,
                self.seqno,
                self.params.allowed_hello_loss * self.params.hello_interval,
            )
            self.stats.hello_sent += 1
            self.node.enqueue_to_mac(hello, BROADCAST)

    def _recv_hello(self, header: AodvHeader, prev_hop: Address) -> None:
        self._neighbour_heard[header.dst] = self.env.now
        self._update_route(
            dst=header.dst,
            next_hop=header.dst,
            hop_count=1,
            seqno=header.dst_seqno,
            valid_seqno=True,
            lifetime=header.lifetime,
        )

    def _neighbour_watchdog(self):
        interval = self.params.hello_interval
        while True:
            yield self.env.timeout(interval)
            deadline = self.env.now - self.params.allowed_hello_loss * interval
            lost = [
                n for n, heard in self._neighbour_heard.items() if heard < deadline
            ]
            for neighbour in lost:
                del self._neighbour_heard[neighbour]
                unreachable = []
                for entry in self.table.routes_via(neighbour):
                    self.table.invalidate(
                        entry.dst, self.env.now, hold=self.params.delete_period
                    )
                    unreachable.append((entry.dst, entry.seqno))
                if unreachable:
                    self._broadcast_rerr(unreachable)

    # -- route-table helpers -------------------------------------------------------------------------

    def _update_route(
        self,
        dst: Address,
        next_hop: Address,
        hop_count: int,
        seqno: int,
        valid_seqno: bool,
        lifetime: float,
    ) -> None:
        """Apply RFC 3561 route-update rules for learned routing state."""
        now = self.env.now
        entry = self.table.get(dst)
        expires = now + lifetime
        if entry is None:
            self.table.upsert(
                RouteEntry(
                    dst=dst,
                    next_hop=next_hop,
                    hop_count=hop_count,
                    seqno=seqno,
                    valid_seqno=valid_seqno,
                    expires=expires,
                    valid=True,
                )
            )
            return
        newer = valid_seqno and (
            not entry.valid_seqno
            or seqno > entry.seqno
            or (seqno == entry.seqno and hop_count < entry.hop_count)
            or (seqno == entry.seqno and not entry.is_usable(now))
        )
        if newer:
            entry.next_hop = next_hop
            entry.hop_count = hop_count
            entry.seqno = seqno
            entry.valid_seqno = True
            entry.valid = True
            entry.expires = max(entry.expires, expires)
        elif entry.next_hop == next_hop and entry.valid:
            entry.expires = max(entry.expires, expires)

    def _update_neighbour(self, neighbour: Address) -> None:
        entry = self.table.get(neighbour)
        lifetime = self.env.now + self.params.active_route_timeout
        if entry is None:
            self.table.upsert(
                RouteEntry(
                    dst=neighbour,
                    next_hop=neighbour,
                    hop_count=1,
                    seqno=0,
                    valid_seqno=False,
                    expires=lifetime,
                    valid=True,
                )
            )
        elif entry.valid:
            entry.expires = max(entry.expires, lifetime)

    def _refresh(self, dst: Address) -> None:
        entry = self.table.get(dst)
        if entry is not None and entry.valid:
            entry.expires = max(
                entry.expires, self.env.now + self.params.active_route_timeout
            )

    def _last_seqno(self, dst: Address) -> int:
        entry = self.table.get(dst)
        return entry.seqno if entry is not None else 0
