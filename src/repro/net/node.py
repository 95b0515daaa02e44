"""Mobile node: the assembled protocol stack.

A node owns one radio, one MAC with its interface queue, a routing
protocol, and any number of transport agents demultiplexed by port —
the Python equivalent of ns-2's mobile-node composite object.

Data path::

    agent.send ─▶ node.send ─▶ routing.route_packet ─▶ node.enqueue_to_mac
        ─▶ ifq ─▶ mac ─▶ phy ─▶ channel ─▶ peer phy ─▶ peer mac
        ─▶ node._recv_from_mac ─▶ routing.handle_packet
        ─▶ node.deliver_up ─▶ agent.receive
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.net.addresses import Address
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.mac.base import Mac
from repro.mobility.base import MobilityModel
from repro.phy.radio import RadioParams, WirelessPhy

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.core import Environment
    from repro.net.channel import WirelessChannel


class Node:
    """One simulated vehicle/host with a full wireless stack."""

    def __init__(
        self,
        env: "Environment",
        address: Address,
        mobility: MobilityModel,
        channel: "WirelessChannel",
        mac_factory: Callable[["Environment", Address, WirelessPhy, DropTailQueue], Mac],
        queue_factory: Optional[
            Callable[["Environment"], DropTailQueue]
        ] = None,
        radio_params: Optional[RadioParams] = None,
        tracer: Optional[object] = None,
        use_arp: bool = False,
    ) -> None:
        if address < 0:
            raise ValueError("node address must be non-negative")
        self.env = env
        self.address = address
        self.mobility = mobility
        #: Where every packet event goes: the tracer, then the packet
        #: sinks of the scenario's probes (:class:`repro.obs.probes.Probes`).
        sinks = env.probes.packet_sinks
        self._sinks = sinks if tracer is None else (tracer, *sinks)
        self.phy = WirelessPhy(
            env,
            position_fn=lambda: mobility.position(env.now),
            params=radio_params,
        )
        channel.attach(self.phy)
        if queue_factory is None:
            self.ifq = DropTailQueue(env, drop_callback=self._queue_drop)
        else:
            self.ifq = queue_factory(env)
            self.ifq.drop_callback = self._queue_drop
        self.mac = mac_factory(env, address, self.phy, self.ifq)
        self.mac.recv_callback = self._recv_from_mac
        self.mac.link_failure_callback = self._link_failed
        self.mac.link_success_callback = self._link_ok
        self.mac.trace_callback = self._trace
        if use_arp:
            from repro.net.arp import ArpLayer

            self.arp = ArpLayer(self)
        else:
            self.arp = None
        self.routing = None
        self.agents: dict[int, object] = {}
        #: Statistics.
        self.packets_originated = 0
        self.packets_delivered = 0
        self.packets_forwarded = 0
        self.packets_dropped = 0

    def __repr__(self) -> str:
        return f"<Node {self.address} at {self.position}>"

    # -- assembly ----------------------------------------------------------------

    def set_routing(self, routing: object) -> None:
        """Install the routing protocol (must happen before :meth:`start`)."""
        self.routing = routing

    def add_agent(self, port: int, agent: object) -> None:
        """Bind a transport agent to a local port."""
        if port in self.agents:
            raise ValueError(f"port {port} already bound on node {self.address}")
        self.agents[port] = agent

    def start(self) -> None:
        """Start the MAC service loop and the routing protocol."""
        if self.routing is None:
            raise RuntimeError(f"node {self.address} has no routing protocol")
        self.mac.start()
        self.routing.start()

    # -- geometry --------------------------------------------------------------------

    @property
    def position(self) -> tuple[float, float]:
        """Current position, metres."""
        return self.mobility.position(self.env.now)

    # -- downward path --------------------------------------------------------------------

    def send(self, pkt: Packet) -> None:
        """Entry point for locally originated packets (from agents)."""
        self.packets_originated += 1
        self._trace("s", pkt, "AGT")
        self.routing.route_packet(pkt)

    def enqueue_to_mac(self, pkt: Packet, next_hop: Address) -> None:
        """Hand a packet to the interface queue bound for ``next_hop``."""
        self._trace("s", pkt, "RTR")
        if self.arp is not None:
            self.arp.resolve_and_send(pkt, next_hop)
            return
        pkt.mac.dst = next_hop
        pkt.mac.src = self.address
        self.ifq.put(pkt)

    # -- upward path -------------------------------------------------------------------------

    def _recv_from_mac(self, pkt: Packet) -> None:
        if self.arp is not None and self.arp.handle(pkt):
            return
        if self.routing is not None:
            self.routing.handle_packet(pkt)

    def deliver_up(self, pkt: Packet) -> None:
        """Deliver a packet addressed to this node to its agent."""
        self.packets_delivered += 1
        self._trace("r", pkt, "AGT")
        agent = self.agents.get(pkt.ip.dport)
        if agent is not None:
            agent.receive(pkt)

    def drop(self, pkt: Packet, reason: str) -> None:
        """Record a routing-layer packet drop."""
        self.packets_dropped += 1
        self._trace("D", pkt, reason)

    def count_forward(self, pkt: Packet) -> None:
        """Record that a packet was forwarded on behalf of another node."""
        self.packets_forwarded += 1
        self._trace("f", pkt, "RTR")

    # -- link feedback -------------------------------------------------------------------------

    def _link_failed(self, pkt: Packet) -> None:
        if self.routing is not None:
            self.routing.link_failed(pkt)

    def _link_ok(self, pkt: Packet) -> None:
        if self.routing is not None:
            self.routing.link_ok(pkt)

    # -- tracing -----------------------------------------------------------------------------------

    def _queue_drop(self, pkt: Packet, reason: str) -> None:
        self.packets_dropped += 1
        self._trace("D", pkt, reason)

    def _trace(self, event: str, pkt: Packet, layer: str) -> None:
        for sink in self._sinks:
            sink.record(event, self.env.now, self.address, layer, pkt)
