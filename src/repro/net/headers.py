"""Protocol header structures carried inside :class:`~repro.net.packet.Packet`.

Each header is a small mutable dataclass stored on the packet under a
well-known key (``pkt.headers["tcp"]`` etc.), mirroring ns-2's packet header
stack.  Header *wire sizes* (bytes added to the packet's byte count) are
declared as class attributes so transport/MAC layers can account for
overhead consistently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.addresses import Address, BROADCAST
from repro.perf.fastpath import FASTPATH

#: Headers are copied once per transmission and once per forwarded packet,
#: so their memory layout is hot; slotted dataclasses drop the
#: per-instance dict (reference mode keeps the plain layout).
_slotted = dataclass(slots=True) if FASTPATH else dataclass


@_slotted
class IpHeader:
    """Network-layer header (20 bytes on the wire)."""

    WIRE_SIZE = 20

    src: Address
    dst: Address
    ttl: int = 32
    sport: int = 0
    dport: int = 0


@_slotted
class MacHeader:
    """Link-layer header filled in by the routing layer / MAC.

    ``src``/``dst`` are link-level addresses (same integer space as IP
    addresses here; the optional :mod:`repro.net.arp` layer resolves them
    with an explicit request/reply when enabled).
    """

    WIRE_SIZE = 28  # 802.11 data MAC header + FCS

    src: Address = BROADCAST
    dst: Address = BROADCAST
    #: NAV duration in seconds announced by this frame (802.11 virtual CS).
    duration: float = 0.0
    #: Frame subtype: "data", "ack", "rts", "cts", or "tdma-data".
    subtype: str = "data"
    #: Retry counter stamped by the MAC for tracing.
    retries: int = 0


@_slotted
class TcpHeader:
    """Simplified one-way TCP header (ns-2 Agent/TCP style).

    Sequence numbers count *segments*, not bytes, exactly as ns-2 does;
    the byte count is reconstructed as ``seqno * segment_size``.
    """

    WIRE_SIZE = 20

    seqno: int = 0
    ackno: int = -1
    is_ack: bool = False
    #: Timestamp echoed by the sink for RTT sampling.
    ts_echo: float = 0.0
    #: Number of bytes of application payload in this segment.
    payload: int = 0


@_slotted
class UdpHeader:
    """UDP header (8 bytes on the wire)."""

    WIRE_SIZE = 8

    seqno: int = 0
    payload: int = 0


@_slotted
class AodvHeader:
    """AODV control header (RFC 3561 field subset).

    A single structure covers RREQ/RREP/RERR/HELLO; ``kind`` selects which
    fields are meaningful.  Wire sizes follow the RFC message formats.
    """

    KIND_RREQ = "rreq"
    KIND_RREP = "rrep"
    KIND_RERR = "rerr"
    KIND_HELLO = "hello"

    WIRE_SIZES = {"rreq": 24, "rrep": 20, "rerr": 12, "hello": 20}

    kind: str = KIND_RREQ
    hop_count: int = 0
    #: RREQ id, unique per originator (duplicate suppression).
    rreq_id: int = 0
    dst: Address = BROADCAST
    dst_seqno: int = 0
    #: True if the originator has no valid dst seqno ("unknown seqno" flag).
    unknown_seqno: bool = False
    origin: Address = BROADCAST
    origin_seqno: int = 0
    #: For RERR: list of (unreachable destination, its last known seqno).
    unreachable: list[tuple[Address, int]] = field(default_factory=list)
    #: Route lifetime advertised in RREP/HELLO (seconds).
    lifetime: float = 0.0

    @property
    def wire_size(self) -> int:
        """Size in bytes of this control message on the wire."""
        base = self.WIRE_SIZES[self.kind]
        if self.kind == self.KIND_RERR:
            return base + 8 * max(0, len(self.unreachable) - 1)
        return base


@_slotted
class EblHeader:
    """Extended-Brake-Lights application payload descriptor.

    Carried by EBL warning packets so traces can distinguish the initial
    brake notification from the subsequent stream.
    """

    WIRE_SIZE = 8

    #: Identifier of the braking (sending) vehicle.
    vehicle: int = 0
    #: Monotonic warning sequence number within one braking episode.
    warning_seq: int = 0
    #: True for the first packet of a braking episode (used by the safety
    #: analysis in §III.E of the paper).
    initial: bool = False
    #: Deceleration being applied by the sender, m/s² (informational).
    deceleration: float = 0.0
    #: True when this packet acknowledges a received initial warning
    #: (sent unicast back to the warning's originator).
    ack: bool = False


@_slotted
class DsdvHeader:
    """DSDV full/incremental dump header (baseline protocol)."""

    WIRE_SIZE = 12

    #: List of (destination, metric, seqno) triples advertised.
    entries: list[tuple[Address, int, int]] = field(default_factory=list)

    @property
    def wire_size(self) -> int:
        """Size in bytes: fixed part plus 12 bytes per advertised route."""
        return self.WIRE_SIZE + 12 * len(self.entries)
