"""The simulation packet: one object per in-flight datagram.

Packets follow ns-2's model: a *common* part (uid, type, size, creation
timestamp) plus a stack of protocol headers (:mod:`repro.net.headers`).
``size`` is the total on-the-wire byte count used to compute transmission
times; transport agents set it to payload plus header overhead.
"""

from __future__ import annotations

import copy as _copy
import dataclasses
import enum
import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.net.addresses import Address, BROADCAST
from repro.net.headers import IpHeader, MacHeader
from repro.perf.fastpath import FASTPATH

_uid_counter = itertools.count()


def reset_uid_counter() -> None:
    """Start packet uids from zero again.

    Every :class:`~repro.core.scenario.EblScenario` calls this when it is
    built, so a trial's uids, and the trace digests that cover them, do
    not depend on what ran earlier in the same process.  Code that draws
    uids reads ``_uid_counter`` through this module at call time, so the
    rebinding reaches it.
    """
    global _uid_counter
    _uid_counter = itertools.count()


#: Per-header-class cache of compiled copy functions (built on first use;
#: header dataclasses have fixed field sets, so the copier can be
#: specialised once per class).
_HEADER_COPIERS: dict[type, Any] = {}


def _compile_copier(cls: type, sample: Any) -> Any:
    """Build a specialised ``copy(header)`` function for one header class.

    Headers are flat dataclasses of scalars plus the occasional list/set
    of immutable entries, so a field-by-field copy with fresh containers
    is equivalent to a deep copy at a fraction of the cost — and this is
    the simulator's hottest function.  The copier is generated as one
    straight-line function (no per-field loop, no getattr dispatch), the
    same trick ``copyreg``/``dataclasses`` use for ``__init__``.

    Container detection is by the *current* value of each field on the
    sample instance; header fields never change category (a list field
    stays a list), which the dataclass definitions in
    :mod:`repro.net.headers` guarantee.
    """
    lines = ["def _copy_header(h):", "    d = _new(_cls)"]
    for f in dataclasses.fields(cls):
        value = getattr(sample, f.name)
        if isinstance(value, (list, set, dict)):
            lines.append(f"    v = h.{f.name}")
            lines.append(f"    d.{f.name} = type(v)(v)")
        else:
            lines.append(f"    d.{f.name} = h.{f.name}")
    lines.append("    return d")
    namespace: dict[str, Any] = {"_cls": cls, "_new": cls.__new__}
    exec("\n".join(lines), namespace)  # noqa: S102 - fields, not user input
    return namespace["_copy_header"]


def _dup_header(header: Any) -> Any:
    """Duplicate one protocol header via its compiled per-class copier.

    Anything that is not a dataclass falls back to ``deepcopy``.
    """
    cls = type(header)
    copier = _HEADER_COPIERS.get(cls)
    if copier is None:
        if not dataclasses.is_dataclass(header):
            return _copy.deepcopy(header)
        copier = _compile_copier(cls, header)
        _HEADER_COPIERS[cls] = copier
    return copier(header)


class PacketType(enum.Enum):
    """Packet type tags used for tracing and queue prioritisation."""

    TCP = "tcp"
    ACK = "ack"
    UDP = "udp"
    CBR = "cbr"
    AODV = "aodv"
    DSDV = "dsdv"
    MAC = "mac"  # RTS/CTS/ACK control frames
    EBL = "ebl"

    @property
    def is_routing_control(self) -> bool:
        """True for routing-protocol control traffic (gets queue priority)."""
        return self in (PacketType.AODV, PacketType.DSDV)


@(dataclass(slots=True) if FASTPATH else dataclass)
class Packet:
    """A single simulated packet.

    Attributes
    ----------
    uid:
        Unique id within one scenario (fresh per packet object; copies
        get new uids unless copied via :meth:`copy` with
        ``keep_uid=True``).  The wireless channel hands every receiver of
        a transmission the same frame, and a routing layer forwards its
        own copy of a frame it received; all of these share the sender's
        uid.
    ptype:
        Coarse packet class for tracing/queueing.
    size:
        Total bytes on the wire (payload + transport + IP headers; MAC
        framing is accounted for as time by the MAC layer).
    ip:
        Network-layer header.
    mac:
        Link-layer header (filled in hop by hop).
    headers:
        Additional protocol headers keyed by name ("tcp", "aodv", ...).
    timestamp:
        Simulated creation time at the original sender; one-way delay is
        measured against this.
    """

    ptype: PacketType
    size: int
    ip: IpHeader
    mac: MacHeader = field(default_factory=MacHeader)
    headers: dict[str, Any] = field(default_factory=dict)
    timestamp: float = 0.0
    uid: int = field(default_factory=lambda: next(_uid_counter))
    #: Number of hops traversed so far (incremented by the routing layer).
    num_forwards: int = 0
    #: Free-form per-packet annotations for tracing/analysis.
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"packet size must be positive, got {self.size}")

    @property
    def src(self) -> Address:
        """Network-layer source address."""
        return self.ip.src

    @property
    def dst(self) -> Address:
        """Network-layer destination address."""
        return self.ip.dst

    @property
    def is_broadcast(self) -> bool:
        """True if the network-layer destination is the broadcast address."""
        return self.ip.dst == BROADCAST

    def header(self, name: str) -> Any:
        """Return the named protocol header, raising KeyError if absent."""
        return self.headers[name]

    def copy(self, keep_uid: bool = False) -> "Packet":
        """Copy this packet with independent headers (fresh uid unless
        ``keep_uid``).

        The reference channel loop hands an independent copy to every
        receiver so per-hop mutations (TTL, MAC header) cannot alias.
        Headers are duplicated via compiled per-class copiers rather than
        ``deepcopy``.  Every copy draws one uid, even with ``keep_uid``.
        """
        dup = Packet(
            ptype=self.ptype,
            size=self.size,
            ip=_dup_header(self.ip),
            mac=_dup_header(self.mac),
            headers={k: _dup_header(v) for k, v in self.headers.items()},
            timestamp=self.timestamp,
            num_forwards=self.num_forwards,
            meta=dict(self.meta),
        )
        if keep_uid:
            dup.uid = self.uid
        return dup

    def _clone(self) -> "Packet":
        """Copy with independent headers and the same uid, drawing none.

        The channel's one frame per transmission and a routing layer's
        copy of a received packet it forwards are made this way: neither
        is a new packet.  The channel advances the uid sequence once per
        delivery instead, exactly as the reference loop's per-receiver
        :meth:`copy` calls advance it.
        """
        dup = Packet.__new__(Packet)
        dup.ptype = self.ptype
        dup.size = self.size
        dup.ip = _dup_header(self.ip)
        dup.mac = _dup_header(self.mac)
        dup.headers = {k: _dup_header(v) for k, v in self.headers.items()}
        dup.timestamp = self.timestamp
        dup.uid = self.uid
        dup.num_forwards = self.num_forwards
        dup.meta = dict(self.meta)
        return dup

    def __repr__(self) -> str:
        return (
            f"Packet(uid={self.uid}, {self.ptype.value}, {self.size}B, "
            f"{self.ip.src}->{self.ip.dst})"
        )
