"""Packet-journey spans: per-packet (layer, event, sim-time) hop lists.

A journey is the causally ordered list of hops one packet (by uid) takes
through the stack, from the originating agent's ``s AGT`` to the
receiving agent's ``r AGT`` — the same event spine the ns-2-style tracer
records, plus MAC retry marks (event ``x``).  Hops are appended as the
simulation executes, so the list is inherently time-ordered.

Events reuse the tracer's vocabulary:

====== =======================================================
``s``  sent at a layer (AGT = agent, RTR = routing, MAC)
``r``  received at a layer
``f``  forwarded by the routing layer on behalf of another node
``D``  dropped (the ``layer`` field carries the drop reason)
``x``  MAC retransmission attempt (DCF retry, EBL app retry)
====== =======================================================

:func:`dwell_breakdown` turns a delivered journey into per-layer dwell
times; :func:`aggregate_dwell` folds those across all delivered data
journeys into the trial-summary aggregate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, NamedTuple, Optional

from repro.net.packet import PacketType

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet

#: Journey cap: journeys for uids beyond this are not started (hops for
#: already-tracked uids keep accumulating).  Bounds memory on long runs.
DEFAULT_MAX_JOURNEYS = 4096

#: Packet types whose journeys count as data for dwell aggregation.
DATA_PTYPES = frozenset({"tcp", "udp", "cbr", "ebl"})

#: Dwell attribution: the segment from a hop to its successor is charged
#: to the layer the packet was in *after* that hop.
_SEGMENT_LAYER = {
    ("s", "AGT"): "routing",   # agent handed down; routing may buffer
    ("f", "RTR"): "routing",   # forwarding decision on an intermediate hop
    ("s", "RTR"): "mac",       # enqueued to the interface queue
    ("x", "MAC"): "mac",       # retry backoff/contention
    ("s", "MAC"): "air",       # on the air (propagation + reception)
    ("r", "MAC"): "stack",     # receiver-side demux up to the agent
}

#: Per-layer dwell keys in stack order (used for stable rendering).
DWELL_LAYERS = ("routing", "mac", "air", "stack", "other")


class Hop(NamedTuple):
    """One step of a packet's journey.

    A ``NamedTuple`` rather than a dataclass: one hop is appended per
    trace event, so construction cost is the journey tracker's entire
    hot path (the bench guard holds telemetry under 10% overhead).
    """

    event: str
    layer: str
    node: int
    time: float


class Journey:
    """All hops recorded for one packet uid."""

    __slots__ = ("uid", "ptype", "src", "dst", "size", "seqno", "hops")

    def __init__(
        self,
        uid: int,
        ptype: str,
        src: int,
        dst: int,
        size: int,
        seqno: Optional[int] = None,
    ) -> None:
        self.uid = uid
        self.ptype = ptype
        self.src = src
        self.dst = dst
        self.size = size
        self.seqno = seqno
        self.hops: list[Hop] = []

    def __repr__(self) -> str:
        return (
            f"<Journey uid={self.uid} {self.ptype} {self.src}->{self.dst} "
            f"{len(self.hops)} hops>"
        )

    @property
    def start_time(self) -> float:
        """Time of the first recorded hop (NaN when empty)."""
        return self.hops[0].time if self.hops else float("nan")

    def delivery_hop(self) -> Optional[Hop]:
        """The first agent-level reception at the packet's destination."""
        for hop in self.hops:
            if hop.event == "r" and hop.layer == "AGT" and hop.node == self.dst:
                return hop
        return None

    @property
    def delivered(self) -> bool:
        """True once the destination agent received the packet."""
        return self.delivery_hop() is not None

    @property
    def dropped(self) -> bool:
        """True if any hop recorded a drop."""
        return any(hop.event == "D" for hop in self.hops)

    @property
    def retries(self) -> int:
        """MAC retransmission attempts recorded along the way."""
        return sum(1 for hop in self.hops if hop.event == "x")

    def end_to_end_delay(self) -> Optional[float]:
        """Delivery time minus first-hop time (None when undelivered)."""
        delivery = self.delivery_hop()
        if delivery is None or not self.hops:
            return None
        return delivery.time - self.hops[0].time

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form (one line of the journeys JSONL export)."""
        return {
            "uid": self.uid,
            "ptype": self.ptype,
            "src": self.src,
            "dst": self.dst,
            "size": self.size,
            "seqno": self.seqno,
            "delivered": self.delivered,
            "retries": self.retries,
            "delay": self.end_to_end_delay(),
            "hops": [
                {
                    "event": hop.event,
                    "layer": hop.layer,
                    "node": hop.node,
                    "t": hop.time,
                }
                for hop in self.hops
            ],
        }


def dwell_breakdown(journey: Journey) -> dict[str, float]:
    """Per-layer dwell seconds of a journey, up to its delivery hop.

    Each inter-hop segment is charged to the layer the packet occupied
    after the earlier hop (see the module docstring).  ``mac`` therefore
    includes interface-queue wait, channel access (slot wait or backoff
    and retries), and frame serialization; ``air`` is what remains
    between the sender's MAC send mark and the receiver's MAC reception.
    Hops after delivery (e.g. the DCF sender's ACK-confirmed send mark)
    are ignored.  Empty when the journey was never delivered.
    """
    delivery = journey.delivery_hop()
    if delivery is None:
        return {}
    dwell: dict[str, float] = {}
    previous: Optional[Hop] = None
    for hop in journey.hops:
        if previous is not None:
            label = _SEGMENT_LAYER.get((previous.event, previous.layer), "other")
            dwell[label] = dwell.get(label, 0.0) + (hop.time - previous.time)
        previous = hop
        if hop is delivery:
            break
    return dwell


def aggregate_dwell(journeys: Iterator[Journey]) -> dict[str, dict[str, float]]:
    """Fold delivered data journeys into per-layer dwell statistics.

    Returns ``{layer: {count, total, mean, max}}`` over every delivered
    journey whose ptype is data traffic (:data:`DATA_PTYPES`).
    """
    totals: dict[str, list[float]] = {}
    for journey in journeys:
        if journey.ptype not in DATA_PTYPES:
            continue
        for layer, seconds in dwell_breakdown(journey).items():
            totals.setdefault(layer, []).append(seconds)
    out: dict[str, dict[str, float]] = {}
    for layer, samples in totals.items():
        out[layer] = {
            "count": float(len(samples)),
            "total": sum(samples),
            "mean": sum(samples) / len(samples),
            "max": max(samples),
        }
    return out


class JourneyTracker:
    """Records journeys for every packet uid it sees (up to a cap).

    The tracker only ever *reads* packets — it never mutates them, never
    draws randomness, and never schedules events, so enabling it cannot
    perturb the simulation (the differential-digest guarantee).  Keying
    by uid sidesteps copy aliasing: the frame the channel shares among
    its receivers and each MAC's copy of a frame it accepts keep the
    sender's uid, so their hops land on the same journey.
    """

    def __init__(self, max_journeys: int = DEFAULT_MAX_JOURNEYS) -> None:
        if max_journeys <= 0:
            raise ValueError("max_journeys must be positive")
        self.max_journeys = max_journeys
        self._journeys: dict[int, Journey] = {}
        #: Journeys not started because the cap was hit.
        self.overflow = 0

    def __len__(self) -> int:
        return len(self._journeys)

    def record(
        self, event: str, time: float, node: int, layer: str, pkt: "Packet"
    ) -> None:
        """Append one hop for ``pkt`` (starting its journey if new)."""
        journey = self._journeys.get(pkt.uid)
        if journey is None:
            if len(self._journeys) >= self.max_journeys:
                self.overflow += 1
                return
            ptype = pkt.ptype.value if isinstance(pkt.ptype, PacketType) else str(pkt.ptype)
            header = pkt.headers.get("tcp")
            seqno = getattr(header, "seqno", None) if header is not None else None
            journey = Journey(
                uid=pkt.uid,
                ptype=ptype,
                src=int(pkt.ip.src),
                dst=int(pkt.ip.dst),
                size=pkt.size,
                seqno=seqno,
            )
            self._journeys[pkt.uid] = journey
        journey.hops.append(Hop(event, layer, node, time))

    def journey(self, uid: int) -> Optional[Journey]:
        """The journey for one packet uid, or None."""
        return self._journeys.get(uid)

    def journeys(self) -> list[Journey]:
        """All journeys in first-seen order."""
        return list(self._journeys.values())

    def iter_journeys(self) -> Iterator[Journey]:
        """Iterate journeys in first-seen order."""
        return iter(self._journeys.values())

    def find(
        self,
        ptype: Optional[str] = None,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        seqno: Optional[int] = None,
        delivered: Optional[bool] = None,
    ) -> list[Journey]:
        """Journeys matching every given criterion, in first-seen order."""
        out = []
        for journey in self._journeys.values():
            if ptype is not None and journey.ptype != ptype:
                continue
            if src is not None and journey.src != src:
                continue
            if dst is not None and journey.dst != dst:
                continue
            if seqno is not None and journey.seqno != seqno:
                continue
            if delivered is not None and journey.delivered != delivered:
                continue
            out.append(journey)
        return out

    def slowest(self, n: int = 10) -> list[Journey]:
        """The ``n`` delivered journeys with the largest end-to-end delay."""
        delivered = [
            (journey.end_to_end_delay(), journey)
            for journey in self._journeys.values()
            if journey.delivered
        ]
        delivered.sort(key=lambda pair: (-(pair[0] or 0.0), pair[1].uid))
        return [journey for _, journey in delivered[:n]]

    def dwell_summary(self) -> dict[str, dict[str, float]]:
        """Aggregated per-layer dwell over delivered data journeys."""
        return aggregate_dwell(self.iter_journeys())
