"""Packet conservation ledger.

The ledger is fed from the same two sources as the rest of the
simulator's accounting:

* every trace event (``s``/``r``/``f``/``D``/``x``) through
  :meth:`repro.net.node.Node._trace`, keyed by packet uid.  The frame
  the channel shares among the radios in range, which the stacks above
  them read, and the copy a routing layer makes to forward it keep the
  sender's uid, so they land on one record; and
* *loss notes* from the channel and phy — the silent loss sites at each
  receiver (link blocked by a fault, below carrier sense, degradation
  window, collision, crashed radio, error model) that produce no trace
  event.  A note **attributes** the loss: a uid that died at a noted
  site at every receiver is accounted for, not leaked.

At trial end :meth:`audit` demands that every *traced* uid terminated in
exactly one of the allowed ways: delivered to an agent, dropped with a
reason, attributed to a noted loss, still resident in a declared buffer
(interface queue, AODV discovery buffer, ARP hold slot, a MAC service
loop, a signal on the air), or simply still in flight within the
cutoff-grace window of the trial end.  Note-only uids (MAC control
frames — ACK/RTS/CTS are never traced) are exempt; uids never seen at
all do not exist as far as the ledger is concerned.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.obs.journey import DATA_PTYPES
from repro.sanitizer.violations import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.obs.journey import JourneyTracker

#: Loss notes kept per uid (enough context without unbounded growth).
_MAX_NOTES_PER_UID = 8


class _PacketRecord:
    """Everything the ledger knows about one packet uid."""

    __slots__ = (
        "uid",
        "ptype",
        "is_data",
        "first_time",
        "last_time",
        "delivered",
        "dropped",
        "r_mac",
        "traced",
        "notes",
    )

    def __init__(self, uid: int, ptype: str, time: float) -> None:
        self.uid = uid
        self.ptype = ptype
        self.is_data = ptype in DATA_PTYPES
        self.first_time = time
        self.last_time = time
        self.delivered = False
        self.dropped = False
        self.r_mac = False
        #: True once any trace event was recorded (vs note-only records).
        self.traced = False
        self.notes: list[tuple[str, float]] = []


class PacketLedger:
    """Per-uid conservation accounting for one trial."""

    def __init__(self) -> None:
        self._records: dict[int, _PacketRecord] = {}
        #: Packet currently inside each MAC's service loop, by address.
        self._in_service: dict[int, "Packet"] = {}
        self.notes_recorded = 0

    def __len__(self) -> int:
        return len(self._records)

    def _record_for(self, pkt: "Packet", time: float) -> _PacketRecord:
        rec = self._records.get(pkt.uid)
        if rec is None:
            ptype = getattr(pkt.ptype, "value", pkt.ptype)
            rec = _PacketRecord(pkt.uid, str(ptype), time)
            self._records[pkt.uid] = rec
        return rec

    # -- feeds -------------------------------------------------------------

    def record(
        self, event: str, time: float, node: int, layer: str, pkt: "Packet"
    ) -> None:
        """One trace event (same signature as the journey tracker)."""
        rec = self._record_for(pkt, time)
        rec.traced = True
        rec.last_time = time
        if event == "D":
            rec.dropped = True
        elif event == "r":
            if layer == "AGT":
                rec.delivered = True
            elif layer == "MAC":
                rec.r_mac = True

    def note(self, pkt: "Packet", reason: str, time: float) -> None:
        """Attribute a silent per-copy loss (channel/phy) to ``reason``."""
        rec = self._record_for(pkt, time)
        self.notes_recorded += 1
        if len(rec.notes) < _MAX_NOTES_PER_UID:
            rec.notes.append((reason, time))

    def mac_service_begin(self, address: int, pkt: "Packet") -> None:
        """A MAC service loop pulled ``pkt`` from its interface queue."""
        self._in_service[address] = pkt

    def mac_service_end(self, address: int, pkt: "Packet") -> None:
        """The MAC service loop finished with ``pkt`` (sent or gave up)."""
        self._in_service.pop(address, None)

    def in_service_uids(self) -> set[int]:
        """Uids currently held inside a MAC service loop."""
        return {pkt.uid for pkt in self._in_service.values()}

    # -- audit -------------------------------------------------------------

    def record_count(self) -> int:
        """Traced uids (the audited population)."""
        return sum(1 for rec in self._records.values() if rec.traced)

    def audit(
        self,
        end_time: float,
        grace: float,
        resident_uids: set[int],
        emit: Callable[[InvariantViolation], None],
        flooding: bool = False,
        journeys: Optional["JourneyTracker"] = None,
    ) -> dict[str, int]:
        """Check conservation for every traced uid; returns counters.

        ``flooding`` relaxes the data-packet rule: flooding suppresses
        duplicate data frames silently (no drop trace), so any MAC-level
        reception counts as consumption.  Non-data uids (routing control,
        ARP, TCP ACKs) always get that relaxation — protocol control is
        legitimately consumed inside the routing/ARP layer on receipt.
        """
        counters = {
            "audited": 0,
            "delivered": 0,
            "dropped": 0,
            "attributed": 0,
            "resident": 0,
            "in_flight": 0,
            "leaked": 0,
        }
        cutoff = end_time - grace
        for uid, rec in self._records.items():
            if not rec.traced:
                continue  # note-only: never entered the traced stack
            counters["audited"] += 1
            if rec.delivered:
                counters["delivered"] += 1
                continue
            if rec.dropped:
                counters["dropped"] += 1
                continue
            if rec.notes:
                counters["attributed"] += 1
                continue
            if uid in resident_uids:
                counters["resident"] += 1
                continue
            if rec.last_time >= cutoff:
                counters["in_flight"] += 1
                continue
            if rec.r_mac and (not rec.is_data or flooding):
                counters["delivered"] += 1
                continue
            counters["leaked"] += 1
            emit(
                InvariantViolation(
                    checker="packet-leak",
                    layer="net",
                    message=(
                        f"{rec.ptype} packet uid={uid} last seen at "
                        f"t={rec.last_time:.6f} terminated in no accounted "
                        "way (not delivered, dropped, attributed, resident, "
                        "or in flight at cutoff)"
                    ),
                    time=rec.last_time,
                    uid=uid,
                    journey=self._journey_excerpt(journeys, uid),
                )
            )
        if journeys is not None:
            self._cross_validate(journeys, emit)
        return counters

    def _journey_excerpt(
        self, journeys: Optional["JourneyTracker"], uid: int
    ) -> Optional[dict[str, Any]]:
        if journeys is None:
            return None
        journey = journeys.journey(uid)
        return journey.to_dict() if journey is not None else None

    def _cross_validate(
        self,
        journeys: "JourneyTracker",
        emit: Callable[[InvariantViolation], None],
    ) -> None:
        """Ledger and journey tracker are fed from the same trace stream;
        a delivery disagreement for a uid both have seen means one of the
        two accounting layers is corrupt."""
        for uid, rec in self._records.items():
            if not rec.traced:
                continue
            journey = journeys.journey(uid)
            if journey is None:
                continue  # journey cap overflow: nothing to compare
            j_delivered = any(
                hop.event == "r" and hop.layer == "AGT" for hop in journey.hops
            )
            if j_delivered != rec.delivered:
                emit(
                    InvariantViolation(
                        checker="journey-mismatch",
                        layer="net",
                        message=(
                            f"uid={uid}: ledger delivered={rec.delivered} "
                            f"but journey delivered={j_delivered}"
                        ),
                        time=rec.last_time,
                        uid=uid,
                        journey=journey.to_dict(),
                    )
                )
