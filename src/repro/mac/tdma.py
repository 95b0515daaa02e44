"""Time-Division Multiple Access MAC (ns-2 ``Mac/Tdma`` equivalent).

A fixed TDMA frame is divided into ``num_slots`` slots; node *i* owns slot
``i mod num_slots`` and may transmit exactly one packet per frame, at the
start of its slot.  Slots are sized for ``slot_packet_len`` bytes (ns-2's
default of 1500) plus a guard time, so the frame length — and therefore the
access delay — is *independent of the actual packet size*.  This is the
mechanism behind the paper's observation that halving the packet size
leaves one-way delay essentially unchanged while halving throughput.

TDMA is collision-free by construction, so there are no acknowledgements
and no retransmissions; consequently the MAC provides no link-failure
feedback (AODV compensates with HELLO beacons, see
:class:`repro.routing.aodv.protocol.Aodv`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.net.addresses import Address, BROADCAST
from repro.net.headers import MacHeader
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.mac.base import Mac, PLCP_OVERHEAD
from repro.phy.radio import WirelessPhy

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.core import Environment


@dataclass
class TdmaParams:
    """TDMA frame-structure constants."""

    #: Number of slots per frame. ``None`` means "set to the node count when
    #: the scenario is built" (the common configuration).
    num_slots: Optional[int] = None
    #: Bytes a slot must accommodate (ns-2 default: one MTU).
    slot_packet_len: int = 1500
    #: Idle guard time appended to every slot.
    guard_time: float = 30e-6

    def slot_duration(self, bitrate: float) -> float:
        """Airtime of one slot at ``bitrate``."""
        payload_time = (
            (self.slot_packet_len + MacHeader.WIRE_SIZE) * 8.0 / bitrate
        )
        return PLCP_OVERHEAD + payload_time + self.guard_time

    def frame_duration(self, bitrate: float) -> float:
        """Airtime of one full TDMA frame."""
        if self.num_slots is None:
            raise ValueError("num_slots has not been configured")
        return self.num_slots * self.slot_duration(bitrate)


class TdmaMac(Mac):
    """Slotted, collision-free MAC with one transmit opportunity per frame."""

    #: AODV checks this to decide whether HELLO beacons are required.
    provides_link_feedback = False

    def __init__(
        self,
        env: "Environment",
        address: Address,
        phy: WirelessPhy,
        ifq: DropTailQueue,
        params: Optional[TdmaParams] = None,
    ) -> None:
        super().__init__(env, address, phy, ifq)
        self.params = params or TdmaParams()
        probes = env.probes
        self._obs_sent = probes.counter("mac.tdma.data_sent")
        self._obs_wait = probes.histogram("mac.tdma.access_wait")
        self._san = probes.tdma_monitor

    # -- frame geometry ---------------------------------------------------------

    def configure_slots(self, num_slots: int) -> None:
        """Fix the frame size (called by the scenario builder)."""
        if num_slots <= 0:
            raise ValueError("num_slots must be positive")
        self.params.num_slots = num_slots

    @property
    def slot_index(self) -> int:
        """This node's slot within the frame."""
        if self.params.num_slots is None:
            raise ValueError("num_slots has not been configured")
        return self.address % self.params.num_slots

    @property
    def slot_duration(self) -> float:
        """Duration of one slot, seconds."""
        return self.params.slot_duration(self.phy.params.bitrate)

    @property
    def frame_time(self) -> float:
        """Duration of one frame, seconds."""
        return self.params.frame_duration(self.phy.params.bitrate)

    def next_slot_start(self, now: float) -> float:
        """Earliest start time (>= ``now``) of this node's own slot."""
        frame = self.frame_time
        offset = self.slot_index * self.slot_duration
        k = math.floor((now - offset) / frame)
        candidate = k * frame + offset
        while candidate < now - 1e-12:
            candidate += frame
        return candidate

    # -- service loop ----------------------------------------------------------------

    def _send_one(self, pkt: Packet):
        pkt.mac.src = self.address
        pkt.mac.subtype = "tdma-data"
        start = self.next_slot_start(self.env.now)
        self._obs_wait.observe(max(0.0, start - self.env.now))
        if start > self.env.now:
            yield self.env.timeout(start - self.env.now)
        duration = self.frame_duration(pkt.size)
        usable = self.slot_duration - self.params.guard_time
        if duration > usable:
            # Packet exceeds the slot; it can never be sent. Count the drop
            # and give link-layer feedback so routing can react.
            self._notify_failure(pkt)
            return
        self._san.on_slot_tx(self, self.env.now, duration)
        self.phy.transmit(pkt, duration)
        yield self.env.timeout(duration)
        self.stats.data_sent += 1
        self._obs_sent.inc()
        if pkt.mac.dst != BROADCAST:
            self._notify_success(pkt)
        if self.trace_callback is not None:
            self.trace_callback("s", pkt, "MAC")
        # Hold the channel access until the slot ends: one packet per frame.
        slot_end = start + self.slot_duration
        if slot_end > self.env.now:
            yield self.env.timeout(slot_end - self.env.now)

    # -- receive path -------------------------------------------------------------------

    def phy_rx_end(self, pkt: Packet) -> None:
        if self._frame_addressed_to_us(pkt):
            self._deliver_up(pkt)
