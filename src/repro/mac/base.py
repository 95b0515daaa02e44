"""Common MAC machinery shared by all channel-access methods."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.addresses import Address, BROADCAST
from repro.net.headers import MacHeader
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.phy.radio import WirelessPhy

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.core import Environment

#: PLCP preamble + header time (802.11 DSSS long preamble at 1 Mb/s).
PLCP_OVERHEAD = 192e-6


@dataclass
class MacStats:
    """Per-MAC counters used by tests and analysis."""

    data_sent: int = 0
    data_received: int = 0
    control_sent: int = 0
    control_received: int = 0
    retransmissions: int = 0
    drops: int = 0
    duplicates: int = 0


class Mac:
    """Base MAC: owns the service loop that drains the interface queue.

    Subclasses implement :meth:`_send_one` — the channel-access procedure
    for a single packet — and the phy receive hooks.

    Callbacks (wired up by :class:`repro.net.node.Node`):

    * ``recv_callback(pkt)`` — successful link-layer delivery upward.
    * ``link_failure_callback(pkt)`` — unicast delivery failed after all
      retries (AODV uses this to detect broken links).
    * ``link_success_callback(pkt)`` — unicast delivery confirmed.
    """

    def __init__(
        self,
        env: "Environment",
        address: Address,
        phy: WirelessPhy,
        ifq: DropTailQueue,
    ) -> None:
        self.env = env
        self.address = address
        self.phy = phy
        self.ifq = ifq
        phy.mac = self
        self.stats = MacStats()
        probes = env.probes
        self._obs_rx = probes.counter("mac.data.received")
        self._obs_drops = probes.counter("mac.drops")
        self.journeys = probes.journeys
        self._ledger = probes.ledger
        self.recv_callback: Optional[Callable[[Packet], None]] = None
        self.link_failure_callback: Optional[Callable[[Packet], None]] = None
        self.link_success_callback: Optional[Callable[[Packet], None]] = None
        #: Optional trace hook: fn(event, pkt, layer-reason).
        self.trace_callback: Optional[Callable[[str, Packet, str], None]] = None
        self._process = None
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the queue-service process (idempotent)."""
        if not self._started:
            self._started = True
            self._process = self.env.process(self._run())

    def _run(self):
        ledger = self._ledger
        if ledger is None:
            while True:
                pkt = yield self.ifq.get()
                yield from self._send_one(pkt)
        # Sanitizing path: a packet held inside _send_one (backoff, slot
        # wait, retries) is invisible to the end-of-trial residency walk
        # unless the ledger knows it is in service here.
        while True:
            pkt = yield self.ifq.get()
            ledger.mac_service_begin(self.address, pkt)
            try:
                yield from self._send_one(pkt)
            finally:
                ledger.mac_service_end(self.address, pkt)

    # -- subclass interface ----------------------------------------------------

    def _send_one(self, pkt: Packet):
        """Channel-access procedure for one packet (generator)."""
        raise NotImplementedError

    # -- phy hooks ---------------------------------------------------------------

    def phy_rx_start(self, pkt: Packet) -> None:
        """First bit of a decodable frame has arrived (default: ignore)."""

    def phy_rx_end(self, pkt: Packet) -> None:
        """A frame was received intact."""
        raise NotImplementedError

    def phy_rx_failed(self, pkt: Packet, reason: str) -> None:
        """A frame was corrupted (collision/capture loss); default: ignore."""

    # -- helpers ---------------------------------------------------------------------

    def frame_duration(
        self, size_bytes: int, rate: Optional[float] = None, plcp: bool = True
    ) -> float:
        """Airtime of a frame of ``size_bytes`` (MAC framing included).

        Parameters
        ----------
        size_bytes:
            Bytes above the MAC layer (the MAC header is added here).
        rate:
            Bit rate; defaults to the radio's configured bitrate.
        plcp:
            Include the fixed PLCP preamble/header time.
        """
        rate = rate or self.phy.params.bitrate
        time = (size_bytes + MacHeader.WIRE_SIZE) * 8.0 / rate
        return time + (PLCP_OVERHEAD if plcp else 0.0)

    def _deliver_up(self, pkt: Packet) -> None:
        # Every radio that heard the transmission holds this same frame,
        # and it goes up uncopied: the stack above only reads it, and the
        # routing layer clones it (Packet._clone) before it edits or
        # forwards it (see repro.routing.base).
        self.stats.data_received += 1
        self._obs_rx.inc()
        if self.trace_callback is not None:
            self.trace_callback("r", pkt, "MAC")
        if self.recv_callback is not None:
            self.recv_callback(pkt)

    def _notify_failure(self, pkt: Packet) -> None:
        self.stats.drops += 1
        self._obs_drops.inc()
        if self.trace_callback is not None:
            self.trace_callback("D", pkt, "MAC-retry")
        if self.link_failure_callback is not None:
            self.link_failure_callback(pkt)

    def _notify_success(self, pkt: Packet) -> None:
        if self.link_success_callback is not None:
            self.link_success_callback(pkt)

    def _frame_addressed_to_us(self, pkt: Packet) -> bool:
        return pkt.mac.dst in (self.address, BROADCAST)
