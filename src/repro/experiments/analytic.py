"""Closed-form performance models used to validate the simulator.

Two classical results bracket the paper's MAC comparison:

* :class:`TdmaModel` — deterministic frame arithmetic: a packet arriving
  at a random instant waits on average half a frame for its slot, and a
  saturated node carries exactly one packet per frame.
* :class:`BianchiModel` — Bianchi's (JSAC 2000) saturation-throughput
  model for 802.11 DCF, solved numerically with SciPy.

``tests/experiments/test_analytic.py`` checks the simulator against
both — the cross-validation that gives the shape claims their teeth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.mac.base import PLCP_OVERHEAD
from repro.mac.dcf import DcfParams
from repro.mac.tdma import TdmaParams
from repro.net.headers import MacHeader


@dataclass
class TdmaModel:
    """Deterministic TDMA frame arithmetic."""

    params: TdmaParams
    bitrate: float = 2e6

    @property
    def slot_time(self) -> float:
        """One slot's airtime, seconds."""
        return self.params.slot_duration(self.bitrate)

    @property
    def frame_time(self) -> float:
        """One frame's airtime, seconds."""
        return self.params.frame_duration(self.bitrate)

    def mean_access_delay(self) -> float:
        """Expected wait for the node's slot from a random arrival.

        Uniform arrival within the frame → half a frame on average.
        """
        return self.frame_time / 2.0

    def transmission_time(self, packet_bytes: int) -> float:
        """Airtime of one data packet within the slot."""
        return (
            PLCP_OVERHEAD
            + (packet_bytes + MacHeader.WIRE_SIZE) * 8.0 / self.bitrate
        )

    def mean_packet_delay(self, packet_bytes: int) -> float:
        """Access wait plus transmission, for an unqueued packet."""
        return self.mean_access_delay() + self.transmission_time(packet_bytes)

    def saturation_throughput(self, packet_bytes: int) -> float:
        """Per-node goodput with a always-full queue: one packet/frame,
        bits per second."""
        return packet_bytes * 8.0 / self.frame_time

    def queueing_delay(self, packet_bytes: int, backlog_packets: float) -> float:
        """Delay seen behind a backlog of ``backlog_packets`` (each costs
        one frame of service)."""
        return (
            backlog_packets * self.frame_time
            + self.mean_packet_delay(packet_bytes)
        )


@dataclass
class BianchiModel:
    """Bianchi's saturation model for n contending DCF stations.

    Basic-access (no RTS/CTS) variant.  All stations saturated, ideal
    channel, identical frame sizes — the textbook assumptions.
    """

    n_stations: int
    packet_bytes: int = 1000
    params: DcfParams = None
    bitrate: float = 2e6

    def __post_init__(self) -> None:
        if self.n_stations < 2:
            raise ValueError("Bianchi's model needs at least 2 stations")
        if self.params is None:
            self.params = DcfParams()

    # -- the fixed point ------------------------------------------------------

    def _tau(self, p: float) -> float:
        """Per-slot transmission probability given collision prob ``p``."""
        w = self.params.cw_min + 1  # W in Bianchi's notation
        m = int(math.log2((self.params.cw_max + 1) / w))
        if p >= 1.0:
            return 0.0
        num = 2.0 * (1.0 - 2.0 * p)
        den = (1.0 - 2.0 * p) * (w + 1) + p * w * (1.0 - (2.0 * p) ** m)
        return num / den

    def solve(self) -> tuple[float, float]:
        """Solve the (tau, p) fixed point; returns (tau, p)."""
        # Imported here: scipy takes about a second to import.
        from scipy import optimize

        n = self.n_stations

        def residual(p: float) -> float:
            tau = self._tau(p)
            return p - (1.0 - (1.0 - tau) ** (n - 1))

        p = optimize.brentq(residual, 1e-9, 1.0 - 1e-9)
        return self._tau(p), p

    # -- airtimes -------------------------------------------------------------------

    def _data_time(self) -> float:
        return (
            PLCP_OVERHEAD
            + (self.packet_bytes + MacHeader.WIRE_SIZE) * 8.0 / self.bitrate
        )

    def _ack_time(self) -> float:
        return PLCP_OVERHEAD + self.params.ack_size * 8.0 / self.params.basic_rate

    def success_time(self) -> float:
        """Airtime of a successful exchange: DATA + SIFS + ACK + DIFS."""
        return (
            self._data_time()
            + self.params.sifs
            + self._ack_time()
            + self.params.difs
        )

    def collision_time(self) -> float:
        """Airtime wasted by a collision: DATA + DIFS (no ACK arrives)."""
        return self._data_time() + self.params.difs

    # -- outputs -----------------------------------------------------------------------

    def saturation_throughput(self) -> float:
        """Aggregate goodput of the cell, bits per second."""
        tau, _ = self.solve()
        n = self.n_stations
        p_tr = 1.0 - (1.0 - tau) ** n
        p_s = n * tau * (1.0 - tau) ** (n - 1) / p_tr
        payload_bits = self.packet_bytes * 8.0
        sigma = self.params.slot_time
        expected_slot = (
            (1.0 - p_tr) * sigma
            + p_tr * p_s * self.success_time()
            + p_tr * (1.0 - p_s) * self.collision_time()
        )
        return p_s * p_tr * payload_bits / expected_slot

    def collision_probability(self) -> float:
        """Conditional collision probability a transmitting station sees."""
        return self.solve()[1]
