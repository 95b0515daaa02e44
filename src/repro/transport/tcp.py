"""One-way TCP in the ns-2 style: ``Agent/TCP`` sender, ``Agent/TCPSink``.

Sequence numbers count *segments*; the sink acknowledges the highest
in-order segment received; the sender runs slow start, congestion
avoidance, fast retransmit/fast recovery (Reno), and an RFC 6298-style
retransmission timer with Karn's algorithm and exponential backoff.

This is exactly the machinery whose "overhead associated with the TCP and
TDMA protocols" the paper identifies as the dominant delay source in
trials 1 and 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.net.headers import IpHeader, TcpHeader
from repro.net.packet import Packet, PacketType
from repro.transport.agents import Agent
from repro.transport.udp import ReceivedRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node


@dataclass
class TcpParams:
    """Sender constants (ns-2 defaults where applicable)."""

    #: Application payload bytes per segment (ns-2 ``packetSize_``).
    segment_size: int = 1000
    #: Maximum window in segments (ns-2 ``window_``).
    window: int = 20
    #: Initial congestion window, segments.
    initial_cwnd: float = 1.0
    #: Initial slow-start threshold, segments.
    initial_ssthresh: float = 64.0
    #: Duplicate ACKs that trigger fast retransmit.
    dupack_threshold: int = 3
    #: Retransmission-timer bounds, seconds.
    initial_rto: float = 3.0
    min_rto: float = 0.2
    max_rto: float = 60.0


class TcpAgent(Agent):
    """Reno TCP sender."""

    def __init__(
        self,
        node: "Node",
        local_port: int,
        params: Optional[TcpParams] = None,
    ) -> None:
        super().__init__(node, local_port)
        self.params = params or TcpParams()
        # Window state (segments).
        self.cwnd = self.params.initial_cwnd
        self.ssthresh = self.params.initial_ssthresh
        self.t_seqno = 0  # next segment to send
        self.highest_ack = -1
        self.dupacks = 0
        self._in_recovery = False
        self._recover = -1
        # Application backlog (segments); None means unlimited (FTP).
        self._segments_requested: Optional[int] = 0
        self._pending_bytes = 0
        # RTT estimation.
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = self.params.initial_rto
        self._rtt_seq: Optional[int] = None
        self._rtt_ts = 0.0
        # Retransmission timer.
        self._timer_generation = 0
        self._timer_running = False
        # Statistics.
        self.segments_sent = 0
        self.retransmits = 0
        self.timeouts = 0
        self.bytes_sent = 0
        probes = self.env.probes
        self._obs_sent = probes.counter("tcp.segments.sent")
        self._obs_retx = probes.counter("tcp.retransmits")
        self._obs_timeouts = probes.counter("tcp.timeouts")
        self._obs_rtt = probes.histogram("tcp.rtt")
        self._san = probes.tcp_monitor
        #: True while the application allows transmission (start/stop gate).
        self.running = True

    # -- application interface --------------------------------------------------

    def send_forever(self) -> None:
        """Give the sender an infinite backlog (FTP semantics)."""
        self._require_connected()
        self._segments_requested = None
        self._try_send()

    def send_bytes(self, nbytes: int) -> None:
        """Queue ``nbytes`` of application data (ns-2 ``sendmsg``)."""
        self._require_connected()
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        if self._segments_requested is None:
            return  # already unlimited
        self._pending_bytes += nbytes
        whole, self._pending_bytes = divmod(
            self._pending_bytes, self.params.segment_size
        )
        self._segments_requested += whole
        self._try_send()

    def send_segments(self, count: int) -> None:
        """Queue ``count`` whole segments."""
        self._require_connected()
        if count <= 0:
            raise ValueError("count must be positive")
        if self._segments_requested is not None:
            self._segments_requested += count
            self._try_send()

    def pause(self) -> None:
        """Stop transmitting (the EBL app pauses when not braking)."""
        self.running = False

    def resume(self) -> None:
        """Resume transmitting."""
        self.running = True
        self._try_send()

    # -- window engine ---------------------------------------------------------------

    @property
    def effective_window(self) -> int:
        """min(cwnd, receiver window), whole segments."""
        return max(1, int(min(self.cwnd, float(self.params.window))))

    def _app_limit(self) -> float:
        if self._segments_requested is None:
            return math.inf
        return float(self._segments_requested)

    def _try_send(self) -> None:
        if not self.running or not self.connected:
            return
        limit = self._app_limit()
        while (
            self.t_seqno - (self.highest_ack + 1) < self.effective_window
            and self.t_seqno < limit
        ):
            self._output(self.t_seqno)
            self.t_seqno += 1

    def _output(self, seqno: int, retransmit: bool = False) -> None:
        now = self.env.now
        header = TcpHeader(seqno=seqno, payload=self.params.segment_size)
        pkt = Packet(
            ptype=PacketType.TCP,
            size=self.params.segment_size
            + TcpHeader.WIRE_SIZE
            + IpHeader.WIRE_SIZE,
            ip=IpHeader(
                src=self.address,
                dst=self.remote_addr,
                sport=self.local_port,
                dport=self.remote_port,
            ),
            headers={"tcp": header},
            timestamp=now,
        )
        pkt.meta["retransmit"] = retransmit
        self.segments_sent += 1
        self._obs_sent.inc()
        self.bytes_sent += pkt.size
        if retransmit:
            self.retransmits += 1
            self._obs_retx.inc()
            if self._rtt_seq == seqno:
                self._rtt_seq = None  # Karn: never time a retransmission
        elif self._rtt_seq is None:
            self._rtt_seq = seqno
            self._rtt_ts = now
        if not self._timer_running:
            self._start_timer()
        self._san.on_segment_sent(self, seqno)
        self.node.send(pkt)

    # -- ACK processing ------------------------------------------------------------------

    def receive(self, pkt: Packet) -> None:
        header: TcpHeader = pkt.header("tcp")
        if not header.is_ack:
            return  # a one-way sender ignores stray data
        ackno = header.ackno
        self._san.on_ack(self, ackno)
        if ackno > self.highest_ack:
            self._new_ack(ackno)
        elif ackno == self.highest_ack:
            self._dup_ack()

    def _new_ack(self, ackno: int) -> None:
        params = self.params
        if self._in_recovery:
            # Reno: any new ACK ends recovery, deflating to ssthresh.
            self._in_recovery = False
            self.cwnd = self.ssthresh
        else:
            if self.cwnd < self.ssthresh:
                self.cwnd += 1.0  # slow start
            else:
                self.cwnd += 1.0 / self.cwnd  # congestion avoidance
        self.cwnd = min(self.cwnd, float(params.window))
        if self._rtt_seq is not None and ackno >= self._rtt_seq:
            self._rtt_sample(self.env.now - self._rtt_ts)
            self._rtt_seq = None
        self.highest_ack = ackno
        self.dupacks = 0
        if self.t_seqno > self.highest_ack + 1:
            self._start_timer()  # data still outstanding
        else:
            self._stop_timer()
        self._try_send()

    def _dup_ack(self) -> None:
        self.dupacks += 1
        if self._in_recovery:
            self.cwnd += 1.0  # window inflation per extra dupack
            self._try_send()
            return
        if self.dupacks == self.params.dupack_threshold:
            # Fast retransmit + fast recovery.
            self.ssthresh = max(self.effective_window / 2.0, 2.0)
            self._in_recovery = True
            self._recover = self.t_seqno - 1
            self._output(self.highest_ack + 1, retransmit=True)
            self.cwnd = self.ssthresh + self.params.dupack_threshold
            self._start_timer()

    # -- RTT estimation --------------------------------------------------------------------

    def _rtt_sample(self, sample: float) -> None:
        self._obs_rtt.observe(sample)
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = self._clamp_rto(self.srtt + 4.0 * self.rttvar)

    def _clamp_rto(self, rto: float) -> float:
        return min(max(rto, self.params.min_rto), self.params.max_rto)

    # -- retransmission timer -------------------------------------------------------------------

    def _start_timer(self) -> None:
        self._timer_generation += 1
        self._timer_running = True
        self.env.process(self._timer(self._timer_generation))

    def _stop_timer(self) -> None:
        self._timer_generation += 1
        self._timer_running = False

    def _timer(self, generation: int):
        yield self.env.timeout(self.rto)
        if generation != self._timer_generation:
            return
        self._timer_running = False
        self._timeout()

    def _timeout(self) -> None:
        self.timeouts += 1
        self._obs_timeouts.inc()
        self.ssthresh = max(self.effective_window / 2.0, 2.0)
        self.cwnd = 1.0
        self.dupacks = 0
        self._in_recovery = False
        self.rto = self._clamp_rto(self.rto * 2.0)
        self._rtt_seq = None
        # Go-back-N from the first unacknowledged segment (ns-2 behaviour).
        self.t_seqno = self.highest_ack + 1
        if self.running and self.t_seqno < self._app_limit():
            self._output(self.t_seqno, retransmit=True)
            self.t_seqno += 1


class TcpTahoe(TcpAgent):
    """Tahoe: fast retransmit but no fast recovery.

    On the third duplicate ACK the lost segment is retransmitted and the
    sender falls all the way back to slow start (cwnd = 1), exactly like
    an RTO but without waiting for the timer.
    """

    def _dup_ack(self) -> None:
        self.dupacks += 1
        if self.dupacks == self.params.dupack_threshold:
            self.ssthresh = max(self.effective_window / 2.0, 2.0)
            self.cwnd = 1.0
            self.dupacks = 0
            self._rtt_seq = None  # Karn
            # Go-back-N from the hole, as a timeout would.
            self.t_seqno = self.highest_ack + 1
            self._output(self.t_seqno, retransmit=True)
            self.t_seqno += 1
            self._start_timer()


class TcpNewReno(TcpAgent):
    """NewReno: fast recovery that survives multiple losses per window.

    A *partial* ACK (new data acknowledged, but short of ``recover``)
    indicates another hole in the same window: the hole is retransmitted
    immediately and recovery continues, instead of Reno's premature exit
    (RFC 6582).
    """

    def _new_ack(self, ackno: int) -> None:
        if self._in_recovery and ackno < self._recover:
            delta = ackno - self.highest_ack
            self.highest_ack = ackno
            self.dupacks = 0
            # Partial window deflation, plus one for the retransmission.
            self.cwnd = max(self.cwnd - delta + 1.0, 1.0)
            self._output(ackno + 1, retransmit=True)
            if self.t_seqno < ackno + 2:
                self.t_seqno = ackno + 2
            self._start_timer()
            self._try_send()
            return
        super()._new_ack(ackno)


#: Registry of selectable sender variants.
TCP_VARIANTS = {
    "reno": TcpAgent,
    "tahoe": TcpTahoe,
    "newreno": TcpNewReno,
}


class TcpSink(Agent):
    """Receiver: acknowledges the highest in-order segment (ns-2 TCPSink).

    ``bytes`` mirrors ns-2's ``bytes_`` sampled by the paper's Tcl
    ``record`` procedure (Fig. 4): it counts every received data byte.
    """

    def __init__(
        self,
        node: "Node",
        local_port: int,
        delayed_ack: float = 0.0,
    ) -> None:
        super().__init__(node, local_port)
        if delayed_ack < 0:
            raise ValueError("delayed_ack must be non-negative")
        self.delayed_ack = delayed_ack
        self.next_expected = 0
        self.bytes = 0
        self.packets = 0
        self.duplicates = 0
        self.acks_sent = 0
        self.records: list[ReceivedRecord] = []
        self._out_of_order: set[int] = set()
        self._ack_pending = False
        self._san = self.env.probes.tcp_monitor

    def receive(self, pkt: Packet) -> None:
        header: TcpHeader = pkt.header("tcp")
        if header.is_ack:
            return
        seqno = header.seqno
        self.bytes += pkt.size
        self.packets += 1
        is_new = seqno >= self.next_expected and seqno not in self._out_of_order
        if is_new:
            self.records.append(
                ReceivedRecord(
                    seqno=seqno,
                    size=pkt.size,
                    sent_at=pkt.timestamp,
                    received_at=self.env.now,
                )
            )
            if seqno == self.next_expected:
                self.next_expected += 1
                while self.next_expected in self._out_of_order:
                    self._out_of_order.discard(self.next_expected)
                    self.next_expected += 1
            else:
                self._out_of_order.add(seqno)
        else:
            self.duplicates += 1
        self._san.on_sink(self)
        if self.delayed_ack > 0 and seqno == self.next_expected - 1:
            if not self._ack_pending:
                self._ack_pending = True
                self.env.process(self._delayed_ack())
        else:
            self._send_ack()

    def _delayed_ack(self):
        yield self.env.timeout(self.delayed_ack)
        if self._ack_pending:
            self._ack_pending = False
            self._send_ack()

    def _send_ack(self) -> None:
        self._require_connected()
        header = TcpHeader(
            ackno=self.next_expected - 1, is_ack=True, payload=0
        )
        pkt = Packet(
            ptype=PacketType.ACK,
            size=TcpHeader.WIRE_SIZE + IpHeader.WIRE_SIZE,
            ip=IpHeader(
                src=self.address,
                dst=self.remote_addr,
                sport=self.local_port,
                dport=self.remote_port,
            ),
            headers={"tcp": header},
            timestamp=self.env.now,
        )
        self.acks_sent += 1
        self.node.send(pkt)

    @property
    def delivered_segments(self) -> int:
        """Segments delivered in order so far."""
        return self.next_expected
