"""IEEE 802.11 Distributed Coordination Function (DCF).

Implements the contention machinery of ns-2's ``Mac/802_11``:

* physical + virtual carrier sense (NAV),
* DIFS deference and binary-exponential-backoff slot countdown with
  freezing,
* unicast DATA/ACK with retransmission up to the retry limits,
* optional RTS/CTS for frames at or above the RTS threshold,
* broadcast frames sent without acknowledgement,
* receiver-side duplicate filtering when an ACK is lost.

Timing constants follow 802.11 DSSS (the WaveLAN profile ns-2 shipped
with): 20 µs slots, 10 µs SIFS, 192 µs PLCP preamble at 1 Mb/s, control
frames at the 1 Mb/s basic rate, data at the radio's configured bitrate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.des.events import Event
from repro.net.addresses import Address, BROADCAST
from repro.net.headers import IpHeader, MacHeader
from repro.net.packet import Packet, PacketType
from repro.net.queues import DropTailQueue
from repro.mac.base import Mac, PLCP_OVERHEAD
from repro.obs.registry import SLOT_EDGES
from repro.phy.radio import WirelessPhy

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.core import Environment


@dataclass
class DcfParams:
    """802.11 DSSS MAC constants."""

    slot_time: float = 20e-6
    sifs: float = 10e-6
    cw_min: int = 31
    cw_max: int = 1023
    #: Retry limits (short: frames below the RTS threshold; long: above).
    short_retry_limit: int = 7
    long_retry_limit: int = 4
    #: Bytes at or above which unicast data uses RTS/CTS. ns-2's default of
    #: 0 means "always"; we default to 3000 (off for the paper's packets)
    #: and let trial configs override.
    rts_threshold: int = 3000
    #: Control-frame rate (PLCP basic rate).
    basic_rate: float = 1e6
    #: Control frame sizes on the wire, bytes.
    ack_size: int = 14
    rts_size: int = 20
    cts_size: int = 14
    #: Extra ACK-wait slack on top of SIFS + ACK airtime (propagation etc.).
    ack_timeout_slack: float = 40e-6

    @property
    def difs(self) -> float:
        """DIFS = SIFS + 2 slots."""
        return self.sifs + 2 * self.slot_time

    @property
    def eifs(self) -> float:
        """EIFS = SIFS + ACK airtime at the basic rate + DIFS.

        Deferred after a corrupted reception so the unseen frame's ACK is
        not trampled (IEEE 802.11 §10.3.2.3.7).
        """
        ack_time = PLCP_OVERHEAD + self.ack_size * 8.0 / self.basic_rate
        return self.sifs + ack_time + self.difs


def _control_frame(
    subtype: str, src: Address, dst: Address, size: int, duration: float = 0.0
) -> Packet:
    """Build an RTS/CTS/ACK control frame."""
    pkt = Packet(
        ptype=PacketType.MAC,
        size=size,
        ip=IpHeader(src=src, dst=dst),
        mac=MacHeader(src=src, dst=dst, subtype=subtype, duration=duration),
    )
    return pkt


def _slots_left_event(env: "Environment", slots: int) -> Event:
    """A triggered event whose value is the backoff slots still to count."""
    event = Event(env)
    event._ok = True
    event._value = slots
    return event


class Dcf80211Mac(Mac):
    """CSMA/CA MAC with binary exponential backoff and DATA/ACK."""

    def __init__(
        self,
        env: "Environment",
        address: Address,
        phy: WirelessPhy,
        ifq: DropTailQueue,
        params: Optional[DcfParams] = None,
        rng: Optional[random.Random] = None,
        rate_controller=None,
    ) -> None:
        super().__init__(env, address, phy, ifq)
        self.params = params or DcfParams()
        self._rng = rng or random.Random(address)
        #: Optional :class:`~repro.mac.rate_control.ArfRateController`;
        #: None pins unicast data to the radio's configured bitrate.
        self.rate_controller = rate_controller
        self._cw = self.params.cw_min
        # Per-transmission access parameters; subclasses (EDCA) retune
        # these per packet before delegating to _send_one.
        self._aifs = self.params.difs
        self._cw_min_cur = self.params.cw_min
        self._cw_max_cur = self.params.cw_max
        #: Network-allocation vector: medium reserved until this time.
        self._nav_until = 0.0
        #: EIFS deferral deadline after a corrupted reception; a correct
        #: reception cancels it.
        self._eifs_until = 0.0
        #: Event the sender waits on for the ACK/CTS it expects.
        self._expecting: Optional[tuple[str, Address]] = None
        self._response_event: Optional[Event] = None
        #: The running backoff countdown: (start, slots, timer, process).
        self._countdown: Optional[tuple] = None
        #: (src, uid) of recently delivered unicast frames, for dedup.
        self._seen: dict[Address, int] = {}
        probes = env.probes
        self._obs_sent = probes.counter("mac.dcf.data_sent")
        self._obs_retx = probes.counter("mac.dcf.retransmissions")
        self._obs_backoff = probes.histogram("mac.dcf.backoff_slots", SLOT_EDGES)
        self._san = probes.dcf_monitor

    # -- carrier sense (physical + virtual) -----------------------------------

    def _medium_free(self) -> bool:
        return (
            not self.phy.medium_busy
            and self.env.now >= self._nav_until
            and self.env.now >= self._eifs_until
        )

    def _wait_free(self):
        """Wait until physical carrier, NAV, and EIFS all say idle."""
        while True:
            if self.phy.medium_busy:
                yield self.phy.wait_idle()
                continue
            deadline = max(self._nav_until, self._eifs_until)
            if self.env.now < deadline:
                yield self.env.timeout(deadline - self.env.now)
                continue
            return

    def _wait_free_for(self, interval: float):
        """Wait until the medium has been continuously free for ``interval``."""
        while True:
            yield from self._wait_free()
            epoch = self.phy.busy_epoch
            nav = self._nav_until
            eifs = self._eifs_until
            yield self.env.timeout(interval)
            if (
                self.phy.busy_epoch == epoch
                and self._nav_until == nav
                and self._eifs_until <= eifs
                and self._medium_free()
            ):
                return

    def _backoff(self, slots: int):
        """Count down ``slots`` idle slots, freezing while the medium is busy.

        The countdown freezes on the first slot boundary after the medium
        is disturbed, counting the slots before that boundary, and resumes
        after the next AIFS of idle medium.  One kernel timer serves each
        countdown, bit-identical to scheduling one event per slot:

        * The timer is set for the last boundary, reached by repeated
          ``+= slot_time`` from the start as per-slot events would reach
          it, and scheduled at that absolute time: ``now + (end - now)``
          can round to a neighbouring float.
        * The first ``busy_epoch`` bump after the start calls
          :meth:`_freeze_countdown` through the phy's ``on_disturb`` hook,
          which moves the wake-up to the first boundary *strictly* after
          the bump.  A bump exactly on a boundary counts that slot: a
          per-slot event for the boundary is created a slot earlier,
          before the disturbing frame is sent, since propagation takes
          less than a slot.  Later bumps change nothing.
        * The timer is created when the countdown starts, where the first
          per-slot event would be, so stations counting in lockstep finish
          in that order.  A frozen station only registers ``wait_idle`` at
          its wake-up, and the disturbing frame outlasts a slot, so where
          the wake-up sits among same-time events is unobservable.
        """
        env = self.env
        slot_time = self.params.slot_time
        while slots > 0:
            yield from self._wait_free_for(self._aifs)
            start = end = env.now
            for _ in range(slots):
                end += slot_time
            timer = _slots_left_event(env, 0)
            env.schedule_at(timer, end)
            self._countdown = (start, slots, timer, env.active_process)
            self.phy.on_disturb = self._freeze_countdown
            slots = yield timer
            self.phy.on_disturb = None

    def _freeze_countdown(self) -> None:
        """Move the running countdown's wake-up to the freeze boundary."""
        self.phy.on_disturb = None
        start, slots, timer, process = self._countdown
        slot_time = self.params.slot_time
        now = self.env.now
        boundary = start + slot_time
        while boundary <= now:  # slots ending at or before the bump count
            boundary += slot_time
            slots -= 1
        wake = _slots_left_event(self.env, slots)
        # The cancelled timer stays in the heap as a no-op; the process
        # now waits on the event that holds its resume callback.
        wake.callbacks, timer.callbacks = timer.callbacks, []
        process._target = wake
        self.env.schedule_at(wake, boundary)

    # -- transmit path ------------------------------------------------------------

    def _draw_backoff(self) -> int:
        """Draw a backoff slot count from [0, cw] and record it.

        Draw first, observe after: the RNG consumption order is identical
        with observability on or off (the differential-digest guarantee).
        """
        slots = self._rng.randint(0, self._cw)
        self._obs_backoff.observe(slots)
        self._san.on_backoff(self, slots)
        return slots

    def _mark_retry(self, pkt: Packet) -> None:
        self.stats.retransmissions += 1
        self._obs_retx.inc()
        if self.journeys is not None:
            self.journeys.record("x", self.env.now, self.address, "MAC", pkt)

    def _send_one(self, pkt: Packet):
        params = self.params
        pkt.mac.src = self.address
        broadcast = pkt.mac.dst == BROADCAST
        use_rts = (not broadcast) and pkt.size >= params.rts_threshold
        retry_limit = (
            params.long_retry_limit if use_rts else params.short_retry_limit
        )
        retries = 0
        self._cw = self._cw_min_cur
        # Initial deference: AIFS plus a backoff draw (post-backoff is
        # always applied, as real DCF does after a previous transmission).
        yield from self._backoff(self._draw_backoff())
        while True:
            yield from self._wait_free_for(self._aifs)
            if use_rts:
                got_cts = yield from self._rts_handshake(pkt)
                if not got_cts:
                    retries += 1
                    self._mark_retry(pkt)
                    if retries > retry_limit:
                        self._notify_failure(pkt)
                        return
                    self._grow_cw()
                    yield from self._backoff(self._draw_backoff())
                    continue
                yield self.env.timeout(params.sifs)
            ok = yield from self._data_exchange(pkt, broadcast)
            if ok:
                self.stats.data_sent += 1
                self._obs_sent.inc()
                if not broadcast:
                    self._notify_success(pkt)
                    if self.rate_controller is not None:
                        self.rate_controller.on_success()
                if self.trace_callback is not None:
                    self.trace_callback("s", pkt, "MAC")
                return
            retries += 1
            self._mark_retry(pkt)
            if self.rate_controller is not None and not broadcast:
                self.rate_controller.on_failure()
            pkt.mac.retries = retries
            if retries > retry_limit:
                self._notify_failure(pkt)
                return
            self._grow_cw()
            yield from self._backoff(self._draw_backoff())

    def _grow_cw(self) -> None:
        self._cw = min(2 * self._cw + 1, self._cw_max_cur)

    def _data_duration(self, pkt: Packet) -> float:
        if self.rate_controller is not None and pkt.mac.dst != BROADCAST:
            rate = self.rate_controller.current_rate
        else:
            rate = self.phy.params.bitrate
        pkt.meta["phy_rate"] = rate
        return self.frame_duration(pkt.size, rate=rate)

    def _ctrl_duration(self, size: int) -> float:
        return PLCP_OVERHEAD + size * 8.0 / self.params.basic_rate

    def _rts_handshake(self, pkt: Packet):
        """Send RTS, wait for CTS. Returns True on success."""
        params = self.params
        # NAV covers CTS + SIFS + DATA + SIFS + ACK.
        nav = (
            3 * params.sifs
            + self._ctrl_duration(params.cts_size)
            + self._data_duration(pkt)
            + self._ctrl_duration(params.ack_size)
        )
        rts = _control_frame(
            "rts", self.address, pkt.mac.dst, params.rts_size, duration=nav
        )
        self.stats.control_sent += 1
        response = yield from self._transmit_and_await(
            rts,
            self._ctrl_duration(params.rts_size),
            expect=("cts", pkt.mac.dst),
            timeout=params.sifs
            + self._ctrl_duration(params.cts_size)
            + params.ack_timeout_slack,
        )
        return response

    def _data_exchange(self, pkt: Packet, broadcast: bool):
        """Send the data frame; for unicast, wait for the ACK."""
        params = self.params
        duration = self._data_duration(pkt)
        if broadcast:
            pkt.mac.duration = 0.0
            while self.phy.transmitting:  # defend against same-instant ACKs
                yield self.env.timeout(params.slot_time)
            self.phy.transmit(pkt, duration)
            yield self.env.timeout(duration)
            return True
        pkt.mac.duration = (
            params.sifs + self._ctrl_duration(params.ack_size)
        )
        response = yield from self._transmit_and_await(
            pkt,
            duration,
            expect=("ack", pkt.mac.dst),
            timeout=params.sifs
            + self._ctrl_duration(params.ack_size)
            + params.ack_timeout_slack,
        )
        return response

    def _transmit_and_await(
        self,
        pkt: Packet,
        duration: float,
        expect: tuple[str, Address],
        timeout: float,
    ):
        """Transmit ``pkt`` then wait for the expected response frame."""
        while self.phy.transmitting:  # defend against same-instant ACKs
            yield self.env.timeout(self.params.slot_time)
        self._response_event = Event(self.env)
        self._expecting = expect
        self.phy.transmit(pkt, duration)
        yield self.env.timeout(duration)
        deadline = self.env.timeout(timeout)
        result = yield self._response_event | deadline
        got_it = self._response_event in result
        self._expecting = None
        self._response_event = None
        return got_it

    # -- receive path ----------------------------------------------------------------

    def phy_rx_failed(self, pkt: Packet, reason: str) -> None:
        # A frame we could not decode: defer EIFS so its (invisible)
        # acknowledgement exchange is not trampled.
        self._eifs_until = max(
            self._eifs_until,
            self.env.now + self.params.eifs - self.params.difs,
        )

    def phy_rx_end(self, pkt: Packet) -> None:
        # A correct reception resynchronises us: cancel any EIFS deferral.
        self._eifs_until = 0.0
        mac = pkt.mac
        if mac.dst not in (self.address, BROADCAST):
            # Not ours: honour the announced NAV.
            until = self.env.now + mac.duration
            self._san.on_nav(self, until)
            if until > self._nav_until:
                self._nav_until = until
            return
        subtype = mac.subtype
        if subtype == "data":
            self._recv_data(pkt)
        elif subtype == "ack":
            self.stats.control_received += 1
            self._match_response("ack", mac.src)
        elif subtype == "cts":
            self.stats.control_received += 1
            self._match_response("cts", mac.src)
        elif subtype == "rts":
            self.stats.control_received += 1
            self.env.process(self._send_cts(mac.src, mac.duration))

    def _match_response(self, kind: str, src: Address) -> None:
        if (
            self._expecting is not None
            and self._response_event is not None
            and not self._response_event.triggered
            and self._expecting == (kind, src)
        ):
            self._response_event.succeed()

    def _recv_data(self, pkt: Packet) -> None:
        if pkt.mac.dst == BROADCAST:
            self._deliver_up(pkt)
            return
        duplicate = self._seen.get(pkt.mac.src) == pkt.uid
        self._seen[pkt.mac.src] = pkt.uid
        # Always ACK (the sender may have missed our previous ACK).
        self.env.process(self._send_ack(pkt.mac.src))
        if duplicate:
            self.stats.duplicates += 1
            return
        self._deliver_up(pkt)

    def _send_ack(self, dst: Address):
        yield self.env.timeout(self.params.sifs)
        yield from self._transmit_control(
            _control_frame("ack", self.address, dst, self.params.ack_size)
        )

    def _send_cts(self, dst: Address, rts_duration: float):
        if not self._medium_free() and self.phy.medium_busy:
            return  # cannot honour the RTS
        yield self.env.timeout(self.params.sifs)
        nav = max(0.0, rts_duration - self.params.sifs - self._ctrl_duration(
            self.params.cts_size
        ))
        yield from self._transmit_control(
            _control_frame(
                "cts", self.address, dst, self.params.cts_size, duration=nav
            )
        )

    def _transmit_control(self, frame: Packet):
        """Transmit a control frame, deferring briefly if the radio is busy."""
        while self.phy.transmitting:
            yield self.env.timeout(self.params.slot_time)
        self.stats.control_sent += 1
        self.phy.transmit(frame, self._ctrl_duration(frame.size))
        return
        yield  # pragma: no cover - keeps this a generator
