"""The wireless transceiver (ns-2 ``Phy/WirelessPhy`` equivalent).

The phy tracks every signal currently impinging on the antenna, decides
which (if any) frame is being successfully decoded, models co-channel
collisions and power capture, and exposes carrier-sense state to the MAC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.des.events import DeferredCall, Event, Timeout
from repro.net.packet import Packet
from repro.obs import api as obs
from repro.phy.propagation import SPEED_OF_LIGHT, PropagationModel, TwoRayGround
from repro.sanitizer import api as san

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.core import Environment


@dataclass
class RadioParams:
    """Radio constants; defaults are ns-2's 914 MHz WaveLAN profile.

    With two-ray ground propagation these yield the classic 250 m
    communication range and 550 m carrier-sense range.
    """

    #: Carrier frequency, Hz.
    frequency: float = 914e6
    #: Transmit power, W.
    tx_power: float = 0.28183815
    #: Receive (decode) threshold, W — 250 m under two-ray ground.
    rx_threshold: float = 3.652e-10
    #: Carrier-sense threshold, W — 550 m under two-ray ground.
    cs_threshold: float = 1.559e-11
    #: Capture threshold (power ratio, linear). 10 = 10 dB.
    capture_ratio: float = 10.0
    #: Channel bit rate for the data portion of frames, bit/s.
    bitrate: float = 2e6
    #: Antenna gains and heights, system loss (ns-2 defaults).
    tx_gain: float = 1.0
    rx_gain: float = 1.0
    antenna_height: float = 1.5
    system_loss: float = 1.0
    #: Reception model.  False (default): ns-2-style pairwise capture —
    #: the strongest frame survives if it beats each interferer by
    #: ``capture_ratio``.  True: cumulative SINR — a frame survives only
    #: while its power over the *sum* of all interferers plus the noise
    #: floor stays at or above ``sinr_threshold``.
    sinr_mode: bool = False
    #: Minimum signal-to-interference-plus-noise ratio (linear) for a
    #: decodable frame in SINR mode. 10 = 10 dB.
    sinr_threshold: float = 10.0
    #: Thermal-noise floor, watts (≈ -101 dBm over a 2 MHz channel).
    noise_floor: float = 8e-14
    #: Receiver-sensitivity offsets (dB, relative to ``rx_threshold``)
    #: for multi-rate frames: higher modulations need more signal.
    #: Values follow typical 802.11b radios (1 Mb/s: -94 dBm ... 11 Mb/s:
    #: -85 dBm, relative to 2 Mb/s at -91 dBm).
    rate_sensitivity_db: dict = field(
        default_factory=lambda: {1e6: -3.0, 2e6: 0.0, 5.5e6: 4.0, 11e6: 6.0}
    )
    #: Memo of ``10 ** (offset_db / 10)`` per rate — the threshold lookup
    #: runs once per signal classified, and the power-of-ten is constant
    #: for a given sensitivity table.
    _rate_factor_memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def wavelength(self) -> float:
        """Carrier wavelength, metres."""
        return SPEED_OF_LIGHT / self.frequency

    def rx_threshold_for(self, rate: Optional[float]) -> float:
        """Decode threshold for a frame sent at ``rate`` bit/s."""
        if rate is None:
            return self.rx_threshold
        factor = self._rate_factor_memo.get(rate)
        if factor is None:
            offset_db = self.rate_sensitivity_db.get(rate, 0.0)
            factor = 10.0 ** (offset_db / 10.0)
            self._rate_factor_memo[rate] = factor
        return self.rx_threshold * factor


@dataclass(slots=True)
class _Signal:
    """One signal currently on the air at this receiver.

    :meth:`retire` is the callback of the event that ends it: a bound
    method of a slotted object costs less memory per signal than a
    closure.
    """

    pkt: Packet
    power: float
    end_time: float
    #: Decode threshold for the frame's rate, looked up once on arrival:
    #: it depends only on the radio's params and ``meta["phy_rate"]``.
    threshold: float
    #: The receiving radio, for :meth:`retire`.
    phy: "WirelessPhy"
    #: Airtime of the frame.
    duration: float
    corrupted: bool = False
    decoding: bool = False
    distance: float = 0.0

    def retire(self, _event: Event) -> None:
        """The last bit has left the air: end the signal at its radio."""
        self.phy._end_signal(self)


class WirelessPhy:
    """Half-duplex radio attached to one node.

    Parameters
    ----------
    env:
        Simulation environment.
    position_fn:
        Zero-argument callable returning the node's current ``(x, y)``.
    params:
        Radio constants.
    propagation:
        Path-loss model shared with the channel.
    """

    def __init__(
        self,
        env: "Environment",
        position_fn: Callable[[], tuple[float, float]],
        params: Optional[RadioParams] = None,
        propagation: Optional[PropagationModel] = None,
    ) -> None:
        self.env = env
        self.position_fn = position_fn
        self.params = params or RadioParams()
        self.propagation = propagation or TwoRayGround()
        #: The MAC above us; set by the MAC's constructor.
        self.mac = None
        #: The channel we are attached to; set by Channel.attach().
        self.channel = None
        #: Optional random-impairment model applied to otherwise-good
        #: frames (see :mod:`repro.phy.error_models`).
        self.error_model = None
        #: Optional :class:`~repro.phy.energy.EnergyModel` charged for
        #: transmit/receive airtime.
        self.energy = None
        self._signals: list[_Signal] = []
        self._current: Optional[_Signal] = None
        self._tx_end_time = 0.0
        self._idle_waiters: list[Event] = []
        #: Incremented whenever new energy appears on the medium (a signal
        #: arrives or we start transmitting).  MACs compare epochs across a
        #: timed wait to detect that the medium was disturbed meanwhile.
        self.busy_epoch = 0
        #: Called with no arguments right after each ``busy_epoch`` bump
        #: while set.  The DCF backoff sets it for one countdown, so a
        #: countdown needs no event per idle slot to notice a disturbance.
        self.on_disturb: Optional[Callable[[], None]] = None
        #: False while the node is crashed: the radio neither emits nor
        #: decodes, but stays attached so it can come back.
        self.up = True
        #: Overlapping-crash refcount behind :meth:`fail`/:meth:`recover`:
        #: the radio only comes back up when every outstanding failure
        #: window has ended.
        self._down_count = 0
        self._ledger = san.packet_ledger()
        #: Transmit-power multiplier in (0, 1]; < 1 models a power droop.
        self.power_scale = 1.0
        #: Statistics.
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_corrupted = 0
        self.frames_dropped_down = 0
        self._obs_sent = obs.counter("phy.frames.sent")
        self._obs_recv = obs.counter("phy.frames.received")
        self._obs_corrupt = obs.counter("phy.frames.corrupted")
        self._obs_dropped_down = obs.counter("phy.frames.dropped_down")

    # -- geometry ------------------------------------------------------------

    @property
    def position(self) -> tuple[float, float]:
        """Current antenna position (metres)."""
        return self.position_fn()

    # -- fault state ---------------------------------------------------------

    @property
    def tx_power(self) -> float:
        """Effective transmit power, W (nominal power times droop scale)."""
        return self.params.tx_power * self.power_scale

    def fail(self) -> None:
        """Take the radio down (node crash): abandon all in-flight frames."""
        self._down_count += 1
        if not self.up:
            return
        self.up = False
        ledger = self._ledger
        for signal in self._signals:
            signal.corrupted = True
            signal.decoding = False
            if ledger is not None:
                ledger.note(signal.pkt, "rx-down", self.env.now)
        self._current = None

    def recover(self) -> None:
        """Bring the radio back up after a crash.

        Refcounted against :meth:`fail`: with overlapping failure windows
        only the last :meth:`recover` actually restores the radio.
        """
        if self._down_count > 0:
            self._down_count -= 1
        if self._down_count == 0:
            self.up = True

    # -- carrier sense ---------------------------------------------------------

    @property
    def transmitting(self) -> bool:
        """True while this radio is emitting a frame."""
        return self.env.now < self._tx_end_time

    @property
    def medium_busy(self) -> bool:
        """True if we are transmitting or sensing any signal energy."""
        # ``transmitting`` inlined: this is polled from every MAC wait loop.
        return bool(self._signals) or self.env.now < self._tx_end_time

    def wait_idle(self) -> Event:
        """Event that fires as soon as the medium is (or becomes) idle."""
        event = Event(self.env)
        if not self.medium_busy:
            event.succeed()
        else:
            self._idle_waiters.append(event)
        return event

    def _notify_if_idle(self) -> None:
        if not self.medium_busy and self._idle_waiters:
            waiters, self._idle_waiters = self._idle_waiters, []
            for event in waiters:
                event.succeed()

    # -- transmit --------------------------------------------------------------

    def transmit(self, pkt: Packet, duration: float) -> None:
        """Emit ``pkt`` for ``duration`` seconds onto the channel."""
        if self.channel is None:
            raise RuntimeError("phy is not attached to a channel")
        if not self.up:
            # Crashed node: the frame silently never makes it to the air.
            self.frames_dropped_down += 1
            self._obs_dropped_down.inc()
            if self._ledger is not None:
                self._ledger.note(pkt, "tx-down", self.env.now)
            return
        if self.transmitting:
            raise RuntimeError("radio is already transmitting")
        if self._current is not None:
            # Transmit stomps any in-progress reception (half duplex).
            self._current.corrupted = True
            self._current.decoding = False
            if self._ledger is not None:
                self._ledger.note(self._current.pkt, "rx-busy", self.env.now)
            self._current = None
        self._tx_end_time = self.env.now + duration
        self.busy_epoch += 1
        if self.on_disturb is not None:
            self.on_disturb()
        self.frames_sent += 1
        self._obs_sent.inc()
        if self.energy is not None:
            self.energy.note_tx(duration)
        self.channel.transmit(self, pkt, duration)
        # Wake idle waiters when our own transmission completes.  Stays a
        # trampoline: right after this returns, the MAC schedules its own
        # Timeout(duration) for the same instant, and a direct schedule
        # here would swap the two.
        DeferredCall(self.env, duration, self._notify_if_idle)

    # -- receive -----------------------------------------------------------------

    def begin_receive(
        self, pkt: Packet, power: float, duration: float, distance: float = 0.0
    ) -> None:
        """Called by the channel when a signal's first bit arrives."""
        if not self.up:
            if self._ledger is not None:
                self._ledger.note(pkt, "rx-down", self.env.now)
            return  # crashed: deaf until recovery
        if power < self.params.cs_threshold:
            if self._ledger is not None:
                self._ledger.note(pkt, "out-of-range", self.env.now)
            return  # below the noise floor: invisible
        signal = _Signal(
            pkt=pkt,
            power=power,
            end_time=self.env.now + duration,
            threshold=self.params.rx_threshold_for(pkt.meta.get("phy_rate")),
            phy=self,
            duration=duration,
            distance=distance,
        )
        self._signals.append(signal)
        self.busy_epoch += 1
        if self.on_disturb is not None:
            self.on_disturb()
        if self.params.sinr_mode:
            self._classify_sinr(signal)
        else:
            self._classify(signal)
        # Scheduled directly, not through a DeferredCall: nothing runs
        # between here and where the trampoline's first stage would
        # schedule it, so every tie keeps its order (docs/PERFORMANCE.md,
        # "One frame per transmission").
        Timeout(self.env, duration).callbacks.append(signal.retire)

    def _interference_for(self, signal: _Signal) -> float:
        """Noise floor plus the power of every *other* signal on the air."""
        return self.params.noise_floor + sum(
            s.power for s in self._signals if s is not signal
        )

    def _classify_sinr(self, signal: _Signal) -> None:
        """Cumulative-interference reception decision (SINR mode).

        The receiver locks onto the first decodable frame; every later
        arrival is interference.  A decode is corrupted the moment its
        SINR dips below the threshold — corruption is permanent even if
        the interferer ends early (the damaged bits stay damaged).
        """
        ledger = self._ledger
        if self.transmitting:
            signal.corrupted = True
            if ledger is not None:
                ledger.note(signal.pkt, "rx-busy", self.env.now)
            return
        if self._current is not None:
            current = self._current
            sinr = current.power / self._interference_for(current)
            if sinr < self.params.sinr_threshold:
                current.corrupted = True
                if ledger is not None:
                    ledger.note(current.pkt, "collision", self.env.now)
            signal.corrupted = True  # receiver stays locked on current
            if ledger is not None:
                ledger.note(signal.pkt, "collision", self.env.now)
            return
        decodable = (
            signal.power >= signal.threshold
            and signal.power / self._interference_for(signal)
            >= self.params.sinr_threshold
        )
        if decodable:
            signal.decoding = True
            self._current = signal
            if self.mac is not None:
                self.mac.phy_rx_start(signal.pkt)
        else:
            signal.corrupted = True
            if ledger is not None:
                ledger.note(signal.pkt, "undecodable", self.env.now)

    def _classify(self, signal: _Signal) -> None:
        """Decide whether ``signal`` becomes the decoded frame."""
        decodable = signal.power >= signal.threshold
        ledger = self._ledger
        if self.transmitting:
            signal.corrupted = True
            if ledger is not None:
                ledger.note(signal.pkt, "rx-busy", self.env.now)
            return
        if self._current is None:
            if decodable:
                signal.decoding = True
                self._current = signal
                if self.mac is not None:
                    self.mac.phy_rx_start(signal.pkt)
            else:
                signal.corrupted = True
                if ledger is not None:
                    ledger.note(signal.pkt, "undecodable", self.env.now)
            return
        # A reception is already in progress: capture arithmetic.
        current = self._current
        if current.power >= signal.power * self.params.capture_ratio:
            # Existing frame captures; newcomer is harmless interference.
            signal.corrupted = True
            if ledger is not None:
                ledger.note(signal.pkt, "collision", self.env.now)
        elif decodable and signal.power >= current.power * self.params.capture_ratio:
            # Newcomer captures the receiver.
            current.corrupted = True
            current.decoding = False
            if ledger is not None:
                ledger.note(current.pkt, "collision", self.env.now)
            signal.decoding = True
            self._current = signal
            if self.mac is not None:
                self.mac.phy_rx_start(signal.pkt)
        else:
            # Comparable powers: both frames are destroyed.
            current.corrupted = True
            signal.corrupted = True
            if ledger is not None:
                ledger.note(current.pkt, "collision", self.env.now)
                ledger.note(signal.pkt, "collision", self.env.now)

    def _end_signal(self, signal: _Signal) -> None:
        """Retire ``signal`` when its last bit leaves the air."""
        self._signals.remove(signal)
        if not self.up:
            # The node crashed mid-reception: no MAC upcalls, no energy
            # accounting — the frame is simply gone.
            if self._ledger is not None:
                self._ledger.note(signal.pkt, "rx-down", self.env.now)
            self._notify_if_idle()
            return
        if self.energy is not None and signal.power >= signal.threshold:
            self.energy.note_rx(signal.duration)
        if signal is self._current:
            self._current = None
            if signal.corrupted or self.transmitting:
                self.frames_corrupted += 1
                self._obs_corrupt.inc()
                if self._ledger is not None:
                    self._ledger.note(signal.pkt, "collision", self.env.now)
                if self.mac is not None:
                    self.mac.phy_rx_failed(signal.pkt, "collision")
            elif self.error_model is not None and self.error_model.corrupts(
                signal.pkt, signal.distance, signal.power
            ):
                self.frames_corrupted += 1
                self._obs_corrupt.inc()
                if self._ledger is not None:
                    self._ledger.note(signal.pkt, "error-model", self.env.now)
                if self.mac is not None:
                    self.mac.phy_rx_failed(signal.pkt, "error-model")
            else:
                self.frames_received += 1
                self._obs_recv.inc()
                if self.mac is not None:
                    self.mac.phy_rx_end(signal.pkt)
        elif signal.decoding:  # pragma: no cover - defensive
            pass
        else:
            if signal.corrupted and signal.power >= signal.threshold:
                self.frames_corrupted += 1
                self._obs_corrupt.inc()
                if self.mac is not None:
                    self.mac.phy_rx_failed(signal.pkt, "collision")
        self._notify_if_idle()
