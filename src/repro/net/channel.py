"""The shared wireless channel.

A single broadcast medium: every transmission is offered to every other
attached radio, with per-receiver received power computed from the
propagation model and node geometry at transmission time, and delivery
delayed by distance/c.  Receivers below their carrier-sense threshold never
hear the signal at all (ns-2's "interference distance" filter).
"""

from __future__ import annotations

import random
from math import hypot
from typing import TYPE_CHECKING, Optional

from repro.des.events import DeferredBatch
from repro.net import packet as packet_module
from repro.net.packet import Packet
from repro.phy.propagation import SPEED_OF_LIGHT, PropagationModel, TwoRayGround
from repro.phy.radio import WirelessPhy

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.core import Environment


class WirelessChannel:
    """Broadcast radio channel connecting :class:`WirelessPhy` instances."""

    def __init__(
        self,
        env: "Environment",
        propagation: Optional[PropagationModel] = None,
    ) -> None:
        self.env = env
        self.propagation = propagation or TwoRayGround()
        self._phys: list[WirelessPhy] = []
        #: Directed pairs that cannot hear each other (fault injection);
        #: both directions are stored so membership tests stay O(1).  The
        #: value is an outage refcount: two overlapping outages on the
        #: same link must not resurrect it when the first one ends.
        self._blocked: dict[tuple[WirelessPhy, WirelessPhy], int] = {}
        self._ledger = env.probes.ledger
        #: Channel-wide frame-loss probability in [0, 1) while degraded.
        self.loss_rate = 0.0
        self._loss_rng: Optional[random.Random] = None
        #: Statistics: total transmissions offered to the channel.
        self.transmissions = 0
        #: Frames lost to an active channel-degradation window.
        self.degraded_losses = 0
        self._obs_tx = env.probes.counter("channel.transmissions")
        self._obs_degraded = env.probes.counter("channel.degraded_losses")
        #: Per sender, a per-receiver map of the last
        #: ``(sender_pos, receiver_pos, tx_power, distance, rx_power)``.
        #: Platoon geometry is static or slowly moving, so consecutive
        #: transmissions usually see identical positions; a position or
        #: tx-power change misses the cache and recomputes, so mobility
        #: updates invalidate entries implicitly.  Only used when the
        #: propagation model is deterministic (a stochastic model draws
        #: from its RNG per call and must never be cached).  Nested dicts
        #: rather than (sender, receiver) tuple keys: the sender map is
        #: fetched once per transmission, avoiding a tuple allocation per
        #: receiver in the fan-out loop.
        self._link_cache: dict[
            WirelessPhy,
            dict[
                WirelessPhy,
                tuple[
                    tuple[float, float], tuple[float, float], float, float, float
                ],
            ],
        ] = {}

    def attach(self, phy: WirelessPhy) -> None:
        """Connect a radio to this channel."""
        if phy in self._phys:
            raise ValueError("phy already attached")
        phy.channel = self
        phy.propagation = self.propagation
        self._phys.append(phy)

    def detach(self, phy: WirelessPhy) -> None:
        """Disconnect a radio (e.g. a vehicle leaving the scenario)."""
        self._phys.remove(phy)
        phy.channel = None
        self._link_cache.pop(phy, None)
        for receivers in self._link_cache.values():
            receivers.pop(phy, None)

    @property
    def phys(self) -> tuple[WirelessPhy, ...]:
        """Radios currently attached."""
        return tuple(self._phys)

    # -- fault hooks -------------------------------------------------------

    def block_link(self, a: WirelessPhy, b: WirelessPhy) -> None:
        """Make ``a`` and ``b`` mutually inaudible (link outage)."""
        for pair in ((a, b), (b, a)):
            self._blocked[pair] = self._blocked.get(pair, 0) + 1

    def unblock_link(self, a: WirelessPhy, b: WirelessPhy) -> None:
        """Restore a link previously taken down by :meth:`block_link`.

        Refcounted: with overlapping outages on the same link, only the
        last :meth:`unblock_link` actually restores it.
        """
        for pair in ((a, b), (b, a)):
            count = self._blocked.get(pair, 0) - 1
            if count > 0:
                self._blocked[pair] = count
            else:
                self._blocked.pop(pair, None)

    def set_degradation(self, loss_rate: float, rng: random.Random) -> None:
        """Drop frames channel-wide with probability ``loss_rate``."""
        if not 0 <= loss_rate < 1:
            raise ValueError("loss_rate must be in [0, 1)")
        self.loss_rate = loss_rate
        self._loss_rng = rng

    def clear_degradation(self) -> None:
        """End the channel-degradation window."""
        self.loss_rate = 0.0
        self._loss_rng = None

    def transmit(self, sender: WirelessPhy, pkt: Packet, duration: float) -> None:
        """Offer ``pkt`` from ``sender`` to every other attached radio.

        Every receiver in range gets the same copy of ``pkt``, made here
        so the sender's edits between attempts (retry count, NAV
        duration, rate) cannot reach a frame still on the air.  Nothing
        writes to it afterwards: :meth:`repro.mac.base.Mac._deliver_up`
        passes it up as it is, and a routing layer forwards its own
        ``_clone`` (see :mod:`repro.routing.base`).  Each delivery still
        draws one uid that no packet takes: the golden trace digests
        cover uids, and they were pinned when each receiver's own copy
        drew one.  The deliveries share one trampoline stage
        (:class:`~repro.des.events.DeferredBatch`), which keeps their
        event order.
        """
        if not sender.up:
            return
        self.transmissions += 1
        self._obs_tx.inc()
        env = self.env
        params = sender.params
        blocked = self._blocked
        propagation = self.propagation
        cacheable = getattr(propagation, "deterministic", False)
        links: dict[WirelessPhy, tuple] = {}
        if cacheable:
            sender_links = self._link_cache.get(sender)
            if sender_links is None:
                sender_links = self._link_cache[sender] = {}
            links = sender_links
        tx_power = sender.tx_power
        sender_pos = sender.position
        loss_rng = self._loss_rng
        ledger = self._ledger
        frame = pkt._clone()
        uids = packet_module._uid_counter
        deliveries: list[tuple] = []
        for receiver in self._phys:
            if receiver is sender:
                continue
            if blocked and (sender, receiver) in blocked:
                if ledger is not None:
                    ledger.note(pkt, "link-blocked", env.now)
                continue
            receiver_pos = receiver.position
            entry = links.get(receiver)
            if (
                entry is not None
                and entry[0] == sender_pos
                and entry[1] == receiver_pos
                and entry[2] == tx_power
            ):
                distance = entry[3]
                power = entry[4]
            else:
                # hypot, not sqrt(dx²+dy²): the two can differ in the
                # last ulp, and every pinned trace digest was made with
                # hypot.
                distance = hypot(
                    receiver_pos[0] - sender_pos[0],
                    receiver_pos[1] - sender_pos[1],
                )
                power = propagation.rx_power(
                    tx_power,
                    distance,
                    params.wavelength,
                    tx_gain=params.tx_gain,
                    rx_gain=receiver.params.rx_gain,
                    tx_height=params.antenna_height,
                    rx_height=receiver.params.antenna_height,
                    system_loss=params.system_loss,
                )
                if cacheable:
                    links[receiver] = (
                        sender_pos,
                        receiver_pos,
                        tx_power,
                        distance,
                        power,
                    )
            if power < receiver.params.cs_threshold:
                if ledger is not None:
                    ledger.note(pkt, "out-of-range", env.now)
                continue
            if loss_rng is not None and loss_rng.random() < self.loss_rate:
                self.degraded_losses += 1
                self._obs_degraded.inc()
                if ledger is not None:
                    ledger.note(pkt, "degraded", env.now)
                continue
            next(uids)
            deliveries.append(
                (
                    distance / SPEED_OF_LIGHT,
                    _Delivery(receiver, frame, power, duration, distance),
                )
            )
        if deliveries:
            DeferredBatch(env, deliveries)


class _Delivery:
    """Delivery event callback (cheaper than a closure per frame)."""

    __slots__ = ("receiver", "pkt", "power", "duration", "distance")

    def __init__(
        self,
        receiver: WirelessPhy,
        pkt: Packet,
        power: float,
        duration: float,
        distance: float,
    ) -> None:
        self.receiver = receiver
        self.pkt = pkt
        self.power = power
        self.duration = duration
        self.distance = distance

    def __call__(self, _event: object = None) -> None:
        self.receiver.begin_receive(
            self.pkt, self.power, self.duration, distance=self.distance
        )
