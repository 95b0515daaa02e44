"""Interface queues between the routing layer and the MAC.

These replicate ns-2's ``Queue/DropTail``, ``Queue/DropTail/PriQueue`` (the
paper's fixed parameter — routing-protocol packets jump the queue), and a
RED queue as an extension.  A full queue never blocks the producer: the
packet is *dropped*, and a drop callback is invoked so the trace layer can
record it, exactly as ns-2 does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

import random

from repro.des.events import Event
from repro.net.packet import Packet
from repro.obs.registry import OCCUPANCY_EDGES

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.core import Environment

#: Signature of a drop callback: (packet, reason).
DropCallback = Callable[[Packet, str], None]

#: ns-2's default interface queue length, in packets.
DEFAULT_QUEUE_LIMIT = 50


class DropTailQueue:
    """FIFO interface queue that drops arrivals when full (drop-tail).

    The MAC layer consumes packets with :meth:`get`, which returns an event
    that fires with the next packet (immediately if one is waiting).
    """

    def __init__(
        self,
        env: "Environment",
        limit: int = DEFAULT_QUEUE_LIMIT,
        drop_callback: Optional[DropCallback] = None,
    ) -> None:
        if limit <= 0:
            raise ValueError("queue limit must be positive")
        self.env = env
        self.limit = limit
        self.drop_callback = drop_callback
        self._items: list[Packet] = []
        self._getters: list[Event] = []
        #: Counters for analysis.
        self.enqueued = 0
        self.dropped = 0
        self.dequeued = 0
        probes = env.probes
        self._obs_enq = probes.counter("queue.enqueued")
        self._obs_drop = probes.counter("queue.dropped")
        self._obs_occ = probes.histogram("queue.occupancy", OCCUPANCY_EDGES)
        self._san = probes.queue_monitor

    def __len__(self) -> int:
        return len(self._items)

    @property
    def byte_length(self) -> int:
        """Total bytes currently queued."""
        return sum(pkt.size for pkt in self._items)

    def put(self, pkt: Packet) -> bool:
        """Enqueue ``pkt``; returns False (and drops) if the queue is full."""
        # Occupancy is observed at arrival, before the packet is placed:
        # the queue depth the arrival actually experienced.
        self._obs_occ.observe(len(self._items))
        if self._getters:
            # A consumer is already waiting: hand over directly.
            self._getters.pop(0).succeed(pkt)
            self.enqueued += 1
            self.dequeued += 1
            self._obs_enq.inc()
            return True
        if len(self._items) >= self.limit:
            self._drop(pkt, "IFQ")
            return False
        self._insert(pkt)
        self.enqueued += 1
        self._obs_enq.inc()
        self._san.on_occupancy(self, len(self._items))
        return True

    def get(self) -> Event:
        """Event firing with the next packet (FIFO)."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.pop(0))
            self.dequeued += 1
        else:
            self._getters.append(event)
        return event

    def requeue(self, pkt: Packet) -> bool:
        """Put ``pkt`` back at the *head* (MAC gave up mid-service)."""
        if self._getters:
            self._getters.pop(0).succeed(pkt)
            self.dequeued += 1
            return True
        if len(self._items) >= self.limit:
            self._drop(pkt, "IFQ")
            return False
        self._items.insert(0, pkt)
        self._san.on_occupancy(self, len(self._items))
        return True

    def flush(self, reason: str = "IFQ") -> list[Packet]:
        """Drop everything queued (node crash); returns the dropped packets."""
        dropped, self._items = self._items, []
        for pkt in dropped:
            self._drop(pkt, reason)
        return dropped

    def remove_matching(self, predicate: Callable[[Packet], bool]) -> list[Packet]:
        """Remove and return all queued packets matching ``predicate``.

        Used by AODV to purge packets for a broken next hop.
        """
        kept, removed = [], []
        for pkt in self._items:
            (removed if predicate(pkt) else kept).append(pkt)
        self._items = kept
        return removed

    def _insert(self, pkt: Packet) -> None:
        self._items.append(pkt)

    def _drop(self, pkt: Packet, reason: str) -> None:
        self.dropped += 1
        self._obs_drop.inc()
        if self.drop_callback is not None:
            self.drop_callback(pkt, reason)


class PriQueue(DropTailQueue):
    """Drop-tail queue that gives routing-protocol packets priority.

    This is ns-2's ``Queue/DropTail/PriQueue``, the paper's configured
    interface queue type: AODV control packets are inserted ahead of data
    so route discovery is not starved by a full data backlog.
    """

    def _insert(self, pkt: Packet) -> None:
        if pkt.ptype.is_routing_control:
            index = 0
            while (
                index < len(self._items)
                and self._items[index].ptype.is_routing_control
            ):
                index += 1
            self._items.insert(index, pkt)
        else:
            self._items.append(pkt)


class REDQueue(DropTailQueue):
    """Random Early Detection queue (extension; not used by the paper).

    Implements the classic Floyd/Jacobson average-queue-based early drop
    with linear drop probability between ``min_thresh`` and ``max_thresh``.
    """

    def __init__(
        self,
        env: "Environment",
        limit: int = DEFAULT_QUEUE_LIMIT,
        drop_callback: Optional[DropCallback] = None,
        min_thresh: float = 5.0,
        max_thresh: float = 15.0,
        max_prob: float = 0.1,
        weight: float = 0.002,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(env, limit, drop_callback)
        if not 0 < min_thresh < max_thresh:
            raise ValueError("require 0 < min_thresh < max_thresh")
        if not 0 < max_prob <= 1:
            raise ValueError("max_prob must be in (0, 1]")
        self.min_thresh = min_thresh
        self.max_thresh = max_thresh
        self.max_prob = max_prob
        self.weight = weight
        self.avg = 0.0
        self._rng = rng or random.Random(0)

    def put(self, pkt: Packet) -> bool:
        self.avg = (1 - self.weight) * self.avg + self.weight * len(self._items)
        if self.avg >= self.max_thresh:
            self._drop(pkt, "RED")
            return False
        if self.avg >= self.min_thresh:
            fraction = (self.avg - self.min_thresh) / (
                self.max_thresh - self.min_thresh
            )
            if self._rng.random() < fraction * self.max_prob:
                self._drop(pkt, "RED")
                return False
        return super().put(pkt)
