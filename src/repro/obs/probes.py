"""One scenario's instrumentation seam: the probes its components bind.

:class:`~repro.core.scenario.EblScenario` builds one :class:`Probes` from
its observability and sanitizer runtimes, before it builds the channel,
and hangs it on its environment as ``env.probes``.  Every component
reaches it through the environment it is built with and binds what it
needs once, at construction::

    probes = env.probes
    self._obs_retx = probes.counter("mac.dcf.retransmissions")
    self._san = probes.dcf_monitor

A bare :class:`~repro.des.core.Environment` carries :data:`NULL_PROBES`:
null instruments and the null monitor, whose update and hook methods are
no-ops, no ledger and no packet sinks.  A component built outside a
scenario therefore records nothing, and the disabled path costs one
no-op call per instrumented event.  Nothing here is process-wide, so a
scenario cannot bind the probes of one built before it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.obs.registry import (
    LATENCY_EDGES,
    NULL_COUNTER,
    NULL_HISTOGRAM,
    Counter,
    Histogram,
    MetricRegistry,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.journey import JourneyTracker
    from repro.obs.runtime import Observability
    from repro.sanitizer.ledger import PacketLedger
    from repro.sanitizer.runtime import Sanitizer


class _NullMonitor:
    """Shared no-op monitor bound while the sanitizer's protocol checks
    are off.

    One class carries every hook any protocol monitor exposes, so a
    single shared instance serves queues, TCP agents, and MACs alike.
    """

    __slots__ = ()

    def on_occupancy(self, queue: Any, occupancy: int) -> None:
        """Queue occupancy after an insert (no-op)."""

    def on_segment_sent(self, agent: Any, seqno: int) -> None:
        """TCP sender emitted a segment (no-op)."""

    def on_ack(self, agent: Any, ackno: int) -> None:
        """TCP sender received an ACK (no-op)."""

    def on_sink(self, sink: Any) -> None:
        """TCP sink processed a data segment (no-op)."""

    def on_slot_tx(self, mac: Any, start: float, duration: float) -> None:
        """TDMA MAC began a slot transmission (no-op)."""

    def on_nav(self, mac: Any, until: float) -> None:
        """802.11 MAC updated its NAV (no-op)."""

    def on_backoff(self, mac: Any, slots: int) -> None:
        """802.11 MAC drew a backoff (no-op)."""


NULL_MONITOR = _NullMonitor()


class Probes:
    """Everything one scenario's components bind at construction.

    ``packet_sinks`` holds the journey tracker, the span tracer and the
    conservation ledger, in that order, leaving out those that are off.
    Each node puts its own tracer in front and calls every sink's
    ``record(event, time, node, layer, pkt)`` on each packet event, so
    the empty tuple is the fast path.  The sinks are held as objects and
    their methods looked up per call: a wrapper set on a sink instance
    after the scenario is built (perfbench's layer clock) sees every
    call.

    ``journeys`` and ``ledger`` are also exposed on their own (``None``
    when off) for the few hooks off the trace path: the DCF retry mark,
    MAC service residency, and the channel's and phy's loss notes.
    """

    def __init__(
        self,
        observability: Optional["Observability"] = None,
        sanitizer: Optional["Sanitizer"] = None,
    ) -> None:
        spans = None
        self.registry: Optional[MetricRegistry] = None
        self.journeys: Optional["JourneyTracker"] = None
        if observability is not None:
            self.registry = observability.registry
            self.journeys = observability.journeys
            spans = observability.spans
        self.ledger: Optional["PacketLedger"] = (
            sanitizer.ledger if sanitizer is not None else None
        )
        self.packet_sinks: tuple[Any, ...] = tuple(
            sink
            for sink in (self.journeys, spans, self.ledger)
            if sink is not None
        )
        self.queue_monitor: Any = NULL_MONITOR
        self.tcp_monitor: Any = NULL_MONITOR
        self.tdma_monitor: Any = NULL_MONITOR
        self.dcf_monitor: Any = NULL_MONITOR
        if sanitizer is not None and sanitizer.config.protocols:
            self.queue_monitor = sanitizer.queue_mon
            self.tcp_monitor = sanitizer.tcp_mon
            self.tdma_monitor = sanitizer.tdma_mon
            self.dcf_monitor = sanitizer.dcf_mon

    def counter(self, name: str) -> Counter:
        """The named counter from the registry, or the null counter."""
        if self.registry is None:
            return NULL_COUNTER  # type: ignore[return-value]
        return self.registry.counter(name)

    def histogram(
        self, name: str, edges: tuple[float, ...] = LATENCY_EDGES
    ) -> Histogram:
        """The named histogram from the registry, or the null one."""
        if self.registry is None:
            return NULL_HISTOGRAM  # type: ignore[return-value]
        return self.registry.histogram(name, edges)


#: The probes of a bare environment: every instrument and monitor null.
NULL_PROBES = Probes()
