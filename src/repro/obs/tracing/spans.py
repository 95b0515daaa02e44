"""The span tracer: a causal record of every executed kernel event.

One *span* per executed event, carrying

* its sim-time interval — ``scheduled_at`` (when it was pushed onto the
  heap) to ``fired_at`` (when its callbacks ran): for a TDMA slot wait
  that interval *is* the wait the paper's S5 claim attributes delay to;
* a causal parent link — the event during whose execution it was
  scheduled (None for events created outside the event loop);
* its owning component/layer/node (resolved lazily, see
  :mod:`repro.obs.tracing.attrib`);
* the packet ``uid``\\ s it touched, stitched on by the node trace hook
  so spans join the packet-journey view on the same key.

Hot-path contract (PR-4/PR-6 discipline): while recording, the kernel
appends the popped heap entry and detached callback list verbatim —
two list appends and one bounds check per event — and *everything*
else (parent resolution, attribution, mark joins) happens here in
:meth:`SpanTracer.finalize`, after the run.  Disabled, the tracer is
simply absent and the kernel runs its original loop.  Either way the
schedule order and event ids are bit-identical (golden-tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.obs.tracing.attrib import Attribution, resolve

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.core import Environment

#: Default cap on recorded spans.  Raw spans pin their event objects and
#: callbacks (that is what makes lazy attribution safe), so memory grows
#: with the cap; 500k spans ≈ a 20 s trial-3 run.
DEFAULT_MAX_SPANS = 500_000


@dataclass
class Mark:
    """One packet touch inside a span (mirrors the journey vocabulary)."""

    code: str
    layer: str
    node: int
    uid: int
    ptype: str

    def to_list(self) -> list:
        return [self.code, self.layer, self.node, self.uid, self.ptype]


@dataclass
class Span:
    """One executed kernel event, resolved for humans."""

    #: Kernel event id (monotone allocation order) — the span id.
    sid: int
    #: Span id of the event that scheduled this one (None at the roots).
    parent: Optional[int]
    #: Execution order index (0 = first event executed under tracing).
    seq: int
    name: str
    #: Event class name ("Timeout", "DeferredCall", ...).
    etype: str
    layer: str
    node: Optional[int]
    component: str
    #: When the event was pushed onto the heap, sim seconds.
    scheduled_at: float
    #: When its callbacks ran, sim seconds.
    fired_at: float
    marks: list[Mark] = field(default_factory=list)

    @property
    def wait(self) -> float:
        """Sim-time spent scheduled-but-not-fired (the span's extent)."""
        return self.fired_at - self.scheduled_at

    @property
    def uids(self) -> list[int]:
        """Packet uids touched during this span, in first-touch order."""
        seen: list[int] = []
        for mark in self.marks:
            if mark.uid not in seen:
                seen.append(mark.uid)
        return seen


class SpanTracer:
    """Collects raw span records during a run; resolves them on demand.

    The kernel (see :meth:`repro.des.core.Environment._install_span_tracer`)
    fills :attr:`raw` with popped six-element heap entries ``(fired_at,
    priority, sid, event, scheduled_at, scheduled_seq)`` and
    :attr:`raw_callbacks` with each event's detached callback list.
    ``scheduled_seq`` is the kernel's ``events_processed`` count at
    scheduling time: execution k under tracing runs with the count at
    ``base + k + 1``, so ``scheduled_seq - base - 1`` indexes the parent
    span directly — no per-event bookkeeping needed to maintain the
    causal link.
    """

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        if max_spans <= 0:
            raise ValueError("max_spans must be positive")
        self.max_spans = max_spans
        #: Raw heap entries of executed events, in execution order.
        self.raw: list[tuple] = []
        #: Detached callback lists, parallel to :attr:`raw`.
        self.raw_callbacks: list[Any] = []
        #: Packet marks keyed by execution index.
        self.raw_marks: dict[int, list[Mark]] = {}
        #: Events executed after the cap was hit (not recorded).
        self.dropped = 0
        #: ``events_processed`` when the tracer was installed.
        self.base = 0
        self._env: Optional["Environment"] = None
        self._attrib_cache: dict[tuple[int, int], Attribution] = {}
        self._finalized: Optional[list[Span]] = None
        self._finalized_len = -1

    def __len__(self) -> int:
        return len(self.raw)

    def install(self, env: "Environment") -> None:
        """Attach to ``env``; every event from here on is recorded."""
        env._install_span_tracer(self)

    def record(
        self, event: str, time: float, node: int, layer: str, pkt: Any
    ) -> None:
        """Packet-sink entry point (see :mod:`repro.obs.probes`).

        ``time`` goes unused: the executing span already carries it.
        """
        self.record_packet(event, layer, node, pkt)

    def record_packet(self, code: str, layer: str, node: int, pkt: Any) -> None:
        """Stitch a packet trace event onto the currently executing span.

        Called from the node trace fan-out with the same vocabulary the
        journey tracker records (``s``/``r``/``f``/``D`` + layer), so
        spans and journeys join on ``uid``.
        """
        env = self._env
        if env is None:
            return
        seq = env.events_processed - self.base - 1
        if 0 <= seq < len(self.raw):
            ptype = pkt.ptype
            mark = Mark(
                code=code,
                layer=layer,
                node=node,
                uid=pkt.uid,
                ptype=getattr(ptype, "value", None) or str(ptype),
            )
            bucket = self.raw_marks.get(seq)
            if bucket is None:
                self.raw_marks[seq] = [mark]
            else:
                bucket.append(mark)

    def finalize(self) -> list[Span]:
        """Resolve every raw record into a :class:`Span` (cached)."""
        if self._finalized is not None and self._finalized_len == len(self.raw):
            return self._finalized
        raw = self.raw
        callbacks = self.raw_callbacks
        base = self.base
        cache = self._attrib_cache
        spans: list[Span] = []
        for seq, item in enumerate(raw):
            fired_at = item[0]
            sid = item[2]
            event = item[3]
            scheduled_at = item[4]
            parent_index = item[5] - base - 1
            parent = (
                raw[parent_index][2] if 0 <= parent_index < seq else None
            )
            who = resolve(event, callbacks[seq], cache)
            marks = self.raw_marks.get(seq, [])
            node = who.node
            if node is None and marks:
                # The packet marks know which node executed this span
                # even when the callback's owner does not.
                node = marks[0].node
            spans.append(
                Span(
                    sid=sid,
                    parent=parent,
                    seq=seq,
                    name=who.name,
                    etype=type(event).__name__,
                    layer=who.layer,
                    node=node,
                    component=who.component,
                    scheduled_at=scheduled_at,
                    fired_at=fired_at,
                    marks=marks,
                )
            )
        self._finalized = spans
        self._finalized_len = len(raw)
        return spans

    def summary(self) -> dict[str, Any]:
        """Trial-summary block for the observability report."""
        return {"recorded": len(self.raw), "dropped": self.dropped}
