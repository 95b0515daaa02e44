"""The simulation environment and event loop."""

from __future__ import annotations

import gc

from heapq import heappop, heappush
from itertools import count
from math import isfinite
from typing import Any, Optional, Union

from repro.des.events import Event, Timeout, NORMAL
from repro.des.exceptions import SchedulingError, SimulationError, StopSimulation
from repro.des.process import Process, ProcessGenerator
from repro.obs.probes import NULL_PROBES, Probes

_INF = float("inf")


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a float in simulated seconds, starts at 0 and only advances
    when :meth:`run` processes events.  :meth:`schedule` rejects invalid
    delays, and :meth:`run` raises :class:`SchedulingError` if an event
    would fire before :attr:`now` (the heap was corrupted or bypassed).
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple] = []
        self._eid = count()
        self._active_proc: Optional[Process] = None
        #: Events processed so far (heartbeat and trace telemetry).
        self.events_processed = 0
        #: Scenario/trial name, stamped by the scenario builder so
        #: :class:`SchedulingError` messages identify the failing run in
        #: campaign failure records without a rerun.
        self.label: Optional[str] = None
        #: The instrumentation every component built on this environment
        #: binds at construction (see :mod:`repro.obs.probes`).  The
        #: scenario builder installs its own before building the stack;
        #: a bare environment keeps the shared null probes.
        self.probes: Probes = NULL_PROBES
        #: Span tracer installed by :meth:`_install_span_tracer` (None
        #: means the untraced fast path — :meth:`run` and :meth:`schedule`
        #: then do no tracing work at all).
        self._span_tracer: Optional[Any] = None

    def _context_suffix(self) -> str:
        """`` [scenario=...]`` when a label is set (error paths only)."""
        return f" [scenario={self.label}]" if self.label else ""

    def __repr__(self) -> str:
        return f"<Environment(now={self._now}, pending={len(self._queue)})>"

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    @property
    def pending_events(self) -> int:
        """Number of events currently scheduled (heartbeat telemetry)."""
        return len(self._queue)

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator)

    # -- scheduling ----------------------------------------------------------

    def schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        """Enqueue ``event`` to fire ``delay`` seconds from now.

        ``delay`` must be finite and non-negative: a NaN key silently
        corrupts the heap invariant (every subsequent pop order becomes
        arbitrary), and a negative delay would fire the event in the
        simulated past.  Both raise :class:`SchedulingError`.
        """
        # One chained comparison covers every invalid case on the hot
        # path: NaN compares false, negatives fail the lower bound, +inf
        # fails the upper.  The cold branch re-derives the precise error.
        if 0.0 <= delay < _INF:
            heappush(
                self._queue, (self._now + delay, priority, next(self._eid), event)
            )
            return
        self._reject_delay(event, delay)

    def schedule_at(
        self, event: Event, at: float, priority: int = NORMAL
    ) -> None:
        """Enqueue ``event`` to fire at the absolute simulated time ``at``.

        The heap key is ``at`` itself.  ``schedule(event, delay=at - now)``
        would store ``now + (at - now)``, which can round to a neighbouring
        float and miss a time computed elsewhere, such as a backoff slot
        boundary reached by repeated addition.  ``at`` must be finite and
        not before :attr:`now`: NaN, infinities and past times raise
        :class:`SchedulingError`.  Same-time ties keep insertion order,
        exactly as with :meth:`schedule`.
        """
        if self._now <= at < _INF:
            if self._span_tracer is None:
                heappush(self._queue, (at, priority, next(self._eid), event))
            else:
                heappush(
                    self._queue,
                    (at, priority, next(self._eid), event,
                     self._now, self.events_processed),
                )
            return
        self._reject_delay(event, at - self._now)

    def _reject_delay(self, event: Event, delay: float) -> None:
        """Raise the appropriate :class:`SchedulingError` for ``delay``."""
        delay = float(delay)
        if not isfinite(delay):
            raise SchedulingError(
                f"cannot schedule {event!r} with non-finite delay {delay!r} "
                f"at t={self._now}{self._context_suffix()}",
                delay=delay,
                now=self._now,
                event=event,
            )
        raise SchedulingError(
            f"cannot schedule {event!r} {-delay} s in the past "
            f"(delay={delay!r} at t={self._now}){self._context_suffix()}",
            delay=delay,
            now=self._now,
            event=event,
        )

    # -- observability hooks -------------------------------------------------

    def _past_event_error(self, at: float, event: Event) -> SchedulingError:
        """The error for an event popped with a time before :attr:`now`."""
        return SchedulingError(
            f"event {event!r} fired at t={at}, {self._now - at} s in the "
            f"past — the event heap was corrupted or bypassed "
            f"(now={self._now}){self._context_suffix()}",
            delay=at - self._now,
            now=self._now,
            event=event,
        )

    def _install_span_tracer(self, tracer: Any) -> None:
        """Attach a span tracer; every event from here on is recorded.

        Installation swaps :meth:`schedule` for an instance-level closure
        that pushes six-element heap entries ``(time, priority, eid,
        event, scheduled_at, scheduled_seq)`` (:meth:`schedule_at` checks
        for the tracer and pushes the same shape): the extra two elements
        never participate in heap comparisons (the unique ``eid`` decides
        every tie first) and give each executed event its schedule time
        and — via ``scheduled_seq``, the ``events_processed`` count at
        scheduling time — the identity of the event that scheduled it.
        The untraced path keeps the plain method and four-element
        entries, so tracing costs nothing while disabled.

        Scheduling order, event ids, and execution are bit-identical with
        tracing on or off (the golden digest tests pin this).
        """
        if self._span_tracer is not None:
            raise SimulationError("a span tracer is already installed")
        self._span_tracer = tracer
        tracer.base = self.events_processed
        tracer._env = self
        now = self._now
        base = tracer.base
        # Widen any pre-install entries; first three elements untouched,
        # so the heap invariant survives without a heapify.
        self._queue = [
            (entry[0], entry[1], entry[2], entry[3], now, base)
            for entry in self._queue
        ]
        queue = self._queue
        eid = self._eid
        env = self

        def schedule(
            event: Event, priority: int = NORMAL, delay: float = 0.0
        ) -> None:
            if 0.0 <= delay < _INF:
                now = env._now
                heappush(
                    queue,
                    (now + delay, priority, next(eid), event,
                     now, env.events_processed),
                )
                return
            env._reject_delay(event, delay)

        self.schedule = schedule  # type: ignore[method-assign]

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the event queue is exhausted;
            a number — run until simulated time reaches it;
            an :class:`Event` — run until that event is processed and return
            its value.
        """
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at < self._now:
                raise ValueError(f"until ({at}) must not be before now ({self._now})")
            until = Event(self)
            until._ok = True
            until._value = None
            self.schedule(until, priority=0 - 1, delay=at - self._now)

        if isinstance(until, Event):
            if until.callbacks is None:  # already processed
                return until.value
            until.callbacks.append(self._stop_callback)

        # The hot loop, in two variants selected once: the plain loop (no
        # tracer attached) and the span-traced loop, which adds one bounds
        # check and two list appends per event and resolves everything
        # else lazily at query time.  Keep their shared body in sync.  On
        # long runs the event loop dominates wall-clock and per-event
        # attribute lookups are measurable, so the heap, the pop and the
        # clock are bound to locals; the past-event check compares the
        # popped time with the local clock.
        # ``events_processed`` is updated in-loop (not batched into a
        # local and flushed on exit) so heartbeat callbacks running *inside*
        # this loop observe a current count.
        queue = self._queue
        now = self._now
        pop = heappop
        tracer = self._span_tracer
        # While a tracer is recording, every executed event and callback
        # list is pinned in its raw store.  That retention makes the
        # cyclic collector pathological — each generation-2 pass rescans
        # the ever-growing trace (measured 8x the tracer's own per-event
        # cost) — so suspend it for the traced run and restore after.
        # Reference counting still frees acyclic garbage; cycles created
        # during the run are reclaimed by the next natural collection.
        gc_was_enabled = tracer is not None and gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if tracer is None:
                while queue:
                    at, _, _, event = pop(queue)
                    if at < now:
                        raise self._past_event_error(at, event)
                    self._now = now = at
                    self.events_processed += 1

                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        callback(event)

                    if event._ok is False and not event.defused:
                        # Nobody handled the failure: surface it to
                        # run()'s caller.
                        raise event._value
            else:
                # Span tracing: the heap entries are six-tuples (see
                # _install_span_tracer); record the popped entry and the
                # detached callback list verbatim — attribution, parent
                # resolution and packet stitching all happen off the hot
                # path, when the trace is finalized.
                raw_append = tracer.raw.append
                cbs_append = tracer.raw_callbacks.append
                room = tracer.max_spans - len(tracer.raw)
                while queue:
                    item = pop(queue)
                    at = item[0]
                    event = item[3]
                    if at < now:
                        raise self._past_event_error(at, event)
                    self._now = now = at
                    self.events_processed += 1

                    callbacks, event.callbacks = event.callbacks, None
                    if room > 0:
                        room -= 1
                        raw_append(item)
                        cbs_append(callbacks)
                    else:
                        tracer.dropped += 1
                    for callback in callbacks:
                        callback(event)

                    if event._ok is False and not event.defused:
                        raise event._value
        except StopSimulation as stop:
            return stop.value
        finally:
            if gc_was_enabled:
                gc.enable()

        if isinstance(until, Event) and not until.triggered:
            raise SimulationError(
                "run() finished with the 'until' event untriggered"
            )
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation(event.value)
