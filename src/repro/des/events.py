"""Event primitives for the discrete-event kernel.

Events move through three states: *untriggered* (no value, not scheduled),
*triggered* (scheduled on the environment's queue but callbacks not yet run),
and *processed* (callbacks have run).  Processes wait on events by yielding
them; the kernel resumes the process with the event's value (or throws the
event's exception into it if the event failed).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.des.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.des.core import Environment

#: Scheduling priority for events that must run before same-time normal events
#: (used e.g. for interrupts).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

_PENDING = object()


class Event:
    """A one-shot occurrence processes can wait for.

    Parameters
    ----------
    env:
        The environment the event belongs to.
    """

    # Events are the most-allocated objects in a run; a fixed slot
    # layout removes the per-instance __dict__.  Subclasses that add
    # attributes declare their own __slots__ (or fall back to a dict).
    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: Set to True by a waiting process to mark a failure as handled,
        #: suppressing the "unhandled failed event" error.
        self.defused = False

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} object at {id(self):#x}>"

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event fired successfully (only valid once triggered)."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not yet been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (its payload, or the failure exception)."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not yet been triggered")
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state (ok/value) of another event.

        Used as a callback to chain events together.
        """
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    ``delay`` must be finite and non-negative; invalid delays raise
    :class:`~repro.des.exceptions.SchedulingError` (a ``ValueError``
    subclass) from :meth:`Environment.schedule`.
    """

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        # Timeouts are the single most-allocated event type (every AIFS
        # deferral, ACK wait, and delivery creates one), so the base
        # __init__ is inlined: attribute-for-attribute identical to
        # Event.__init__ followed by the triggered-state assignment.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self._delay = delay
        env.schedule(self, priority=NORMAL, delay=delay)

    @property
    def delay(self) -> float:
        """The delay this timeout was created with."""
        return self._delay


class Initialize(Event):
    """Internal event that starts a :class:`~repro.des.process.Process`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: Any) -> None:
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class Interruption(Event):
    """Internal urgent event delivering an interrupt to a process."""

    __slots__ = ("_process",)

    def __init__(self, process: Any, cause: Any) -> None:
        from repro.des.exceptions import Interrupt

        super().__init__(process.env)
        if process.triggered:
            raise SimulationError("cannot interrupt a terminated process")
        if process is self.env.active_process:
            raise SimulationError("a process is not allowed to interrupt itself")
        self.callbacks = [self._interrupt]
        self._ok = False
        self._value = Interrupt(cause)
        self.defused = True
        self._process = process
        self.env.schedule(self, priority=URGENT)

    def _interrupt(self, event: "Event") -> None:
        if self._process.triggered:
            return  # process terminated before the interrupt was delivered
        # Detach the process from whatever it is currently waiting on.
        target = self._process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._process._resume)
            except ValueError:
                pass
        self._process._resume(self)


class Condition(Event):
    """Composite event over several sub-events (``&`` / ``|``)."""

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list["Event"], int], bool],
        events: Iterable["Event"],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("events belong to different environments")

        for event in self._events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

        if self._value is _PENDING and self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())

    def _collect_values(self) -> dict["Event", Any]:
        """Values of all processed-and-ok sub-events, in definition order."""
        return {
            e: e._value for e in self._events if e.callbacks is None and e._ok
        }

    def _check(self, event: "Event") -> None:
        if self._value is not _PENDING:
            return
        self._count += 1
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())

    @staticmethod
    def all_events(events: list["Event"], count: int) -> bool:
        """Evaluate to done when every sub-event has fired."""
        return len(events) == count

    @staticmethod
    def any_events(events: list["Event"], count: int) -> bool:
        """Evaluate to done when at least one sub-event has fired."""
        return count > 0 or not events


class AllOf(Condition):
    """Condition that fires once all of ``events`` have fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable["Event"]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that fires once any of ``events`` has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable["Event"]) -> None:
        super().__init__(env, Condition.any_events, events)


class DeferredCall(Event):
    """Run ``fn`` after ``delay`` seconds, mimicking a one-yield process.

    Fire-and-forget work (the phy's transmit-done notification) uses
    this in place of ``env.process(one_yield_gen())``.  A generator
    process costs three heap events — :class:`Initialize`, the
    :class:`Timeout` it yields, and the process's own completion event;
    this costs two and no generator frame.

    Equivalence with the process version is exact, not approximate: the
    first stage is scheduled ``URGENT`` at the current time from the same
    call site where ``Process.__init__`` would schedule its
    ``Initialize``, and the delay :class:`Timeout` is created inside that
    stage's callback — the same point in the global scheduling sequence
    where the generator's first ``yield env.timeout(delay)`` would create
    it.  ``fn`` then runs as the timeout's callback, exactly where
    ``Process._resume`` would run the generator body.  The only event
    removed is the process completion event, which has no callbacks and
    therefore cannot affect the relative order of any other events.
    """

    __slots__ = ("_fn", "_delay")

    def __init__(
        self, env: "Environment", delay: float, fn: Callable[[], None]
    ) -> None:
        self.env = env
        self._fn = fn
        self._delay = delay
        self.callbacks = [self._arm]
        self._value = None
        self._ok = True
        self.defused = False
        env.schedule(self, priority=URGENT)

    def _arm(self, _event: "Event") -> None:
        # Bare pre-succeeded Event rather than a Timeout: the second stage
        # is internal, so the cheaper construction is unobservable.
        env = self.env
        stage = Event.__new__(Event)
        stage.env = env
        stage.callbacks = [self._run]
        stage._value = None
        stage._ok = True
        stage.defused = False
        env.schedule(stage, delay=self._delay)

    def _run(self, _event: "Event") -> None:
        self._fn()


class DeferredBatch(Event):
    """One trampoline stage shared by several deferred callbacks.

    Batched equivalent of creating one :class:`DeferredCall` per
    ``(delay, callback)`` item *consecutively at a single call site with
    no event scheduled in between* (the channel's fan-out of one shared
    frame to every receiver in range).  N consecutive stage-1 events
    would hold consecutive insertion ids at the same (time, URGENT) key,
    so they pop back-to-back with nothing able to run between them, each
    creating its delay event in turn.  Creating all delay events inside
    one shared stage callback — in list order — therefore produces the
    identical global allocation sequence with one heap event instead of
    N.  Callbacks receive the fired delay event (they are ordinary event
    callbacks).
    """

    __slots__ = ("_items",)

    def __init__(
        self,
        env: "Environment",
        items: list[tuple[float, Callable[["Event"], None]]],
    ) -> None:
        self.env = env
        self._items = items
        self.callbacks = [self._arm]
        self._value = None
        self._ok = True
        self.defused = False
        env.schedule(self, priority=URGENT)

    def _arm(self, _event: "Event") -> None:
        env = self.env
        schedule = env.schedule
        for delay, callback in self._items:
            stage = Event.__new__(Event)
            stage.env = env
            stage.callbacks = [callback]
            stage._value = None
            stage._ok = True
            stage.defused = False
            schedule(stage, delay=delay)
