"""Exception types raised by the discrete-event kernel."""

from __future__ import annotations

from typing import Any


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel itself."""


class SchedulingError(SimulationError, ValueError):
    """An event was scheduled with an invalid time.

    Raised by :meth:`Environment.schedule` for non-finite or negative
    delays, and by :meth:`Environment.run` when the event heap would fire
    an event in the simulated past.  Subclasses :class:`ValueError` so
    callers that historically caught ``ValueError`` for negative timeouts
    keep working.

    Attributes
    ----------
    delay:
        The offending delay (or event time, for past-firing detection).
    now:
        The simulated time at which the violation was detected.
    event:
        The event involved, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        delay: float | None = None,
        now: float | None = None,
        event: Any = None,
    ) -> None:
        super().__init__(message)
        self.delay = delay
        self.now = now
        self.event = event


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Environment.run` at an event.

    Carries the value of the event that caused the stop so ``run(until=...)``
    can return it.
    """

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The interrupting party may attach an arbitrary ``cause`` describing why
    the interrupt happened (e.g. a preempting transmission on a radio).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0]
