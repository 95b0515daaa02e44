"""Generator-backed simulation processes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.des.events import Event, Initialize, Interruption, _PENDING
from repro.des.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.core import Environment

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running process.

    A process wraps a generator that yields :class:`~repro.des.events.Event`
    instances.  The process itself is an event that fires when the generator
    terminates — other processes can therefore wait for its completion, and
    its :attr:`value` is the generator's return value.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: ProcessGenerator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting for (None while active).
        self._target: Optional[Event] = None
        Initialize(env, self)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process({name}) object at {id(self):#x}>"

    @property
    def name(self) -> str:
        """Name of the wrapped generator function."""
        return getattr(self._generator, "__name__", repr(self._generator))

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not terminated."""
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits for, if any."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`~repro.des.exceptions.Interrupt` into the process."""
        Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        env._active_proc = self

        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # The waited-on event failed; deliver its exception.
                    event.defused = True
                    exc = type(event._value)(*event._value.args)
                    exc.__cause__ = event._value
                    next_event = self._generator.throw(exc)
            except StopIteration as exc:
                # Process finished normally.
                self._ok = True
                self._value = exc.value
                env.schedule(self)
                break
            except BaseException as exc:
                # Process crashed; fail the process event so waiters see it.
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if not isinstance(next_event, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if next_event.callbacks is not None:
                # Event not yet processed: subscribe and suspend.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                env._active_proc = None
                return

            # Event already processed: loop and feed its value immediately.
            event = next_event

        self._target = None
        env._active_proc = None
