"""Discrete-event simulation kernel.

A small, self-contained process-based discrete-event simulation core in the
style of SimPy: an :class:`~repro.des.core.Environment` owns a time-ordered
event queue; *processes* are Python generators that yield events (most often
:class:`~repro.des.events.Timeout`) and are resumed when those events fire.

The network simulator in :mod:`repro.net` is built entirely on this kernel,
replacing the ns-2 scheduler the original paper relied on.

Example
-------
>>> from repro.des import Environment
>>> def clock(env, ticks):
...     for _ in range(ticks):
...         yield env.timeout(1.0)
...     return env.now
>>> env = Environment()
>>> proc = env.process(clock(env, 3))
>>> env.run()
>>> proc.value
3.0
"""

from repro.des.core import Environment
from repro.des.events import (
    Condition,
    Event,
    Timeout,
    URGENT,
    NORMAL,
)
from repro.des.exceptions import (
    Interrupt,
    SchedulingError,
    SimulationError,
    StopSimulation,
)
from repro.des.process import Process

__all__ = [
    "Condition",
    "Environment",
    "Event",
    "Interrupt",
    "NORMAL",
    "Process",
    "SchedulingError",
    "SimulationError",
    "StopSimulation",
    "Timeout",
    "URGENT",
]
