"""Kernel hardening: delay validation and past-firing detection."""

from __future__ import annotations

import math
from heapq import heappush

import pytest

from repro.des import Environment, SchedulingError, SimulationError
from tests.des.conftest import both_loops, new_env


# -- always-on validation in schedule()/timeout() ------------------------------


@pytest.mark.parametrize("delay", [math.nan, -1.0, -1e-9, math.inf, -math.inf])
def test_schedule_rejects_invalid_delay(delay):
    env = Environment()
    with pytest.raises(SchedulingError):
        env.schedule(env.event(), delay=delay)
    # The absolute-time entry point rejects the same instants.
    with pytest.raises(SchedulingError):
        env.schedule_at(env.event(), env.now + delay)
    assert env.pending_events == 0  # nothing was enqueued


@pytest.mark.parametrize("delay", [math.nan, -0.5, math.inf])
def test_timeout_rejects_invalid_delay(delay):
    env = Environment()
    with pytest.raises(SchedulingError):
        env.timeout(delay)


def test_scheduling_error_is_value_error_and_simulation_error():
    # Callers that historically caught ValueError keep working.
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_scheduling_error_carries_context():
    env = Environment()
    env.run(until=5.0)
    event = env.event()
    # A delay of -2 s and the absolute time 3.0 name the same past instant.
    for schedule in (
        lambda: env.schedule(event, delay=-2.0),
        lambda: env.schedule_at(event, 3.0),
    ):
        with pytest.raises(SchedulingError) as excinfo:
            schedule()
        err = excinfo.value
        assert err.delay == -2.0
        assert err.now == 5.0
        assert err.event is event
        assert "-2.0" in str(err) and "5.0" in str(err)


def test_nan_delay_no_longer_corrupts_heap_order():
    env = Environment()
    with pytest.raises(SchedulingError):
        env.timeout(math.nan)
    # The heap still pops in time order afterwards.
    fired = []
    env.process(iter_timeouts(env, fired, [3.0, 1.0, 2.0]))
    env.run()
    assert fired == [1.0, 1.0 + 2.0, 1.0 + 2.0 + 3.0]


def iter_timeouts(env, fired, delays):
    for delay in sorted(delays):
        yield env.timeout(delay)
        fired.append(env.now)


def test_zero_delay_still_valid():
    env = Environment()
    timeout = env.timeout(0.0)
    env.run()
    assert timeout.processed
    # An absolute time equal to now is valid too.
    event = env.event()
    event._ok, event._value = True, None
    env.schedule_at(event, env.now)
    env.run()
    assert event.processed


# -- past-firing detection in run() -------------------------------------------


@both_loops
def test_run_detects_event_in_the_past(traced):
    env = new_env(traced)
    env.run(until=10.0)
    event = env.event()
    event._ok = True
    event._value = None
    # Bypass schedule() the way a buggy subclass would, pushing the entry
    # shape the loop pops (the traced loop's carries two more fields).
    entry = (4.0, 1, 0, event)
    if traced:
        entry += (env.now, env.events_processed)
    heappush(env._queue, entry)  # simlint: disable=SIM006
    with pytest.raises(SchedulingError) as excinfo:
        env.run()
    assert excinfo.value.now == 10.0
    assert "past" in str(excinfo.value)
