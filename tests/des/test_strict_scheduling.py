"""Kernel hardening: delay validation and strict-mode past-firing detection."""

from __future__ import annotations

import math
from heapq import heappush

import pytest

from repro.des import Environment, SchedulingError, SimulationError


# -- always-on validation in schedule()/timeout() ------------------------------


@pytest.mark.parametrize("delay", [math.nan, -1.0, -1e-9, math.inf, -math.inf])
def test_schedule_rejects_invalid_delay(delay):
    env = Environment()
    with pytest.raises(SchedulingError):
        env.schedule(env.event(), delay=delay)
    # The absolute-time entry point rejects the same instants.
    with pytest.raises(SchedulingError):
        env.schedule_at(env.event(), env.now + delay)
    assert env.peek() == math.inf  # nothing was enqueued


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
    env = Environment(initial_time=5.0)
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


# -- strict mode ---------------------------------------------------------------


def test_strict_flag_exposed():
    assert Environment(strict=True).strict
    assert not Environment().strict


@pytest.mark.parametrize("delay", [math.nan, -1.0])
def test_strict_env_rejects_bad_delays_too(delay):
    env = Environment(strict=True)
    with pytest.raises(SchedulingError):
        env.schedule(env.event(), delay=delay)
    with pytest.raises(SchedulingError):
        env.schedule_at(env.event(), env.now + delay)


def test_strict_step_detects_event_in_the_past():
    env = Environment(strict=True, initial_time=10.0)
    event = env.event()
    event._ok = True
    event._value = None
    # Bypass schedule() the way a buggy subclass would.
    heappush(env._queue, (4.0, 1, 0, event))  # simlint: disable=SIM006
    with pytest.raises(SchedulingError) as excinfo:
        env.step()
    assert excinfo.value.now == 10.0
    assert "past" in str(excinfo.value)


def test_non_strict_step_keeps_legacy_tolerance():
    # Without strict mode a corrupted heap still steps (legacy behaviour);
    # time simply moves backwards.
    env = Environment(initial_time=10.0)
    event = env.event()
    event._ok = True
    event._value = None
    heappush(env._queue, (4.0, 1, 0, event))  # simlint: disable=SIM006
    env.step()
    assert env.now == 4.0


def test_strict_env_runs_normal_simulations():
    env = Environment(strict=True)
    fired = []
    env.process(iter_timeouts(env, fired, [0.5, 0.25]))
    env.run()
    assert env.now == pytest.approx(0.75)
