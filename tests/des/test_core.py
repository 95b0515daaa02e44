"""Unit tests for the discrete-event environment and event loop."""

import pytest

from repro.des import Environment, SimulationError


def test_initial_time_defaults_to_zero():
    assert Environment().now == 0.0


def test_run_empty_environment_returns_none():
    env = Environment()
    assert env.run() is None
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(3.0)

    env.process(proc(env))
    env.run()
    assert env.now == 3.0


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run(until=5.5)
    assert env.now == 5.5


def test_run_until_past_time_raises():
    env = Environment()
    env.run(until=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "done"

    result = env.run(until=env.process(proc(env)))
    assert result == "done"
    assert env.now == 2.0


def test_run_until_already_processed_event_returns_immediately():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(42)  # not a generator at all

    def empty(env):
        return
        yield  # pragma: no cover

    p = env.process(empty(env))
    env.run()
    assert env.run(until=p) is None


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def waiter(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(waiter(env, 3.0, "c"))
    env.process(waiter(env, 1.0, "a"))
    env.process(waiter(env, 2.0, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    env = Environment()
    order = []

    def waiter(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("first", "second", "third"):
        env.process(waiter(env, tag))
    env.run()
    assert order == ["first", "second", "third"]


def test_unhandled_process_crash_propagates_from_run():
    env = Environment()

    def boom(env):
        yield env.timeout(1.0)
        raise RuntimeError("kaboom")

    env.process(boom(env))
    with pytest.raises(RuntimeError, match="kaboom"):
        env.run()


def test_waited_on_process_crash_is_delivered_to_waiter():
    env = Environment()

    def boom(env):
        yield env.timeout(1.0)
        raise RuntimeError("kaboom")

    def waiter(env):
        try:
            yield env.process(boom(env))
        except RuntimeError as exc:
            return f"caught {exc}"

    result = env.run(until=env.process(waiter(env)))
    assert result == "caught kaboom"


def test_yielding_non_event_fails_the_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_active_process_is_none_outside_callbacks():
    env = Environment()
    assert env.active_process is None

    seen = []

    def proc(env):
        seen.append(env.active_process)
        yield env.timeout(0)

    p = env.process(proc(env))
    env.run()
    assert seen == [p]
    assert env.active_process is None


def test_nested_process_values_flow_through():
    env = Environment()

    def inner(env):
        yield env.timeout(1.0)
        return 21

    def outer(env):
        value = yield env.process(inner(env))
        return value * 2

    assert env.run(until=env.process(outer(env))) == 42
