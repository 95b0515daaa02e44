"""Unit tests for event primitives: Event, Timeout, Condition, Interrupt."""

import pytest

from repro.des import Environment, Interrupt, SimulationError


def test_event_starts_untriggered():
    env = Environment()
    ev = env.event()
    assert not ev.triggered
    assert not ev.processed


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_succeed_sets_value_and_ok():
    env = Environment()
    ev = env.event().succeed("payload")
    assert ev.triggered
    assert ev.ok
    assert ev.value == "payload"


def test_double_succeed_raises():
    env = Environment()
    ev = env.event().succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_failed_event_delivers_exception_to_waiter():
    env = Environment()
    ev = env.event()

    def proc(env):
        try:
            yield ev
        except ValueError:
            return "handled"

    p = env.process(proc(env))
    ev.fail(ValueError("nope"))
    assert env.run(until=p) == "handled"


def test_negative_timeout_raises():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()

    def proc(env):
        got = yield env.timeout(1.0, value="hello")
        return got

    assert env.run(until=env.process(proc(env))) == "hello"


def test_any_of_fires_on_first_event():
    env = Environment()
    t1, t2 = env.timeout(5.0, "slow"), env.timeout(1.0, "fast")

    def proc(env):
        return (yield t1 | t2)

    # The value maps only the sub-events that had fired, to their values.
    assert env.run(until=env.process(proc(env))) == {t2: "fast"}
    assert env.now == 1.0


def test_or_operator_builds_any_of():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0) | env.timeout(3.0)
        return env.now

    assert env.run(until=env.process(proc(env))) == 1.0


def test_condition_over_mixed_environments_rejected():
    env1, env2 = Environment(), Environment()
    with pytest.raises(ValueError):
        env1.timeout(1) | env2.timeout(1)


def test_interrupt_is_delivered_with_cause():
    env = Environment()

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            return ("interrupted", exc.cause, env.now)

    def interrupter(env, victim):
        yield env.timeout(2.0)
        victim.interrupt(cause="brake!")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    assert env.run(until=victim) == ("interrupted", "brake!", 2.0)


def test_interrupting_terminated_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_process_cannot_interrupt_itself():
    env = Environment()

    def selfish(env):
        env.active_process.interrupt()
        yield env.timeout(1)

    env.process(selfish(env))
    with pytest.raises(SimulationError, match="interrupt itself"):
        env.run()


def test_interrupted_process_can_continue_waiting():
    env = Environment()

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            yield env.timeout(5.0)
            return env.now

    def interrupter(env, victim):
        yield env.timeout(1.0)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    assert env.run(until=victim) == 6.0


def test_process_is_alive_and_target():
    env = Environment()

    def sleeper(env):
        yield env.timeout(10.0)

    p = env.process(sleeper(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_process_name():
    env = Environment()

    def my_proc(env):
        yield env.timeout(1)

    assert env.process(my_proc(env)).name == "my_proc"
    env.run()
