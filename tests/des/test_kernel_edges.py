"""Kernel edge cases beyond the basics: conditions, failures, ordering."""

import pytest

from repro.des import Environment
from repro.des.events import NORMAL, URGENT


def test_condition_fails_when_subevent_fails():
    env = Environment()
    good = env.timeout(1.0)
    bad = env.event()

    def proc(env):
        try:
            yield good | bad
        except RuntimeError as exc:
            return str(exc)

    p = env.process(proc(env))
    bad.fail(RuntimeError("sub-event died"))
    assert env.run(until=p) == "sub-event died"


def test_or_with_already_processed_event_fires_at_once():
    env = Environment()
    t = env.timeout(1.0, value="early")
    env.run(until=2.0)

    def proc(env):
        results = yield t | env.timeout(1.0, value="late")
        return list(results.values()), env.now

    assert env.run(until=env.process(proc(env))) == (["early"], 2.0)


def test_nested_conditions_compose():
    env = Environment()

    def proc(env):
        yield (env.timeout(3.0) | env.timeout(2.0)) | env.timeout(10.0)
        return env.now

    assert env.run(until=env.process(proc(env))) == 2.0


def test_urgent_events_fire_before_normal_at_same_time():
    env = Environment()
    order = []

    first = env.event()
    second = env.event()
    first.callbacks.append(lambda e: order.append("normal"))
    second.callbacks.append(lambda e: order.append("urgent"))
    first.succeed(priority=NORMAL)
    second.succeed(priority=URGENT)
    env.run()
    assert order == ["urgent", "normal"]


def test_failed_event_without_waiter_raises_from_run():
    env = Environment()
    env.event().fail(ValueError("unobserved failure"))
    with pytest.raises(ValueError, match="unobserved"):
        env.run()


def test_defused_failure_does_not_raise():
    env = Environment()
    ev = env.event()
    ev.defused = True
    ev.fail(ValueError("handled elsewhere"))
    env.run()  # no exception


def test_interrupt_queued_for_terminating_process_is_harmless():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    def interrupter(env, victim):
        yield env.timeout(1.0)  # same instant the victim finishes
        if victim.is_alive:
            victim.interrupt()

    victim = env.process(quick(env))
    env.process(interrupter(env, victim))
    env.run()
    assert not victim.is_alive


def test_run_until_event_from_other_env_still_works_if_same_env_required():
    env = Environment()
    stale = env.timeout(1.0)
    env.run(until=stale)
    assert env.now == 1.0
    # Running again past an already-processed until returns immediately.
    assert env.run(until=stale) is None


def test_process_waiting_on_failed_condition_gets_original_cause():
    env = Environment()
    bad = env.event()

    def proc(env):
        try:
            yield bad | env.event()
        except KeyError as exc:
            return exc.__cause__ is not None

    p = env.process(proc(env))
    bad.fail(KeyError("k"))
    assert env.run(until=p) is True


def test_timeout_zero_fires_this_instant_after_pending():
    env = Environment()
    order = []

    def a(env):
        yield env.timeout(0)
        order.append("a")

    def b(env):
        yield env.timeout(0)
        order.append("b")

    env.process(a(env))
    env.process(b(env))
    env.run()
    assert order == ["a", "b"]
    assert env.now == 0.0
