"""Seeded property tests for kernel ordering and validation invariants.

Complements ``test_properties.py`` (time monotonicity, store
conservation) with the ordering guarantees the differential-equivalence
gate leans on: same-time events fire in (priority, insertion) order,
composite conditions trigger per their semantics, and invalid delays are
rejected regardless of value.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.des import Environment, SchedulingError
from repro.des.events import NORMAL, URGENT


@given(
    st.lists(
        st.tuples(st.sampled_from([URGENT, NORMAL]), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=100, deadline=None)
def test_same_time_events_fire_in_priority_then_insertion_order(plan):
    """Ties at one timestamp resolve by (priority, insertion sequence),
    whether an event was scheduled by delay or by absolute time."""
    env = Environment()
    fired = []
    priorities = [priority for priority, _ in plan]

    def record(index):
        return lambda event: fired.append(index)

    for index, (priority, absolute) in enumerate(plan):
        event = env.event()
        event._ok = True
        event._value = None
        event.callbacks.append(record(index))
        if absolute:
            env.schedule_at(event, 1.0, priority=priority)
        else:
            env.schedule(event, priority=priority, delay=1.0)
    env.run()

    expected = sorted(
        range(len(priorities)), key=lambda i: (priorities[i], i)
    )
    assert fired == expected


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20
    )
)
@settings(max_examples=100, deadline=None)
def test_all_of_fires_at_last_event_with_every_value(delays):
    """AllOf triggers once the slowest sub-event fires, collecting all."""
    env = Environment()
    timeouts = [env.timeout(d, value=i) for i, d in enumerate(delays)]
    condition = env.all_of(timeouts)
    done_at = []
    condition.callbacks.append(lambda event: done_at.append(env.now))
    env.run()
    assert done_at == [max(delays)]
    assert condition.ok
    assert list(condition.value.values()) == list(range(len(delays)))


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20
    )
)
@settings(max_examples=100, deadline=None)
def test_any_of_fires_at_first_event(delays):
    """AnyOf triggers with the earliest sub-event (earliest-created on ties)."""
    env = Environment()
    timeouts = [env.timeout(d, value=i) for i, d in enumerate(delays)]
    condition = env.any_of(timeouts)
    done_at = []
    condition.callbacks.append(lambda event: done_at.append(env.now))
    env.run()
    assert done_at == [min(delays)]
    # The winning value belongs to the first timeout created with the
    # minimum delay — insertion order breaks the tie.
    winner = delays.index(min(delays))
    assert list(condition.value.values()) == [winner]


@given(
    st.one_of(
        st.floats(max_value=0.0, exclude_max=True, allow_nan=False),
        st.just(math.nan),
        st.just(math.inf),
        st.just(-math.inf),
    )
)
@settings(max_examples=100, deadline=None)
def test_invalid_delays_always_raise_scheduling_error(delay):
    """Every negative, NaN, or infinite delay is rejected — any value."""
    env = Environment(strict=True)
    with pytest.raises(SchedulingError):
        env.timeout(delay)
    with pytest.raises(SchedulingError):
        env.schedule(env.event(), delay=delay)
    with pytest.raises(SchedulingError):
        env.schedule_at(env.event(), env.now + delay)
    # Nothing leaked onto the heap from the failed attempts.
    assert env.peek() == math.inf


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0),
            st.sampled_from([URGENT, NORMAL]),
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=100, deadline=None)
def test_strict_mode_fires_everything_without_false_positives(schedule_plan):
    """Strict past-firing detection never trips on a valid schedule."""
    env = Environment(strict=True)
    fired = 0

    def bump(event):
        nonlocal fired
        fired += 1

    for delay, priority in schedule_plan:
        event = env.event()
        event._ok = True
        event._value = None
        event.callbacks.append(bump)
        env.schedule(event, priority=priority, delay=delay)
    env.run()
    assert fired == len(schedule_plan)
    assert env.events_processed == len(schedule_plan)
