"""Seeded property tests for kernel ordering and validation invariants.

Complements ``test_properties.py`` (time monotonicity, ``|`` at the
minimum delay) with the ordering guarantees the pinned trace digests
lean on: same-time events fire in (priority, insertion) order in both
run loops, ``a | b`` fires with its first sub-event, and invalid delays
are rejected regardless of value.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from repro.des import Environment, SchedulingError
from repro.des.events import NORMAL, URGENT
from tests.des.conftest import both_loops, new_env


@both_loops
@given(
    st.lists(
        st.tuples(st.sampled_from([URGENT, NORMAL]), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=100, deadline=None)
def test_ties_fire_in_priority_then_insertion_order(traced, plan):
    """Ties at one timestamp resolve by (priority, insertion sequence),
    whether an event was scheduled by delay or by absolute time."""
    env = new_env(traced)
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
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=100.0),
)
@example(1.0, 1.0)
@settings(max_examples=100, deadline=None)
def test_any_of_fires_at_first_event(first, second):
    """``a | b`` triggers with the earlier sub-event (``a`` on a tie)."""
    env = Environment()
    a = env.timeout(first, value="a")
    b = env.timeout(second, value="b")
    condition = a | b
    done_at = []
    condition.callbacks.append(lambda event: done_at.append(env.now))
    env.run()
    assert done_at == [min(first, second)]
    # Insertion order breaks the tie: ``a`` was created first, and ``b``
    # had not fired yet when ``a`` triggered the condition.
    winner = a if first <= second else b
    assert condition.value == {winner: winner.value}


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
    env = Environment()
    with pytest.raises(SchedulingError):
        env.timeout(delay)
    with pytest.raises(SchedulingError):
        env.schedule(env.event(), delay=delay)
    with pytest.raises(SchedulingError):
        env.schedule_at(env.event(), env.now + delay)
    # Nothing leaked onto the heap from the failed attempts.
    assert env.pending_events == 0


@both_loops
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
def test_past_event_check_has_no_false_positives(traced, schedule_plan):
    """The past-event check never trips on a valid schedule."""
    env = new_env(traced)
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
