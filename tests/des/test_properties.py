"""Property-based tests for kernel invariants (hypothesis)."""

from functools import reduce
from operator import or_

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_time_is_monotonic_nondecreasing(delays):
    """Observed simulation times never go backwards."""
    env = Environment()
    observed = []

    def proc(env, delay):
        yield env.timeout(delay)
        observed.append(env.now)

    for delay in delays:
        env.process(proc(env, delay))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_sequential_delays_accumulate_exactly(delays):
    """A process sleeping d1..dn finishes at sum(di) (float addition order)."""
    env = Environment()

    def proc(env):
        for delay in delays:
            yield env.timeout(delay)
        return env.now

    expected = 0.0
    for delay in delays:
        expected += delay
    assert env.run(until=env.process(proc(env))) == expected


@given(st.lists(st.floats(min_value=0, max_value=50), min_size=2, max_size=20))
@settings(max_examples=50, deadline=None)
def test_any_of_completes_at_min_delay(delays):
    """A chain of ``|`` over timeouts completes exactly at the minimum delay."""
    env = Environment()

    def proc(env):
        yield reduce(or_, [env.timeout(d) for d in delays])
        return env.now

    assert env.run(until=env.process(proc(env))) == min(delays)
