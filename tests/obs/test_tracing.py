"""Unit tests for the span tracer: recording, causality, queries.

These drive the tracer against tiny hand-built environments so every
assertion is about one mechanism (parent derivation, packet-mark
stitching, the span cap) rather than a whole trial; the integration
path — a real trial whose trace reproduces the paper's S6 delay — lives
in ``test_tracing_trial.py``.
"""

from __future__ import annotations

import pytest

from repro.des import Environment
from repro.obs.tracing import (
    SpanTracer,
    causal_chain,
    delivery_span,
    filter_spans,
    initial_warning_uid,
    render_chain,
    render_journey_spans,
    render_spans_table,
    send_time,
)
from repro.obs.tracing.query import collapse_chain
from repro.obs.tracing.spans import Mark, Span


class FakePacket:
    """Just enough of a packet for ``record_packet``."""

    def __init__(self, uid: int, ptype: str = "ebl") -> None:
        self.uid = uid
        self.ptype = ptype


def traced_env(max_spans: int = 500_000):
    env = Environment()
    tracer = SpanTracer(max_spans=max_spans)
    tracer.install(env)
    return env, tracer


# -- recording in the kernel -------------------------------------------------


class TestSpanRecording:
    def test_sequential_timeouts_chain_parent_links(self):
        env, tracer = traced_env()

        def proc(env):
            yield env.timeout(1.0)
            yield env.timeout(2.0)
            yield env.timeout(3.0)

        env.process(proc(env))
        env.run()
        spans = tracer.finalize()
        # Initialize + three timeouts + process completion.
        assert len(spans) == 5
        # Every event was scheduled while the previous one executed.
        for earlier, later in zip(spans, spans[1:]):
            assert later.parent == earlier.sid
        assert [s.seq for s in spans] == [0, 1, 2, 3, 4]
        assert [s.etype for s in spans[1:4]] == ["Timeout"] * 3

    def test_event_scheduled_outside_loop_is_a_root(self):
        env, tracer = traced_env()

        def proc(env):
            yield env.timeout(1.0)

        env.process(proc(env))  # scheduled before any event has run
        env.run()
        spans = tracer.finalize()
        assert spans[0].parent is None

    def test_span_interval_is_schedule_to_fire(self):
        env, tracer = traced_env()

        def proc(env):
            yield env.timeout(1.5)
            yield env.timeout(2.5)
            wake = env.event()
            wake._ok, wake._value = True, None
            env.schedule_at(wake, 4.75)
            yield wake

        env.process(proc(env))
        env.run()
        spans = tracer.finalize()
        second = [s for s in spans if s.etype == "Timeout"][1]
        assert second.scheduled_at == pytest.approx(1.5)
        assert second.fired_at == pytest.approx(4.0)
        assert second.wait == pytest.approx(2.5)
        # schedule_at pushes the traced entry shape as well.
        absolute = [s for s in spans if s.fired_at == 4.75 and s.etype == "Event"]
        assert len(absolute) == 1
        assert absolute[0].scheduled_at == pytest.approx(4.0)
        assert absolute[0].parent == second.sid

    def test_cap_keeps_earliest_spans_and_counts_the_rest(self):
        env, tracer = traced_env(max_spans=2)

        def proc(env):
            for _ in range(5):
                yield env.timeout(1.0)

        env.process(proc(env))
        env.run()
        assert len(tracer.raw) == 2
        # Initialize + 5 timeouts + process completion - 2 recorded.
        assert tracer.dropped == 5
        assert len(tracer.finalize()) == 2

    def test_max_spans_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanTracer(max_spans=0)

    def test_record_packet_before_any_event_is_ignored(self):
        env, tracer = traced_env()
        tracer.record_packet("s", "AGT", 0, FakePacket(7))
        assert tracer.raw_marks == {}

    def test_marks_stitch_onto_the_executing_span(self):
        env, tracer = traced_env()
        pkt = FakePacket(42)

        def touch(_event):
            tracer.record_packet("s", "AGT", 3, pkt)

        ev = env.event()
        ev.callbacks.append(touch)
        env.schedule(ev, delay=1.0)
        env.run()
        spans = tracer.finalize()
        marked = [s for s in spans if s.marks]
        assert len(marked) == 1
        span = marked[0]
        assert span.uids == [42]
        assert span.marks[0].code == "s"
        assert span.marks[0].layer == "AGT"
        # The callback is a bare function with no owning component, so
        # the node comes from the packet mark.
        assert span.node == 3


# -- queries over hand-built spans -------------------------------------------


def make_span(sid, parent=None, seq=0, name="Mac._run", layer="mac",
              node=0, scheduled_at=0.0, fired_at=0.0, marks=()):
    return Span(
        sid=sid, parent=parent, seq=seq, name=name, etype="Timeout",
        layer=layer, node=node, component="repro.mac",
        scheduled_at=scheduled_at, fired_at=fired_at, marks=list(marks),
    )


def warning_spans():
    """A two-hop delivery: send at n0 t=1, deliver at n1 t=1.25."""
    return [
        make_span(1, name="Vehicle._braking_episode", layer="core",
                  node=0, scheduled_at=0.0, fired_at=1.0,
                  marks=[Mark("s", "AGT", 0, 10, "ebl")]),
        make_span(2, parent=1, seq=1, node=0,
                  scheduled_at=1.0, fired_at=1.2,
                  marks=[Mark("s", "MAC", 0, 10, "ebl")]),
        make_span(3, parent=2, seq=2, name="_Delivery", layer="net",
                  node=1, scheduled_at=1.2, fired_at=1.25,
                  marks=[Mark("r", "MAC", 1, 10, "ebl"),
                         Mark("r", "AGT", 1, 10, "ebl")]),
    ]


class TestQueries:
    def test_filter_by_uid_layer_node_window_and_name(self):
        spans = warning_spans()
        assert [s.sid for s in filter_spans(spans, uid=10)] == [1, 2, 3]
        assert [s.sid for s in filter_spans(spans, layer="mac")] == [2]
        assert [s.sid for s in filter_spans(spans, node=1)] == [3]
        assert [s.sid for s in filter_spans(spans, since=1.1)] == [2, 3]
        assert [s.sid for s in filter_spans(spans, until=1.2)] == [1, 2]
        assert [s.sid for s in filter_spans(spans, name="braking")] == [1]
        assert filter_spans(spans, uid=99) == []

    def test_delivery_send_and_warning_uid(self):
        spans = warning_spans()
        assert delivery_span(spans, 10).sid == 3
        assert delivery_span(spans, 10, dst=0) is None
        assert send_time(spans, 10) == 1.0
        assert initial_warning_uid(spans, src=0, dst=1) == 10
        # A uid never sent from src does not count as a warning.
        assert initial_warning_uid(spans, src=1, dst=0) is None

    def test_initial_warning_prefers_earliest_delivery(self):
        spans = warning_spans() + [
            make_span(4, name="App.send", layer="core", node=0,
                      fired_at=0.5, marks=[Mark("s", "AGT", 0, 11, "ebl")]),
            make_span(5, parent=4, seq=4, name="_Delivery", layer="net",
                      node=1, scheduled_at=0.5, fired_at=0.9,
                      marks=[Mark("r", "AGT", 1, 11, "ebl")]),
        ]
        assert initial_warning_uid(spans, src=0, dst=1) == 11

    def test_non_data_marks_never_count_as_warnings(self):
        spans = [
            make_span(1, fired_at=0.1,
                      marks=[Mark("s", "AGT", 0, 5, "rts")]),
            make_span(2, parent=1, seq=1, node=1, fired_at=0.2,
                      marks=[Mark("r", "AGT", 1, 5, "rts")]),
        ]
        assert initial_warning_uid(spans, src=0, dst=1) is None

    def test_causal_chain_walks_to_the_root_oldest_first(self):
        spans = warning_spans()
        chain = causal_chain(spans, 3)
        assert [s.sid for s in chain] == [1, 2, 3]
        assert causal_chain(spans, 99) == []

    def test_collapse_merges_consecutive_same_name_spans(self):
        spans = [make_span(1, name="A", fired_at=0.0)]
        for sid in range(2, 6):
            spans.append(make_span(sid, parent=sid - 1, seq=sid - 1,
                                   name="Mac._run",
                                   scheduled_at=0.1 * (sid - 1),
                                   fired_at=0.1 * sid))
        steps = collapse_chain(causal_chain(spans, 5))
        assert [(s.span.name, s.count) for s in steps] == [
            ("A", 1), ("Mac._run", 4),
        ]
        # The collapsed step spans first schedule to last fire.
        assert steps[1].first_at == pytest.approx(0.1)
        assert steps[1].span.fired_at == pytest.approx(0.5)


class TestRendering:
    def test_render_chain_shows_repeats_and_marks(self):
        spans = warning_spans() + [
            make_span(4, parent=3, seq=3, name="_Delivery", layer="net",
                      node=1, scheduled_at=1.25, fired_at=1.3),
        ]
        text = render_chain(causal_chain(spans, 4), uid=10)
        assert "Vehicle._braking_episode" in text
        assert "_Delivery x2" in text
        assert "s AGT uid=10" in text

    def test_render_chain_elides_old_steps_keeps_delivery(self):
        spans = [make_span(1, name="root", fired_at=0.0)]
        for sid in range(2, 12):
            spans.append(make_span(sid, parent=sid - 1, seq=sid - 1,
                                   name=f"step{sid}", fired_at=0.1 * sid))
        text = render_chain(causal_chain(spans, 11), limit=3)
        assert "8 earlier step(s) elided" in text
        assert "step11" in text
        assert "root" not in text

    def test_render_spans_table_limits_and_footers(self):
        spans = warning_spans()
        text = render_spans_table(spans, limit=2)
        assert "1 more not shown" in text
        assert "n0/core" in text
        full = render_spans_table(spans, limit=0)
        assert "more not shown" not in full
        assert "r MAC uid=10" in full

    def test_render_journey_spans_shows_only_the_uid(self):
        spans = warning_spans()
        spans[2].marks.append(Mark("r", "MAC", 1, 99, "ebl"))
        text = render_journey_spans(spans, uid=10)
        assert "s AGT" in text and "r AGT" in text
        assert "uid=99" not in text
