"""Integration: a real traced trial reproduces the paper's S6 delay.

One Trial 1 run (TDMA, 12 s — long enough for the brake warning to
propagate) is recorded once per module and shared across the tests:

* the causal chain's end-to-end sim time equals the analysis layer's
  ``initial_packet_delay`` bit-for-bit (ISSUE acceptance criterion);
* the exported Chrome trace validates against the trace-event schema;
* the ``ebl-sim trace`` subcommand prints the chain and writes both
  export formats.
"""

from __future__ import annotations

import itertools
import json

import pytest

import repro.net.packet as packet_module
from repro.cli import main
from repro.core.analysis import analyze_trial
from repro.core.runner import run_trial
from repro.core.trials import TRIAL_1
from repro.obs import ObservabilityConfig
from repro.obs.tracing import (
    causal_chain,
    delivery_span,
    initial_warning_uid,
    read_spans_jsonl,
    send_time,
    to_chrome_trace,
    validate_chrome_trace,
)

DURATION = 12.0

TRACE_ONLY = ObservabilityConfig(metrics=False, journeys=False, tracing=True)


@pytest.fixture(scope="module")
def traced_result():
    packet_module._uid_counter = itertools.count()
    return run_trial(
        TRIAL_1.with_overrides(duration=DURATION, observability=TRACE_ONLY)
    )


@pytest.fixture(scope="module")
def spans(traced_result):
    tracer = traced_result.observability.spans
    assert tracer is not None and tracer.dropped == 0
    return tracer.finalize()


def fastest_warning(spans, flows):
    """(delay, uid) of the fastest-delivered initial warning."""
    best = None
    for flow in flows:
        uid = initial_warning_uid(spans, src=flow.src, dst=flow.dst)
        if uid is None:
            continue
        delivered = delivery_span(spans, uid, dst=flow.dst)
        sent = send_time(spans, uid)
        if delivered is None or sent is None:
            continue
        delay = delivered.fired_at - sent
        if best is None or delay < best[0]:
            best = (delay, uid)
    assert best is not None, "no initial warning delivered in 12 s"
    return best


class TestCausalChain:
    def test_end_to_end_delay_matches_initial_packet_delay(
        self, traced_result, spans
    ):
        """The trace decomposes exactly the delay the paper reports.

        Bit-identical, not approximate: the chain's send/delivery spans
        are the same kernel events the packet trace records, so the
        subtraction must reproduce ``analyze_trial``'s number to the
        last ulp.
        """
        delay, _uid = fastest_warning(spans, traced_result.platoon1.flows)
        assert delay == analyze_trial(traced_result, 1).initial_packet_delay

    def test_chain_runs_from_braking_episode_to_delivery(
        self, traced_result, spans
    ):
        _delay, uid = fastest_warning(spans, traced_result.platoon1.flows)
        delivered = delivery_span(spans, uid)
        chain = causal_chain(spans, delivered.sid)
        assert chain[-1] is delivered
        names = [span.name for span in chain]
        assert any("_braking_episode" in name for name in names)
        # Every link points at an earlier execution (the walk is causal).
        for earlier, later in zip(chain, chain[1:]):
            assert later.parent == earlier.sid
            assert earlier.seq < later.seq

    def test_most_spans_have_parents_and_marks_join_uids(self, spans):
        with_parent = sum(1 for s in spans if s.parent is not None)
        assert with_parent / len(spans) > 0.9
        marked = [s for s in spans if s.marks]
        assert marked, "no packet marks stitched onto any span"
        assert all(s.uids for s in marked)


class TestChromeExportOfRealTrial:
    def test_real_trace_validates_against_the_schema(self, spans):
        doc = to_chrome_trace(spans, label="trial1")
        assert validate_chrome_trace(doc) == []
        # One process row per vehicle plus the shared sim row.
        meta = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "sim" in meta and "node 0" in meta


class TestTraceCli:
    def test_initial_warning_chain_and_exports(self, tmp_path, capsys):
        perfetto = tmp_path / "trial1.perfetto.json"
        jsonl = tmp_path / "trial1.spans.jsonl"
        code = main(
            [
                "trace", "--trial", "1", "--duration", str(DURATION),
                "--uid", "initial-warning",
                "--perfetto", str(perfetto), "--jsonl", str(jsonl),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "initial warning: uid=" in out
        assert "causal chain of the uid=" in out
        assert "end-to-end: sent t=" in out
        doc = json.loads(perfetto.read_text())
        assert validate_chrome_trace(doc) == []
        restored = read_spans_jsonl(str(jsonl))
        assert len(restored) > 1000
        assert f"wrote {len(restored)} spans" in out

    def test_filter_query_renders_a_table(self, capsys):
        code = main(
            [
                "trace", "--trial", "1", "--duration", "2.0",
                "--layer", "mac", "--node", "0", "--limit", "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "spans match:" in out
        assert "n0/mac" in out

    def test_non_integer_uid_is_a_usage_error(self, capsys):
        # Rejected while parsing, before any simulation runs.
        with pytest.raises(SystemExit) as exited:
            main(["trace", "--uid", "foo"])
        assert exited.value.code == 2
        assert "got 'foo'" in capsys.readouterr().err

    def test_no_delivered_warning_exits_nonzero(self, capsys):
        # 2 s is before Trial 1's braking episode: nothing delivered yet.
        code = main(
            ["trace", "--trial", "1", "--duration", "2.0",
             "--uid", "initial-warning"]
        )
        assert code == 1
        assert "no delivered initial warning" in capsys.readouterr().out
