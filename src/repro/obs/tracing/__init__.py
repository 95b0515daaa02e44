"""Causal span tracing for the DES kernel.

Public surface:

* :class:`~repro.obs.tracing.spans.SpanTracer` /
  :class:`~repro.obs.tracing.spans.Span` — record + resolve;
* :mod:`~repro.obs.tracing.export` — Chrome/Perfetto trace-event JSON
  and span JSONL;
* :mod:`~repro.obs.tracing.query` — uid/layer/node/time filters and
  causal-chain walks.

See ``docs/OBSERVABILITY.md`` ("Causal tracing") for the span model
and the Perfetto workflow.
"""

from repro.obs.tracing.spans import DEFAULT_MAX_SPANS, Mark, Span, SpanTracer
from repro.obs.tracing.export import (
    read_spans_jsonl,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.tracing.query import (
    causal_chain,
    delivery_span,
    filter_spans,
    initial_warning_uid,
    render_chain,
    render_journey_spans,
    render_spans_table,
    send_time,
)

__all__ = [
    "DEFAULT_MAX_SPANS",
    "Mark",
    "Span",
    "SpanTracer",
    "causal_chain",
    "delivery_span",
    "filter_spans",
    "initial_warning_uid",
    "read_spans_jsonl",
    "render_chain",
    "render_journey_spans",
    "render_spans_table",
    "send_time",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_spans_jsonl",
]
