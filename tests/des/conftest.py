"""Shared helpers for the kernel tests."""

from __future__ import annotations

import pytest

from repro.des import Environment
from repro.obs.tracing import SpanTracer

#: Runs a test once per :meth:`Environment.run` loop: plain and traced.
both_loops = pytest.mark.parametrize(
    "traced", [False, True], ids=["untraced", "traced"]
)


def new_env(traced: bool) -> Environment:
    """A fresh environment; ``traced`` installs a span tracer first, so
    :meth:`Environment.run` takes its span-traced loop."""
    env = Environment()
    if traced:
        SpanTracer().install(env)
    return env
