"""Per-trial observability runtime: registry + journeys + introspector.

:class:`Observability` is what a scenario owns when its trial config
enables observability.  The scenario activates it around stack
construction (so components bind live instruments), starts it when the
simulation starts (so the heartbeat process joins the event loop), and
hands it to :func:`repro.core.runner.harvest` for the trial summary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.obs import api
from repro.obs.config import ObservabilityConfig
from repro.obs.introspect import RunIntrospector
from repro.obs.journey import JourneyTracker
from repro.obs.registry import MetricRegistry
from repro.obs.tracing.spans import SpanTracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.core import Environment


class Observability:
    """Everything observed during one trial."""

    def __init__(self, config: ObservabilityConfig, env: "Environment") -> None:
        self.config = config
        self.registry: Optional[MetricRegistry] = (
            MetricRegistry() if config.metrics else None
        )
        self.journeys: Optional[JourneyTracker] = (
            JourneyTracker(config.max_journeys) if config.journeys else None
        )
        self.introspector: Optional[RunIntrospector] = None
        if config.heartbeat_interval is not None:
            self.introspector = RunIntrospector(
                env,
                registry=self.registry,
                interval=config.heartbeat_interval,
                path=config.heartbeat_path,
            )
        # The tracer hooks the kernel at construction time — before the
        # scenario schedules anything — so every event of the trial lands
        # in the trace.
        self.spans: Optional[SpanTracer] = None
        if config.tracing:
            self.spans = SpanTracer(max_spans=config.max_spans)
            self.spans.install(env)

    def activate(self) -> None:
        """Install this runtime as the process-wide binding context."""
        api.activate(self.registry, self.journeys, self.spans)

    def deactivate(self) -> None:
        """Clear the process-wide binding context."""
        api.deactivate()

    def start(self) -> None:
        """Start the heartbeat process, if configured."""
        if self.introspector is not None:
            self.introspector.start()

    def metrics_snapshot(self) -> dict[str, dict[str, Any]]:
        """Full metric snapshot ({} when metrics are disabled)."""
        return self.registry.snapshot() if self.registry is not None else {}

    def dwell_summary(self) -> dict[str, dict[str, float]]:
        """Aggregated per-layer dwell times ({} when journeys are off)."""
        return self.journeys.dwell_summary() if self.journeys is not None else {}

    def summary(self) -> dict[str, Any]:
        """Trial-summary block: metrics, dwell aggregate, heartbeat tail."""
        out: dict[str, Any] = {
            "metrics": self.registry.compact() if self.registry else {},
            "dwell": self.dwell_summary(),
        }
        if self.journeys is not None:
            out["journeys"] = {
                "tracked": len(self.journeys),
                "overflow": self.journeys.overflow,
            }
        if self.introspector is not None:
            out["heartbeats"] = len(self.introspector.records)
        if self.spans is not None:
            out["spans"] = self.spans.summary()
        return out
