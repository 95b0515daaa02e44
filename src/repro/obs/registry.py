"""The metric registry: counters, gauges, and fixed-bucket histograms.

Metric names are lowercase dotted identifiers (``mac.dcf.retransmissions``)
— simlint rule SIM008 enforces the convention statically and
:data:`METRIC_NAME_RE` enforces it at registration time.

Instruments are deliberately minimal: a counter is one integer, a gauge
one float, a histogram a fixed tuple of bucket edges plus per-bucket
counts.  Nothing here touches the event loop, draws randomness, or reads
the wall clock, which is what makes the differential-digest guarantee
(observability on == observability off, bit for bit) possible.

When a scenario has no registry its probes (:mod:`repro.obs.probes`)
hand out the shared null instruments below, whose update methods are
no-ops — the disabled fast path costs one empty method call per
instrumented event.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from math import isfinite
from typing import Any, Callable, Iterator, Optional, Union

#: The naming convention: lowercase dotted identifiers.
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")

#: Bucket edges for dwell/latency histograms, seconds (roughly log-spaced
#: from one PHY preamble to the full trial timescale).
LATENCY_EDGES: tuple[float, ...] = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Bucket edges for contention-window slot draws (802.11 CWmin..CWmax).
SLOT_EDGES: tuple[float, ...] = (
    0.0, 1.0, 3.0, 7.0, 15.0, 31.0, 63.0, 127.0, 255.0, 511.0, 1023.0,
)

#: Bucket edges for interface-queue occupancy, packets.
OCCUPANCY_EDGES: tuple[float, ...] = (
    0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
)


def validate_metric_name(name: str) -> str:
    """Return ``name`` if it follows the convention, else raise ValueError."""
    if not METRIC_NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r}: metric names must be lowercase "
            "dotted identifiers (e.g. 'mac.dcf.retransmissions')"
        )
    return name


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1)."""
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time float metric (set, not accumulated)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value

    def snapshot(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """A fixed-bucket histogram.

    ``edges`` are the inclusive upper bounds of the first ``len(edges)``
    buckets (Prometheus ``le`` semantics: a value exactly on an edge
    lands in that edge's bucket); one overflow bucket counts values above
    the last edge.  Edges are fixed at construction — snapshots from
    different runs of the same build are therefore mergeable.

    ``observe`` rejects NaN and ±inf with :class:`ValueError`, mirroring
    the kernel's strict-mode delay validation: a non-finite observation
    is always an upstream bug, and folding it into a bucket would hide it.
    """

    __slots__ = ("name", "edges", "counts", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, edges: tuple[float, ...]) -> None:
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if any(not isfinite(edge) for edge in edges):
            raise ValueError(f"histogram edges must be finite, got {edges!r}")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(
                f"histogram edges must be strictly increasing, got {edges!r}"
            )
        self.name = name
        self.edges = tuple(float(edge) for edge in edges)
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation (finite values only)."""
        if not isfinite(value):
            raise ValueError(
                f"histogram {self.name!r} rejects non-finite value {value!r} "
                "(NaN/inf observations are upstream bugs, like the non-finite "
                "delays the kernel rejects)"
            )
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (NaN when empty)."""
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile by linear interpolation in-bucket.

        Bucket bounds clamp to the observed min/max so the estimate never
        leaves the data's range.  NaN when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return float("nan")
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if cumulative + bucket_count >= target and bucket_count:
                lower = self.edges[index - 1] if index > 0 else self.min
                upper = (
                    self.edges[index] if index < len(self.edges) else self.max
                )
                lower = max(lower, self.min)
                upper = min(upper, self.max)
                if upper <= lower:
                    return lower
                fraction = (target - cumulative) / bucket_count
                return lower + fraction * (upper - lower)
            cumulative += bucket_count
        return self.max

    def snapshot(self) -> dict[str, Any]:
        buckets = [
            {"le": edge, "count": count}
            for edge, count in zip(self.edges, self.counts)
        ]
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean if self.count else None,
            "buckets": buckets,
            "overflow": self.counts[-1],
        }


Metric = Union[Counter, Gauge, Histogram]


class _NullCounter:
    """Disabled-path counter: updates vanish."""

    __slots__ = ()
    kind = "counter"
    name = "null"
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    """Disabled-path gauge: updates vanish."""

    __slots__ = ()
    kind = "gauge"
    name = "null"
    value = 0.0

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    """Disabled-path histogram: updates vanish."""

    __slots__ = ()
    kind = "histogram"
    name = "null"
    count = 0

    def observe(self, value: float) -> None:
        pass


#: Shared no-op instruments handed out while no registry is active.
NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class MetricRegistry:
    """Holds every named instrument for one run.

    ``counter``/``gauge``/``histogram`` are get-or-create: instrumented
    components across the stack share one instrument per name, so e.g.
    every DCF MAC in the scenario increments the same
    ``mac.dcf.retransmissions`` counter.  ``sampler`` registers a callable
    evaluated lazily at snapshot time — the bridge from existing per-layer
    stats objects (``MacStats``, queue counters, ...) to named metrics
    without double-counting.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._samplers: dict[str, Callable[[], float]] = {}

    def __len__(self) -> int:
        return len(self._metrics) + len(self._samplers)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics or name in self._samplers

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted([*self._metrics, *self._samplers])

    def get(self, name: str) -> Optional[Metric]:
        """The instrument registered under ``name``, or None."""
        return self._metrics.get(name)

    def _register(self, name: str, factory: Callable[[], Metric]) -> Metric:
        validate_metric_name(name)
        if name in self._samplers:
            raise ValueError(f"metric {name!r} is already a sampler")
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        metric = self._register(name, lambda: Counter(name))
        if not isinstance(metric, Counter):
            raise ValueError(f"metric {name!r} is a {metric.kind}, not a counter")
        return metric

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        metric = self._register(name, lambda: Gauge(name))
        if not isinstance(metric, Gauge):
            raise ValueError(f"metric {name!r} is a {metric.kind}, not a gauge")
        return metric

    def histogram(
        self, name: str, edges: tuple[float, ...] = LATENCY_EDGES
    ) -> Histogram:
        """Get or create the histogram called ``name``.

        A re-registration with different edges is an error: the fixed
        edges are the contract that keeps snapshots comparable.
        """
        metric = self._register(name, lambda: Histogram(name, edges))
        if not isinstance(metric, Histogram):
            raise ValueError(
                f"metric {name!r} is a {metric.kind}, not a histogram"
            )
        if metric.edges != tuple(float(e) for e in edges):
            raise ValueError(
                f"histogram {name!r} already registered with edges "
                f"{metric.edges!r}"
            )
        return metric

    def sampler(self, name: str, fn: Callable[[], float]) -> None:
        """Register a gauge sampled by calling ``fn`` at snapshot time."""
        validate_metric_name(name)
        if name in self._metrics:
            raise ValueError(f"metric {name!r} is already an instrument")
        self._samplers[name] = fn

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Full state of every metric, keyed by name, sorted."""
        out: dict[str, dict[str, Any]] = {}
        for name in self.names():
            metric = self._metrics.get(name)
            if metric is not None:
                out[name] = metric.snapshot()
            else:
                out[name] = {
                    "type": "gauge",
                    "value": float(self._samplers[name]()),
                    "sampled": True,
                }
        return out

    def compact(self) -> dict[str, float]:
        """Scalar view: counters/gauges by value, histograms by count."""
        out: dict[str, float] = {}
        for name in self.names():
            metric = self._metrics.get(name)
            if metric is None:
                out[name] = float(self._samplers[name]())
            elif isinstance(metric, Histogram):
                out[name] = float(metric.count)
            else:
                out[name] = float(metric.value)
        return out

    def iter_metrics(self) -> Iterator[Metric]:
        """The concrete (non-sampled) instruments, in name order."""
        for name in sorted(self._metrics):
            yield self._metrics[name]
