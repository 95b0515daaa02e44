"""Per-layer self time, timed from outside the simulator.

:class:`LayerClock` replaces public methods on a built scenario's
instances with timing wrappers (after construction, before ``start()``)
and wraps ``env.process`` so each generator step is timed and charged to
the layer of the module that owns the generator: ``mac`` for the access
loop, ``transport`` for TCP timers.  A span stack turns the wrappers'
inclusive times into self times; ``des.residual_s`` is the wall time of
``Environment.run`` that no wrapper covered, i.e. the kernel loop plus
callbacks it runs directly, such as signal retirement.  Calls a wrapped
method makes to code that is not wrapped (registry counters, sanitizer
monitors) stay in the caller's self time.

Wrapping changes no event, random draw or result: the traced pass checks
every trial against the same pinned digests as the untraced one.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Generator, Optional

from perfbench.measure import (
    Tally,
    TrialRun,
    metric,
    pool_metrics,
    timed_campaign,
    try_inprocess,
    warm_up,
)
from perfbench.workloads import TRACED_TRIALS, Workload

#: Layer of a generator, by the module that defines it (first match).
_GENERATOR_LAYERS = (
    ("repro.mac.", "mac"),
    ("repro.phy.", "phy"),
    ("repro.net.channel", "net.channel"),
    ("repro.net.node", "net.node"),
    ("repro.net.queues", "net.queues"),
    ("repro.routing.", "routing"),
    ("repro.transport.", "transport"),
    ("repro.obs.", "obs"),
    ("repro.sanitizer.", "sanitizer"),
    ("repro.faults.", "faults"),
)

#: Every layer self time is charged to; ``des`` gets the residual.
LAYERS = (
    "mac",
    "phy",
    "net.channel",
    "net.node",
    "net.queues",
    "routing",
    "transport",
    "obs",
    "sanitizer",
    "faults",
    "other",
)

Key = tuple[str, str]


def generator_layer(generator: Generator) -> Key:
    """``(layer, part)`` a process's steps are charged to."""
    frame = generator.gi_frame
    module = frame.f_globals.get("__name__", "") if frame is not None else ""
    for prefix, layer in _GENERATOR_LAYERS:
        if module.startswith(prefix):
            return (layer, "access" if layer == "mac" else "steps")
    return ("other", "steps")


class LayerClock:
    """Self time and call counts per ``(layer, part)`` key."""

    def __init__(self) -> None:
        self.self_ns: dict[Key, int] = defaultdict(int)
        self.calls: dict[Key, int] = defaultdict(int)
        #: Inclusive time of outermost spans (those the kernel called).
        self.top_ns = 0
        #: Child time accumulated by each open span, innermost last.
        self._stack: list[list[int]] = []

    def reset(self) -> None:
        self.self_ns.clear()
        self.calls.clear()
        self.top_ns = 0

    def snapshot(self) -> dict[str, Any]:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "top_ns": self.top_ns,
        }

    def _close(self, key: Key, start: int, frame: list[int]) -> None:
        elapsed = perf_counter_ns() - start
        stack = self._stack
        stack.pop()
        self.self_ns[key] += elapsed - frame[0]
        self.calls[key] += 1
        if stack:
            stack[-1][0] += elapsed
        else:
            self.top_ns += elapsed

    def wrap(self, key: Key, fn: Callable) -> Callable:
        stack = self._stack
        close = self._close

        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = [0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                close(key, start, frame)

        return timed

    def _steps(self, generator: Generator, key: Key) -> Generator:
        """Drive ``generator`` one timed step at a time.

        Values and exceptions pass through unchanged, so the process sees
        the same events in the same order.  Closing is not timed: it
        happens when a finished scenario is garbage-collected.
        """
        send, throw = generator.send, generator.throw
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            frame = [0]
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                event = send(value) if error is None else throw(error)
            except StopIteration as stop:
                self._close(key, start, frame)
                return stop.value
            except BaseException:
                self._close(key, start, frame)
                raise
            self._close(key, start, frame)
            try:
                value, error = (yield event), None
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # a failed event, delivered inward
                value, error = None, exc

    def _patch(self, obj: Any, names: tuple[str, ...], key: Key) -> None:
        for name in names:
            setattr(obj, name, self.wrap(key, getattr(obj, name)))

    def wrap_process(self, env: Any) -> None:
        """Time every later ``env.process`` generator step by step."""
        process = env.process
        env.process = lambda generator: process(
            self._steps(generator, generator_layer(generator))
        )

    def install(self, scenario: Any) -> None:
        """Wrap a built, not yet started scenario's layer boundaries."""
        self.wrap_process(scenario.env)
        self._patch(scenario.channel, ("transmit",), ("net.channel", "transmit"))
        for vehicle in scenario.vehicles:
            node = vehicle.node
            self._patch(node.phy, ("transmit",), ("phy", "tx"))
            self._patch(node.phy, ("begin_receive",), ("phy", "rx"))
            self._patch(
                node.mac, ("phy_rx_start", "phy_rx_end", "phy_rx_failed"), ("mac", "rx")
            )
            self._patch(node.mac, ("recv_callback",), ("net.node", "call"))
            self._patch(
                node, ("send", "enqueue_to_mac", "deliver_up"), ("net.node", "call")
            )
            self._patch(node.ifq, ("put",), ("net.queues", "put"))
            self._patch(
                node.routing,
                ("route_packet", "handle_packet", "link_failed"),
                ("routing", "call"),
            )
            for agent in node.agents.values():
                self._patch(agent, ("receive",), ("transport", "receive"))
        observability = scenario.observability
        if observability is not None:
            if observability.journeys is not None:
                self._patch(observability.journeys, ("record",), ("obs", "record"))
            if observability.spans is not None:
                self._patch(observability.spans, ("record_packet",), ("obs", "record"))
        sanitizer = scenario.sanitizer
        if sanitizer is not None and sanitizer.ledger is not None:
            self._patch(sanitizer.ledger, ("record", "note"), ("sanitizer", "record"))


def _trial_counts(run: TrialRun) -> dict[str, float]:
    """Operation counts one trial's public attributes hold."""
    result = run.result
    scenario = result.scenario
    nodes = [vehicle.node for vehicle in scenario.vehicles]
    agents = [agent for node in nodes for agent in node.agents.values()]
    report = result.sanitizer_report
    return {
        "events": scenario.env.events_processed,
        "mac.data_sent": sum(node.mac.stats.data_sent for node in nodes),
        "mac.retransmissions": sum(node.mac.stats.retransmissions for node in nodes),
        "phy.frames_received": sum(node.phy.frames_received for node in nodes),
        "phy.frames_corrupted": sum(node.phy.frames_corrupted for node in nodes),
        "net.channel.transmissions": scenario.channel.transmissions,
        "net.channel.offered": scenario.channel.transmissions
        * (len(scenario.channel.phys) - 1),
        "net.queues.enqueued": sum(node.ifq.enqueued for node in nodes),
        "net.queues.dropped": sum(node.ifq.dropped for node in nodes),
        "transport.retransmits": sum(getattr(a, "retransmits", 0) for a in agents),
        "transport.timeouts": sum(getattr(a, "timeouts", 0) for a in agents),
        "faults.injected": sum(
            1 for entry in result.fault_log if entry.action == "inject"
        ),
        "sanitizer.violations": len(report) + report.overflow if report else 0,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LayerTotals:
    """Sums over traced trials, reported per trial."""

    def __init__(self) -> None:
        self.trials = 0
        self.plain_run_s = 0.0
        self.traced_run_s = 0.0
        self.top_ns = 0
        self.self_ns: dict[Key, int] = defaultdict(int)
        self.calls: dict[Key, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def add(self, plain: TrialRun, traced: TrialRun) -> None:
        self.trials += 1
        self.plain_run_s += plain.run_s
        self.traced_run_s += traced.run_s
        self.top_ns += traced.layers["top_ns"]
        for key, ns in traced.layers["self_ns"].items():
            self.self_ns[key] += ns
        for key, calls in traced.layers["calls"].items():
            self.calls[key] += calls
        for name, value in _trial_counts(traced).items():
            self.counts[name] += value

    def metrics(self) -> dict[str, dict[str, Any]]:
        n = self.trials
        counts = {name: value / n for name, value in self.counts.items()}

        def self_s(layer: str, part: Optional[str] = None) -> float:
            ns = sum(
                value
                for (name, sub), value in self.self_ns.items()
                if name == layer and part in (None, sub)
            )
            return ns / 1e9 / n

        def calls(layer: str, part: Optional[str] = None) -> float:
            return sum(
                value
                for (name, sub), value in self.calls.items()
                if name == layer and part in (None, sub)
            ) / n

        wall_s = self.traced_run_s / n
        residual_s = wall_s - self.top_ns / 1e9 / n
        attributed_s = sum(self_s(layer) for layer in LAYERS)
        # One begin_receive per delivery: the phy's signals are the
        # channel's deliveries, counted at the boundary between them.
        deliveries = calls("phy", "rx")
        enqueued, dropped = counts["net.queues.enqueued"], counts["net.queues.dropped"]
        data_sent, retx = counts["mac.data_sent"], counts["mac.retransmissions"]
        values = {
            "des.events": (counts["events"], "count"),
            "des.residual_s": (residual_s, "s"),
            "des.ns_per_event": (_ratio(residual_s * 1e9, counts["events"]), "ns"),
            "mac.access_self_s": (self_s("mac", "access"), "s"),
            "mac.access_steps": (calls("mac", "access"), "count"),
            "mac.rx_self_s": (self_s("mac", "rx"), "s"),
            "mac.data_sent": (data_sent, "count"),
            "mac.retransmissions": (retx, "count"),
            "mac.retry_ratio": (_ratio(retx, data_sent + retx), "ratio"),
            "phy.self_s": (self_s("phy"), "s"),
            "phy.signals": (deliveries, "count"),
            "phy.frames_received": (counts["phy.frames_received"], "count"),
            "phy.frames_corrupted": (counts["phy.frames_corrupted"], "count"),
            "phy.decode_ratio": (
                _ratio(counts["phy.frames_received"], deliveries),
                "ratio",
            ),
            "net.channel.self_s": (self_s("net.channel"), "s"),
            "net.channel.transmissions": (
                counts["net.channel.transmissions"],
                "count",
            ),
            "net.channel.offered": (counts["net.channel.offered"], "count"),
            "net.channel.deliveries": (deliveries, "count"),
            "net.channel.in_range_ratio": (
                _ratio(deliveries, counts["net.channel.offered"]),
                "ratio",
            ),
            "net.channel.us_per_delivery": (
                _ratio(self_s("net.channel") * 1e6, deliveries),
                "us",
            ),
            "net.node.self_s": (self_s("net.node"), "s"),
            "net.node.calls": (calls("net.node"), "count"),
            "net.queues.self_s": (self_s("net.queues"), "s"),
            "net.queues.enqueued": (enqueued, "count"),
            "net.queues.dropped": (dropped, "count"),
            "net.queues.drop_ratio": (_ratio(dropped, enqueued + dropped), "ratio"),
            "routing.self_s": (self_s("routing"), "s"),
            "routing.calls": (calls("routing"), "count"),
            "transport.self_s": (self_s("transport"), "s"),
            "transport.retransmits": (counts["transport.retransmits"], "count"),
            "transport.timeouts": (counts["transport.timeouts"], "count"),
            "obs.self_s": (self_s("obs"), "s"),
            "obs.records": (calls("obs", "record"), "count"),
            "sanitizer.self_s": (self_s("sanitizer"), "s"),
            "sanitizer.records": (calls("sanitizer", "record"), "count"),
            "sanitizer.violations": (counts["sanitizer.violations"], "count"),
            "faults.injected": (counts["faults.injected"], "count"),
            "other.self_s": (self_s("other"), "s"),
            "trace.overhead_ratio": (
                self.traced_run_s / self.plain_run_s - 1.0,
                "ratio",
            ),
            "trace.coverage": ((attributed_s + residual_s) / wall_s, "ratio"),
        }
        return {name: metric(value, unit, n) for name, (value, unit) in values.items()}


def trace(
    workload: Workload, seeds: list[int], tally: Tally
) -> dict[str, dict[str, Any]]:
    """The per-layer pass over the workload's first trials, in-process.

    Each trial runs untraced and then traced; both must match its pin.
    """
    trials = workload.trials(seeds)[:TRACED_TRIALS]
    warm_up(workload, seeds[0])
    totals = LayerTotals()
    for trial in trials:
        plain = try_inprocess(trial, tally)
        traced = try_inprocess(trial, tally, LayerClock())
        if plain is not None and traced is not None:
            totals.add(plain, traced)
    if not totals.trials:
        raise RuntimeError(f"{workload.name}: every traced trial failed")
    metrics = totals.metrics()
    if workload.jobs:
        # Two full rounds of the untraced worker pool.
        pool = workload.trials(seeds)[: 2 * workload.jobs]
        result, wall = timed_campaign(pool, workload.jobs)
        for outcome in result.outcomes:
            tally.record_outcome(outcome)
        metrics.update(pool_metrics(result, wall, workload.jobs))
    else:
        metrics.update(
            {
                "experiments.campaign.pool_util": metric(0.0, "ratio", 0),
                "experiments.campaign.overhead_s": metric(0.0, "s", 0),
            }
        )
    return metrics
