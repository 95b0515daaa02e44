"""Live protocol monitors and end-of-trial invariant checkers.

Monitors are bound by components at construction (through the
scenario's :class:`~repro.obs.probes.Probes`) and called from the
simulation's hot paths; they only *read* simulation state — no RNG
draws, no event scheduling — so enabling them cannot perturb a run.
The ``check_*`` functions run once, at
:meth:`repro.sanitizer.runtime.Sanitizer.finalize`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.sanitizer.violations import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scenario import EblScenario
    from repro.des.core import Environment

Emit = Callable[[InvariantViolation], None]

#: Slack for float comparisons against slot/frame geometry (well under
#: the 30 µs TDMA guard time, well over accumulated double rounding).
_TIME_TOL = 1e-7


class QueueMonitor:
    """Drop-tail discipline: occupancy never exceeds the declared limit."""

    def __init__(self, emit: Emit, env: "Environment") -> None:
        self._emit = emit
        self._env = env

    def on_occupancy(self, queue: Any, occupancy: int) -> None:
        if occupancy > queue.limit:
            self._emit(
                InvariantViolation(
                    checker="queue-over-limit",
                    layer="net",
                    message=(
                        f"interface queue holds {occupancy} packets, "
                        f"limit is {queue.limit}"
                    ),
                    time=self._env.now,
                )
            )


class TcpMonitor:
    """TCP sequence/ack sanity per flow.

    * an ACK must never acknowledge a segment the sender has not sent
      (tracked against a per-agent high-water mark of emitted seqnos,
      which survives go-back-N rollbacks of ``t_seqno``);
    * a sender's ``highest_ack`` and a sink's ``next_expected`` are
      monotonically non-decreasing.
    """

    def __init__(self, emit: Emit, env: "Environment") -> None:
        self._emit = emit
        self._env = env
        self._sent_high: dict[int, int] = {}
        self._last_ack: dict[int, int] = {}
        self._sink_high: dict[int, int] = {}

    def on_segment_sent(self, agent: Any, seqno: int) -> None:
        key = id(agent)
        if seqno > self._sent_high.get(key, -1):
            self._sent_high[key] = seqno

    def on_ack(self, agent: Any, ackno: int) -> None:
        key = id(agent)
        if ackno > self._sent_high.get(key, -1):
            self._emit(
                InvariantViolation(
                    checker="tcp-ack-unsent",
                    layer="transport",
                    message=(
                        f"node {agent.address} received ack {ackno} beyond "
                        f"highest sent segment "
                        f"{self._sent_high.get(key, -1)}"
                    ),
                    time=self._env.now,
                    node=agent.address,
                )
            )
        last = self._last_ack.get(key)
        if last is not None and agent.highest_ack < last:
            self._emit(
                InvariantViolation(
                    checker="tcp-ack-regress",
                    layer="transport",
                    message=(
                        f"node {agent.address} highest_ack regressed from "
                        f"{last} to {agent.highest_ack}"
                    ),
                    time=self._env.now,
                    node=agent.address,
                )
            )
        self._last_ack[key] = agent.highest_ack

    def on_sink(self, sink: Any) -> None:
        key = id(sink)
        last = self._sink_high.get(key, 0)
        if sink.next_expected < last:
            self._emit(
                InvariantViolation(
                    checker="tcp-sink-regress",
                    layer="transport",
                    message=(
                        f"node {sink.address} sink next_expected regressed "
                        f"from {last} to {sink.next_expected}"
                    ),
                    time=self._env.now,
                    node=sink.address,
                )
            )
        self._sink_high[key] = sink.next_expected


class TdmaMonitor:
    """TDMA slot ownership: transmissions start on the owner's slot
    boundary, fit the slot, and never overlap a different slot's."""

    def __init__(self, emit: Emit, env: "Environment") -> None:
        self._emit = emit
        self._env = env
        #: Open transmissions: (end_time, slot_index, address).
        self._open: list[tuple[float, int, int]] = []

    def on_slot_tx(self, mac: Any, start: float, duration: float) -> None:
        slot = mac.slot_index
        slot_duration = mac.slot_duration
        frame = mac.frame_time
        offset = (start - slot * slot_duration) % frame
        if offset > _TIME_TOL and frame - offset > _TIME_TOL:
            self._emit(
                InvariantViolation(
                    checker="tdma-slot-misfire",
                    layer="mac",
                    message=(
                        f"node {mac.address} transmitted {offset:.9f} s into "
                        f"a frame period outside its slot {slot} boundary"
                    ),
                    time=start,
                    node=mac.address,
                )
            )
        usable = slot_duration - mac.params.guard_time
        if duration > usable + _TIME_TOL:
            self._emit(
                InvariantViolation(
                    checker="tdma-slot-overrun",
                    layer="mac",
                    message=(
                        f"node {mac.address} transmission of {duration:.6f} s "
                        f"exceeds the usable slot time {usable:.6f} s"
                    ),
                    time=start,
                    node=mac.address,
                )
            )
        # Exclusivity across *different* slot indices (nodes sharing one
        # index when num_slots < vehicles legitimately collide on air).
        self._open = [entry for entry in self._open if entry[0] > start]
        for end, other_slot, other_addr in self._open:
            if other_slot != slot and end > start + _TIME_TOL:
                self._emit(
                    InvariantViolation(
                        checker="tdma-slot-overlap",
                        layer="mac",
                        message=(
                            f"node {mac.address} (slot {slot}) transmits "
                            f"while node {other_addr} (slot {other_slot}) "
                            f"still holds the air until t={end:.6f}"
                        ),
                        time=start,
                        node=mac.address,
                    )
                )
        self._open.append((start + duration, slot, mac.address))


class DcfMonitor:
    """802.11 DCF sanity: NAV never reserves the past, backoffs stay in
    the drawn contention window."""

    def __init__(self, emit: Emit, env: "Environment") -> None:
        self._emit = emit
        self._env = env

    def on_nav(self, mac: Any, until: float) -> None:
        if until < self._env.now - _TIME_TOL:
            self._emit(
                InvariantViolation(
                    checker="dcf-nav-negative",
                    layer="mac",
                    message=(
                        f"node {mac.address} set NAV to t={until:.6f}, "
                        f"before now (negative reservation)"
                    ),
                    time=self._env.now,
                    node=mac.address,
                )
            )

    def on_backoff(self, mac: Any, slots: int) -> None:
        if slots < 0 or slots > mac._cw:
            self._emit(
                InvariantViolation(
                    checker="dcf-backoff-range",
                    layer="mac",
                    message=(
                        f"node {mac.address} drew backoff {slots} outside "
                        f"[0, cw={mac._cw}]"
                    ),
                    time=self._env.now,
                    node=mac.address,
                )
            )


# -- end-of-trial checkers -------------------------------------------------


def check_kernel(
    scenario: "EblScenario", env: "Environment", emit: Emit
) -> None:
    """Kernel invariants at trial end: heap integrity, live service
    loops, single-getter queues."""
    now = env.now
    queue = env._queue
    for index, entry in enumerate(queue):
        if entry[0] < now - _TIME_TOL:
            emit(
                InvariantViolation(
                    checker="kernel-heap-past",
                    layer="kernel",
                    message=(
                        f"pending event {entry[3]!r} is scheduled at "
                        f"t={entry[0]:.6f}, before the trial end t={now:.6f}"
                    ),
                    time=now,
                )
            )
        for child in (2 * index + 1, 2 * index + 2):
            if child < len(queue) and queue[child] < entry:
                emit(
                    InvariantViolation(
                        checker="kernel-heap-order",
                        layer="kernel",
                        message=(
                            f"event heap invariant broken at index {index}: "
                            f"child {child} sorts before its parent"
                        ),
                        time=now,
                    )
                )
    for vehicle in scenario.vehicles:
        mac = vehicle.node.mac
        if mac._started and (
            mac._process is None or not mac._process.is_alive
        ):
            emit(
                InvariantViolation(
                    checker="kernel-mac-loop-dead",
                    layer="kernel",
                    message=(
                        f"node {vehicle.address}'s MAC service loop died "
                        "before trial end (zombie interface queue)"
                    ),
                    time=now,
                    node=vehicle.address,
                )
            )
        getters = len(vehicle.node.ifq._getters)
        if getters > 1:
            emit(
                InvariantViolation(
                    checker="kernel-queue-getters",
                    layer="kernel",
                    message=(
                        f"node {vehicle.address}'s interface queue has "
                        f"{getters} waiting consumers; only the MAC service "
                        "loop should ever wait"
                    ),
                    time=now,
                    node=vehicle.address,
                )
            )


def check_routing(scenario: "EblScenario", emit: Emit) -> None:
    """Route-table invariants at trial end (AODV and DSDV tables).

    Structural checks run on every table.  The stale-route check — no
    usable entry may point at a neighbour that has been crashed longer
    than the protocol's detection horizon — runs on AODV only, whose
    route timeout and HELLO loss bound that horizon, and only when it
    actually had the means to detect the death: HELLO beaconing enabled,
    or a MAC that provides link-layer failure feedback.  (TDMA without
    HELLOs is legitimately blind to silent neighbour death.)
    """
    env = scenario.env
    now = env.now
    down_since = _down_since(scenario, now)
    for vehicle in scenario.vehicles:
        routing = vehicle.node.routing
        table = getattr(routing, "table", None)
        if table is None or not hasattr(table, "_entries"):
            continue
        params = routing.params if scenario.config.routing == "aodv" else None
        for dst, entry in table._entries.items():
            if entry.dst != dst:
                emit(
                    InvariantViolation(
                        checker="route-table-key",
                        layer="routing",
                        message=(
                            f"node {vehicle.address}: route keyed {dst} "
                            f"describes destination {entry.dst}"
                        ),
                        time=now,
                        node=vehicle.address,
                    )
                )
            if entry.hop_count < 0 or entry.seqno < 0:
                emit(
                    InvariantViolation(
                        checker="route-entry-range",
                        layer="routing",
                        message=(
                            f"node {vehicle.address}: route to {dst} has "
                            f"hop_count={entry.hop_count}, "
                            f"seqno={entry.seqno}"
                        ),
                        time=now,
                        node=vehicle.address,
                    )
                )
            if params is None or not _can_detect_death(vehicle.node, params):
                continue
            died_at = down_since.get(entry.next_hop)
            if died_at is None or not entry.is_usable(now):
                continue
            horizon = _detection_horizon(params)
            if now - died_at > horizon:
                emit(
                    InvariantViolation(
                        checker="aodv-stale-route",
                        layer="routing",
                        message=(
                            f"node {vehicle.address}: usable route to {dst} "
                            f"still points at neighbour {entry.next_hop}, "
                            f"crashed at t={died_at:.3f} "
                            f"({now - died_at:.3f} s > detection horizon "
                            f"{horizon:.3f} s)"
                        ),
                        time=now,
                        node=vehicle.address,
                    )
                )


def _can_detect_death(node: Any, params: Any) -> bool:
    if getattr(params, "hello_interval", 0) > 0:
        return True
    return bool(getattr(node.mac, "provides_link_feedback", True))


def _detection_horizon(params: Any) -> float:
    """How long AODV may legitimately keep a dead neighbour usable."""
    horizon = params.active_route_timeout
    if params.hello_interval > 0:
        horizon = max(
            horizon, params.allowed_hello_loss * params.hello_interval
        )
    return horizon + 1.0


def _down_since(scenario: "EblScenario", now: float) -> dict[int, float]:
    """Nodes still crashed at ``now``, mapped to when they went down."""
    injector = scenario.fault_injector
    if injector is None:
        return {}
    down: dict[int, float] = {}
    for entry in injector.log:
        if entry.kind != "node-crash":
            continue
        target = entry.target[0]
        if entry.action == "inject":
            down.setdefault(target, entry.time)
        else:
            down.pop(target, None)
    return down


def collect_resident_uids(scenario: "EblScenario", ledger: Any) -> set[int]:
    """Uids legitimately parked in a declared buffer at trial end."""
    resident: set[int] = set(ledger.in_service_uids())
    for vehicle in scenario.vehicles:
        node = vehicle.node
        for pkt in node.ifq._items:
            resident.add(pkt.uid)
        for signal in node.phy._signals:
            resident.add(signal.pkt.uid)
        if node.arp is not None:
            for pkt in node.arp._pending.values():
                resident.add(pkt.uid)
        discoveries = getattr(node.routing, "_discoveries", None)
        if discoveries is not None:
            for discovery in discoveries.values():
                for pkt, _time in discovery.buffer:
                    resident.add(pkt.uid)
    return resident
