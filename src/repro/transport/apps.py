"""Traffic applications driving transport agents."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.transport.tcp import TcpAgent
from repro.transport.udp import UdpAgent

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.core import Environment


class FtpApp:
    """Infinite-backlog file transfer over TCP (ns-2 ``Application/FTP``)."""

    def __init__(self, agent: TcpAgent) -> None:
        self.agent = agent
        self.env = agent.env
        self.started = False

    def start(self, at: float = 0.0) -> None:
        """Begin the transfer at simulated time ``at``."""
        self.env.process(self._run(at))

    def _run(self, at: float):
        if at > self.env.now:
            yield self.env.timeout(at - self.env.now)
        self.started = True
        self.agent.resume()
        self.agent.send_forever()


class CbrApp:
    """Constant-bit-rate generator over UDP or TCP.

    Over UDP each tick emits one datagram; over TCP each tick queues one
    packet's worth of bytes on the agent (matching ns-2's
    ``Application/Traffic/CBR`` attached to a TCP agent — the paper's
    "packets are sent at a constant bit rate" behaviour).
    """

    def __init__(
        self,
        agent: Union[UdpAgent, TcpAgent],
        packet_size: int = 1000,
        interval: Optional[float] = None,
        rate_bps: Optional[float] = None,
    ) -> None:
        if (interval is None) == (rate_bps is None):
            raise ValueError("specify exactly one of interval or rate_bps")
        if interval is None:
            interval = packet_size * 8.0 / rate_bps
        if interval <= 0:
            raise ValueError("interval must be positive")
        if packet_size <= 0:
            raise ValueError("packet_size must be positive")
        self.agent = agent
        self.env = agent.env
        self.packet_size = packet_size
        self.interval = interval
        self.packets_generated = 0
        self._obs_packets = self.env.probes.counter("app.cbr.packets")
        self._running = False
        self._stop_at: Optional[float] = None

    def start(self, at: float = 0.0, stop: Optional[float] = None) -> None:
        """Generate packets from ``at`` until ``stop`` (None = forever)."""
        self._stop_at = stop
        self.env.process(self._run(at))

    def stop(self) -> None:
        """Stop the generator at the current time."""
        self._running = False

    def _run(self, at: float):
        if at > self.env.now:
            yield self.env.timeout(at - self.env.now)
        self._running = True
        while self._running:
            if self._stop_at is not None and self.env.now >= self._stop_at:
                break
            self._emit()
            yield self.env.timeout(self.interval)

    def _emit(self) -> None:
        self.packets_generated += 1
        self._obs_packets.inc()
        if isinstance(self.agent, TcpAgent):
            self.agent.send_bytes(self.packet_size)
        else:
            self.agent.send(self.packet_size)


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded exponential backoff for application-level retransmission.

    Attempt ``n`` (0-based) fires ``initial_interval * multiplier**n``
    after the previous one, capped at ``max_interval``; after
    ``max_attempts`` sends the sender gives up (graceful degradation, not
    an infinite retry storm on a dead network).
    """

    initial_interval: float = 0.1
    multiplier: float = 2.0
    max_interval: float = 2.0
    max_attempts: int = 5

    def __post_init__(self) -> None:
        if self.initial_interval <= 0:
            raise ValueError("initial_interval must be positive")
        if self.multiplier < 1:
            raise ValueError("multiplier must be >= 1")
        if self.max_interval < self.initial_interval:
            raise ValueError("max_interval must be >= initial_interval")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def interval(self, attempt: int) -> float:
        """Delay after 0-based send ``attempt`` before the next one."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        return min(
            self.initial_interval * self.multiplier**attempt,
            self.max_interval,
        )


class RetryingSender:
    """Repeats an unreliable send until acknowledged, per a backoff policy.

    ``send_fn`` is invoked once per attempt; :meth:`acknowledge` stops the
    retries (delivery confirmed), :meth:`cancel` abandons them (the
    message is moot — e.g. the brakes released).  One instance serves one
    message; make a new one per message.
    """

    def __init__(
        self,
        env: "Environment",
        send_fn: Callable[[int], None],
        policy: Optional[BackoffPolicy] = None,
    ) -> None:
        self.env = env
        self.send_fn = send_fn
        self.policy = policy or BackoffPolicy()
        self.attempts = 0
        self._obs_attempts = env.probes.counter("app.retry.attempts")
        self.acknowledged = False
        self.cancelled = False
        self.exhausted = False
        self._started = False

    @property
    def done(self) -> bool:
        """True once the retry loop has stopped, for whatever reason."""
        return self.acknowledged or self.cancelled or self.exhausted

    def start(self) -> None:
        """Send the first attempt now and begin the retry loop."""
        if self._started:
            raise RuntimeError("RetryingSender already started")
        self._started = True
        self.env.process(self._run())

    def acknowledge(self) -> None:
        """Delivery confirmed: stop retrying."""
        if not self.done:
            self.acknowledged = True

    def cancel(self) -> None:
        """Message no longer relevant: stop retrying."""
        if not self.done:
            self.cancelled = True

    def _run(self):
        while not self.done:
            self.send_fn(self.attempts)
            self.attempts += 1
            self._obs_attempts.inc()
            # Wait out the backoff even after the last attempt, so a
            # late acknowledgement still lands before we declare defeat.
            yield self.env.timeout(self.policy.interval(self.attempts - 1))
            if self.attempts >= self.policy.max_attempts:
                break
        if not self.acknowledged and not self.cancelled:
            self.exhausted = True


class OnOffApp:
    """Exponential/deterministic on-off traffic over UDP (extension)."""

    def __init__(
        self,
        agent: UdpAgent,
        packet_size: int = 512,
        interval: float = 0.01,
        on_time: float = 1.0,
        off_time: float = 1.0,
    ) -> None:
        for name, value in (
            ("packet_size", packet_size),
            ("interval", interval),
            ("on_time", on_time),
            ("off_time", off_time),
        ):
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        self.agent = agent
        self.env = agent.env
        self.packet_size = packet_size
        self.interval = interval
        self.on_time = on_time
        self.off_time = off_time
        self.packets_generated = 0
        self._running = False

    def start(self, at: float = 0.0) -> None:
        """Begin alternating on/off bursts at time ``at``."""
        self.env.process(self._run(at))

    def stop(self) -> None:
        """Halt the generator permanently."""
        self._running = False

    def _run(self, at: float):
        if at > self.env.now:
            yield self.env.timeout(at - self.env.now)
        self._running = True
        while self._running:
            burst_end = self.env.now + self.on_time
            while self._running and self.env.now < burst_end:
                self.agent.send(self.packet_size)
                self.packets_generated += 1
                yield self.env.timeout(self.interval)
            yield self.env.timeout(self.off_time)
