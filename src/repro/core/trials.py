"""Trial configurations (the paper's §III.A fixed and variable parameters).

Fixed across all trials: drop-tail priority interface queue, AODV
routing, 50 mph (22.4 m/s) vehicle speed, 25 m inter-vehicle spacing,
two platoons of three vehicles.  Variable: packet size and MAC type.

=======  ============  =========
Trial    Packet size   MAC type
=======  ============  =========
1        1,000 bytes   TDMA
2        500 bytes     TDMA
3        1,000 bytes   802.11
=======  ============  =========
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf
from typing import Optional

from repro.faults.schedule import FaultPlan
from repro.mobility.kinematics import mph_to_mps
from repro.obs.config import ObservabilityConfig
from repro.sanitizer.config import SanitizerConfig

#: Valid MAC selections.
MAC_TYPES = ("tdma", "802.11", "csma", "edca")
#: Valid interface-queue selections.
QUEUE_TYPES = ("droptail", "pri", "red")
#: Valid routing selections.
ROUTING_TYPES = ("aodv", "dsdv", "static", "flooding")


@dataclass
class TrialConfig:
    """Everything needed to build and run one EBL trial."""

    name: str = "trial"
    #: TCP segment payload, bytes (the paper's first variable parameter).
    packet_size: int = 1000
    #: MAC type (the paper's second variable parameter).
    mac_type: str = "tdma"
    #: Interface queue; the paper fixes ``Queue/DropTail/PriQueue``.
    queue_type: str = "pri"
    #: Routing protocol; the paper fixes AODV.
    routing: str = "aodv"
    #: Vehicle speed (the paper's 50 mph).
    speed_mps: float = mph_to_mps(50.0)
    #: Inter-vehicle spacing within a platoon, metres.
    spacing: float = 25.0
    #: Vehicles per platoon.
    platoon_size: int = 3
    #: Total simulated time, seconds.
    duration: float = 60.0
    #: Throughput sampling period (the Tcl recorder's ``$time``).
    throughput_interval: float = 0.5
    #: RNG seed (backoff draws etc.).
    seed: int = 1
    #: TCP sender window, segments (ns-2 ``window_``).
    tcp_window: int = 20
    #: TCP congestion-control variant: "reno", "tahoe", or "newreno".
    tcp_variant: str = "reno"
    #: Interface-queue limit, packets.
    queue_limit: int = 50
    #: TDMA slots per frame.  The paper never publishes its TDMA frame
    #: configuration; 16 slots of 1,500 bytes (slot 6.3 ms, frame 101 ms)
    #: reproduces its reconstructed initial-packet delay of ≈0.24 s and the
    #: ">20% of the separating distance" safety finding.  ``None`` assigns
    #: one slot per node; the X3 ablation bench sweeps this parameter.
    tdma_num_slots: Optional[int] = 16
    #: Bytes a TDMA slot is sized for (ns-2 default: one MTU).
    tdma_slot_packet_len: int = 1500
    #: 802.11 RTS/CTS threshold, bytes (3000 = effectively off).
    rts_threshold: int = 3000
    #: Radio bit rate, bit/s (ns-2 WaveLAN profile).
    bitrate: float = 2e6
    #: CBR interval for the EBL stream; None = saturated FTP-style flow.
    cbr_interval: Optional[float] = None
    #: Assumed deceleration when computing brake onset, m/s².
    deceleration: float = 4.0
    #: Collect a full packet trace (disable for the fastest runs).
    enable_trace: bool = True
    #: Random per-frame loss rate injected at every receiver (0 = clean
    #: channel, the paper's setting).
    error_rate: float = 0.0
    #: When True, losses arrive in Gilbert-Elliot bursts with the same
    #: long-run rate instead of independently.
    error_bursts: bool = False
    #: Attach an energy model to every radio (WaveLAN power profile).
    track_energy: bool = True
    #: Run ARP below the routing layer (ns-2 did; off by default here —
    #: the first packet per neighbour then pays a request/reply RTT,
    #: visibly inflating the initial-warning delay).
    use_arp: bool = False
    #: Stochastic fault plan; None keeps the paper's failure-free network.
    #: The concrete :class:`~repro.faults.schedule.FaultSchedule` derives
    #: from this plan plus ``seed`` and ``duration``.
    fault_plan: Optional[FaultPlan] = None
    #: Cross-layer observability (metrics, packet journeys, heartbeats);
    #: None disables it entirely — the no-op fast path.  Enabling it is
    #: guaranteed not to perturb results (see docs/OBSERVABILITY.md).
    observability: Optional[ObservabilityConfig] = None
    #: Runtime invariant checking (simsan); None disables it entirely —
    #: the same no-op fast path as observability.  Enabling it is
    #: guaranteed not to perturb results (see docs/ROBUSTNESS.md).
    sanitize: Optional[SanitizerConfig] = None

    def __post_init__(self) -> None:
        if self.packet_size <= 0:
            raise ValueError("packet_size must be positive")
        if self.mac_type not in MAC_TYPES:
            raise ValueError(
                f"unknown mac_type {self.mac_type!r}; expected one of {MAC_TYPES}"
            )
        if self.queue_type not in QUEUE_TYPES:
            raise ValueError(
                f"unknown queue_type {self.queue_type!r}; "
                f"expected one of {QUEUE_TYPES}"
            )
        if self.routing not in ROUTING_TYPES:
            raise ValueError(
                f"unknown routing {self.routing!r}; expected one of {ROUTING_TYPES}"
            )
        if self.tcp_variant not in ("reno", "tahoe", "newreno"):
            raise ValueError(
                f"unknown tcp_variant {self.tcp_variant!r}; "
                "expected reno, tahoe, or newreno"
            )
        if self.platoon_size < 2:
            raise ValueError("platoon_size must be at least 2 (lead + follower)")
        # Written as "not in (0, inf)" so NaN and +inf fail here, not
        # deep inside the kernel once the scenario is built.
        if not 0 < self.speed_mps < inf:
            raise ValueError("speed_mps must be positive")
        if not 0 < self.duration < inf:
            raise ValueError("duration must be positive")
        if not 0 < self.throughput_interval < inf:
            raise ValueError("throughput_interval must be positive")
        if self.queue_limit <= 0:
            raise ValueError("queue_limit must be positive")
        if self.tcp_window <= 0:
            raise ValueError("tcp_window must be positive")
        if not 0 <= self.error_rate < 1:
            raise ValueError("error_rate must be in [0, 1)")

    def with_overrides(self, **kwargs) -> "TrialConfig":
        """A copy of this config with fields replaced."""
        return replace(self, **kwargs)

    @property
    def total_vehicles(self) -> int:
        """Vehicles across both platoons."""
        return 2 * self.platoon_size


#: Trial 1 — the baseline: 1,000-byte packets over TDMA.
TRIAL_1 = TrialConfig(name="trial1", packet_size=1000, mac_type="tdma")

#: Trial 2 — packet-size comparison: 500-byte packets over TDMA.
TRIAL_2 = TrialConfig(name="trial2", packet_size=500, mac_type="tdma")

#: Trial 3 — MAC comparison: 1,000-byte packets over 802.11.
TRIAL_3 = TrialConfig(name="trial3", packet_size=1000, mac_type="802.11")
