"""The two-platoon intersection scenario (paper Figs. 1-2).

Platoon 1 (vehicles 0-2) approaches the intersection from the south,
moving north at the configured speed; platoon 2 (vehicles 3-5) sits
stopped at the intersection heading east.

Timeline, exactly as the paper describes:

1. At t=0 platoon 1 is moving vertically; platoon 2 is stopped at the
   intersection *and communicating* (its brakes are on).
2. Platoon 1 brakes on approach and stops at the intersection; from brake
   onset it communicates.
3. When platoon 1 arrives, platoon 2 releases its brakes, departs
   horizontally, and *stops communicating*.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Optional

from repro.core.ebl import EblApplication
from repro.core.seeding import derive_rng, error_rng, mac_rng
from repro.core.trials import TrialConfig
from repro.core.vehicle import Vehicle
from repro.des.core import Environment
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.mac.csma import CsmaMac
from repro.mac.dcf import Dcf80211Mac, DcfParams
from repro.mac.edca import EdcaMac, EdcaParams
from repro.mac.tdma import TdmaMac, TdmaParams
from repro.mobility.kinematics import braking_distance
from repro.mobility.platoon import Platoon, PlatoonSpec
from repro.net.channel import WirelessChannel
from repro.net.node import Node
from repro.net.packet import reset_uid_counter
from repro.net.queues import DropTailQueue, PriQueue, REDQueue
from repro.obs.probes import Probes
from repro.obs.runtime import Observability
from repro.phy.energy import EnergyModel
from repro.phy.error_models import GilbertElliotErrorModel, UniformErrorModel
from repro.phy.radio import RadioParams
from repro.routing.aodv import Aodv, AodvParams
from repro.routing.dsdv import Dsdv
from repro.routing.flooding import Flooding
from repro.routing.static_routing import StaticRouting
from repro.sanitizer.runtime import Sanitizer
from repro.stats.recorder import ThroughputRecorder
from repro.trace.writer import Tracer


@dataclass
class ScenarioGeometry:
    """Where everything sits and how far platoon 1 has to travel."""

    #: Stop-line offset from the intersection centre, metres.
    stop_offset: float = 15.0
    #: Distance platoon 1's lead starts from its stop line, metres.
    approach_distance: float = 250.0
    #: How far platoon 2 drives when it departs, metres.
    departure_distance: float = 500.0


class EblScenario:
    """Builds and owns the complete simulation for one trial."""

    def __init__(
        self,
        config: TrialConfig,
        geometry: Optional[ScenarioGeometry] = None,
        fault_schedule: Optional[FaultSchedule] = None,
    ) -> None:
        # Uids start from zero in every scenario, so a trial's trace
        # digest (which covers them) is the same whatever ran before it.
        reset_uid_counter()
        self.config = config
        self.geometry = geometry or ScenarioGeometry()
        # The label lands in SchedulingError messages.
        self.env = Environment()
        self.env.label = config.name
        self.tracer = Tracer() if config.enable_trace else None
        self.observability = (
            Observability(config.observability, self.env)
            if config.observability is not None
            else None
        )
        self.sanitizer = (
            Sanitizer(config.sanitize, self.env, scenario_name=config.name)
            if config.sanitize is not None
            else None
        )
        # Every component binds its instruments from the environment it is
        # built with, the channel included, so the probes go on first.
        self.env.probes = Probes(self.observability, self.sanitizer)
        self.channel = WirelessChannel(self.env)
        # Scenario-level stream; components below derive their own named
        # streams so no two instances ever share a sequence (see
        # repro.core.seeding for the convention).
        self._rng = derive_rng(config.seed, "scenario")

        self._build_platoons()
        self._build_nodes()
        self._build_applications()
        self._schedule_movements()
        self._build_faults(fault_schedule)

    # -- construction ---------------------------------------------------------

    def _build_platoons(self) -> None:
        geo = self.geometry
        size = self.config.platoon_size
        spacing = self.config.spacing
        # Platoon 1: heading north, approaching the intersection.
        self.platoon1 = Platoon(
            PlatoonSpec(
                size=size,
                spacing=spacing,
                lead_position=(0.0, -geo.stop_offset - geo.approach_distance),
                heading=(0.0, 1.0),
            )
        )
        # Platoon 2: heading east, stopped at the intersection.
        self.platoon2 = Platoon(
            PlatoonSpec(
                size=size,
                spacing=spacing,
                lead_position=(-geo.stop_offset, 0.0),
                heading=(1.0, 0.0),
            )
        )

    def _mac_factory(self):
        config = self.config
        if config.mac_type == "tdma":
            num_slots = config.tdma_num_slots or config.total_vehicles

            def factory(env, address, phy, ifq):
                return TdmaMac(
                    env,
                    address,
                    phy,
                    ifq,
                    TdmaParams(
                        num_slots=num_slots,
                        slot_packet_len=config.tdma_slot_packet_len,
                    ),
                )

        elif config.mac_type == "802.11":

            def factory(env, address, phy, ifq):
                return Dcf80211Mac(
                    env,
                    address,
                    phy,
                    ifq,
                    DcfParams(rts_threshold=config.rts_threshold),
                    rng=mac_rng(config.seed, address),
                )

        elif config.mac_type == "edca":

            def factory(env, address, phy, ifq):
                return EdcaMac(
                    env,
                    address,
                    phy,
                    ifq,
                    params=EdcaParams(rts_threshold=config.rts_threshold),
                    rng=mac_rng(config.seed, address),
                )

        else:  # csma

            def factory(env, address, phy, ifq):
                return CsmaMac(
                    env,
                    address,
                    phy,
                    ifq,
                    rng=mac_rng(config.seed, address),
                )

        return factory

    def _queue_factory(self):
        config = self.config
        if config.queue_type == "pri":
            return lambda env: PriQueue(env, limit=config.queue_limit)
        if config.queue_type == "red":
            # Nodes are built in address order, so the construction counter
            # gives each RED queue its own deterministic stream (the class
            # default would hand every instance an identical Random(0)).
            instance = count()

            def red_factory(env):
                return REDQueue(
                    env,
                    limit=config.queue_limit,
                    rng=derive_rng(config.seed, "net.redqueue", next(instance)),
                )

            return red_factory
        return lambda env: DropTailQueue(env, limit=config.queue_limit)

    def _build_routing(self, node: Node) -> None:
        routing = self.config.routing
        if routing == "aodv":
            Aodv(node, AodvParams())
        elif routing == "dsdv":
            Dsdv(node)
        elif routing == "flooding":
            Flooding(node)
        else:
            StaticRouting(node)

    def _build_nodes(self) -> None:
        config = self.config
        mac_factory = self._mac_factory()
        queue_factory = self._queue_factory()
        self.vehicles: list[Vehicle] = []
        mobilities = self.platoon1.mobilities + self.platoon2.mobilities
        for address, mobility in enumerate(mobilities):
            node = Node(
                self.env,
                address,
                mobility,
                self.channel,
                mac_factory,
                queue_factory=queue_factory,
                radio_params=RadioParams(bitrate=config.bitrate),
                tracer=self.tracer,
                use_arp=config.use_arp,
            )
            self._build_routing(node)
            if config.error_rate > 0:
                node.phy.error_model = self._make_error_model(address)
            if config.track_energy:
                node.phy.energy = EnergyModel(self.env)
            self.vehicles.append(Vehicle(self.env, node, mobility))

    def _make_error_model(self, address: int):
        config = self.config
        rng = error_rng(config.seed, address)
        if config.error_bursts:
            # Pick a bad-state dwell giving the configured long-run rate:
            # with good_loss=0, bad_loss=1: rate = p_gb / (p_gb + p_bg).
            p_bg = 0.25
            p_gb = config.error_rate * p_bg / (1.0 - config.error_rate)
            return GilbertElliotErrorModel(
                p_good_to_bad=p_gb,
                p_bad_to_good=p_bg,
                good_loss=0.0,
                bad_loss=1.0,
                rng=rng,
            )
        return UniformErrorModel(rate=config.error_rate, rng=rng)

    def _build_applications(self) -> None:
        config = self.config
        size = config.platoon_size
        self.platoon1_vehicles = self.vehicles[:size]
        self.platoon2_vehicles = self.vehicles[size:]
        self.app1 = EblApplication(
            lead=self.platoon1_vehicles[0],
            followers=self.platoon1_vehicles[1:],
            packet_size=config.packet_size,
            tcp_window=config.tcp_window,
            cbr_interval=config.cbr_interval,
            tcp_variant=config.tcp_variant,
        )
        self.app2 = EblApplication(
            lead=self.platoon2_vehicles[0],
            followers=self.platoon2_vehicles[1:],
            packet_size=config.packet_size,
            tcp_window=config.tcp_window,
            cbr_interval=config.cbr_interval,
            tcp_variant=config.tcp_variant,
        )
        self.recorder1 = ThroughputRecorder.for_sinks(
            self.env, self.app1.sinks, config.throughput_interval
        )
        self.recorder2 = ThroughputRecorder.for_sinks(
            self.env, self.app2.sinks, config.throughput_interval
        )

    def _build_faults(self, fault_schedule: Optional[FaultSchedule]) -> None:
        """Attach the fault injector (explicit schedule wins over the plan)."""
        config = self.config
        if fault_schedule is None and config.fault_plan is not None:
            fault_schedule = FaultSchedule.from_plan(
                config.fault_plan,
                config.seed,
                config.duration,
                [vehicle.address for vehicle in self.vehicles],
            )
        self.fault_schedule = fault_schedule
        self.fault_injector = (
            FaultInjector(self, fault_schedule)
            if fault_schedule is not None
            else None
        )

    # -- timeline ------------------------------------------------------------------

    @property
    def arrival_time(self) -> float:
        """When platoon 1's lead reaches its stop line."""
        return self.geometry.approach_distance / self.config.speed_mps

    @property
    def brake_onset_time(self) -> float:
        """When platoon 1's lead applies the brakes on approach.

        The lead begins braking one braking-distance before the stop line
        (computed from the configured deceleration); the waypoint mobility
        itself moves at constant speed, as ns-2's ``setdest`` does.
        """
        distance = braking_distance(
            self.config.speed_mps, self.config.deceleration
        )
        distance = min(distance, self.geometry.approach_distance)
        return (self.geometry.approach_distance - distance) / self.config.speed_mps

    @property
    def departure_time(self) -> float:
        """When platoon 2 releases its brakes and departs."""
        return self.arrival_time

    def _schedule_movements(self) -> None:
        config = self.config
        geo = self.geometry
        # Platoon 1 drives to the stop line starting at t=0.
        self.platoon1.advance(0.0, geo.approach_distance, config.speed_mps)
        # Platoon 1 brakes on approach and stays stopped (open episode).
        self.platoon1_vehicles[0].schedule_braking(self.brake_onset_time, None)
        # Platoon 2 is braking/stopped from the start, releases at departure.
        self.platoon2_vehicles[0].schedule_braking(0.0, self.departure_time)
        self.platoon2.advance(
            self.departure_time, geo.departure_distance, config.speed_mps
        )

    # -- execution --------------------------------------------------------------------

    def start(self) -> None:
        """Start every node, both throughput recorders, and any faults."""
        for vehicle in self.vehicles:
            vehicle.node.start()
        self.recorder1.start()
        self.recorder2.start()
        if self.fault_injector is not None:
            self.fault_injector.start()
        if self.observability is not None:
            self.observability.start()

    def run(self) -> None:
        """Start and run to the configured duration."""
        self.start()
        self.env.run(until=self.config.duration)
