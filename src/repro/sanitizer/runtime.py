"""Per-trial sanitizer runtime: ledger + monitors + finalize.

:class:`Sanitizer` is what a scenario owns when its trial config enables
sanitizing.  The scenario builds its probes from it before building the
stack (so components bind live monitors, see :mod:`repro.obs.probes`),
and :func:`repro.core.runner.harvest` calls :meth:`finalize` to run the
end-of-trial checkers and collect the
:class:`~repro.sanitizer.violations.SanitizerReport`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sanitizer.checkers import (
    DcfMonitor,
    QueueMonitor,
    TcpMonitor,
    TdmaMonitor,
    check_kernel,
    check_routing,
    collect_resident_uids,
)
from repro.sanitizer.config import SanitizerConfig
from repro.sanitizer.ledger import PacketLedger
from repro.sanitizer.violations import InvariantViolation, SanitizerReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scenario import EblScenario
    from repro.des.core import Environment


class Sanitizer:
    """Everything checked during one trial."""

    def __init__(
        self,
        config: SanitizerConfig,
        env: "Environment",
        scenario_name: str = "",
    ) -> None:
        self.config = config
        self.env = env
        self.scenario_name = scenario_name
        self.report = SanitizerReport(scenario=scenario_name)
        self.ledger: Optional[PacketLedger] = (
            PacketLedger() if config.ledger else None
        )
        self.queue_mon: Optional[QueueMonitor] = None
        self.tcp_mon: Optional[TcpMonitor] = None
        self.tdma_mon: Optional[TdmaMonitor] = None
        self.dcf_mon: Optional[DcfMonitor] = None
        if config.protocols:
            self.queue_mon = QueueMonitor(self.emit, env)
            self.tcp_mon = TcpMonitor(self.emit, env)
            self.tdma_mon = TdmaMonitor(self.emit, env)
            self.dcf_mon = DcfMonitor(self.emit, env)
        self._finalized = False

    # -- violation sink ----------------------------------------------------

    def emit(self, violation: InvariantViolation) -> None:
        """Collect one violation, stamping the scenario name and capping
        the report at ``max_violations``."""
        violation.scenario = self.scenario_name
        if len(self.report.violations) >= self.config.max_violations:
            self.report.overflow += 1
            return
        self.report.violations.append(violation)

    # -- finalize ----------------------------------------------------------

    def finalize(self, scenario: "EblScenario") -> SanitizerReport:
        """Run the end-of-trial checkers once; returns the report."""
        if self._finalized:
            return self.report
        self._finalized = True
        if self.config.kernel:
            check_kernel(scenario, self.env, self.emit)
        if self.config.protocols:
            check_routing(scenario, self.emit)
        if self.ledger is not None:
            observability = scenario.observability
            journeys = (
                observability.journeys if observability is not None else None
            )
            counters = self.ledger.audit(
                end_time=self.env.now,
                grace=self.config.cutoff_grace,
                resident_uids=collect_resident_uids(scenario, self.ledger),
                emit=self.emit,
                flooding=scenario.config.routing == "flooding",
                journeys=journeys,
            )
            counters["notes"] = self.ledger.notes_recorded
            self.report.counters.update(counters)
        return self.report
