"""Sanitizer configuration carried by :class:`TrialConfig`."""

from __future__ import annotations

from dataclasses import dataclass

#: Cap on collected violations per trial (a systemic bug would otherwise
#: flood the report with one record per packet).
DEFAULT_MAX_VIOLATIONS = 200

#: Packets whose last sighting falls within this many simulated seconds
#: of the trial end are "in flight at cutoff", not leaked.  Generous on
#: purpose: a frame can legitimately sit out a full TDMA frame plus
#: propagation before its next trace event.
DEFAULT_CUTOFF_GRACE = 1.0


@dataclass(frozen=True)
class SanitizerConfig:
    """Which invariant checkers to run during one trial.

    Carried on :class:`repro.core.trials.TrialConfig` (``None`` there
    means fully disabled — the no-op fast path).  Frozen and
    dependency-free so campaign workers can pickle it.
    """

    #: Packet conservation ledger + journey cross-validation.
    ledger: bool = True
    #: Kernel checks: end-of-trial heap, MAC service-loop and queue-waiter
    #: audits.
    kernel: bool = True
    #: Protocol monitors: TCP, queues, AODV, TDMA, 802.11 DCF.
    protocols: bool = True
    #: Stop collecting violations past this count (the report notes the
    #: overflow).
    max_violations: int = DEFAULT_MAX_VIOLATIONS
    #: In-flight grace window before the trial end (seconds, sim time).
    cutoff_grace: float = DEFAULT_CUTOFF_GRACE

    def __post_init__(self) -> None:
        if self.max_violations <= 0:
            raise ValueError("max_violations must be positive")
        if self.cutoff_grace < 0:
            raise ValueError("cutoff_grace must be non-negative")
        if not (self.ledger or self.kernel or self.protocols):
            raise ValueError(
                "sanitizer config enables nothing; use None on the trial "
                "config instead"
            )
