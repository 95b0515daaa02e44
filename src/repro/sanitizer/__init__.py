"""simsan: opt-in runtime invariant checking for the EBL simulator.

Components bind their monitors and the conservation ledger once, at
construction, from the scenario's probes (:mod:`repro.obs.probes`).
With no sanitizer the ledger binding is ``None`` (it sits on the
per-trace-event path, where an ``is not None`` test is cheapest) and
every monitor is the shared null monitor, whose hook methods are no-ops.
With the sanitizer disabled a trial's trace digest is bit-identical to
an uninstrumented run — the same differential guarantee the obs layer is
golden-tested against.

Checker families (see docs/ROBUSTNESS.md):

* **ledger** — packet conservation: every data uid seen by the stack
  terminates as delivered, dropped-with-reason, attributed to a
  recorded loss (collision, fault outage, ...), or resident in a
  declared buffer at trial end.  Cross-validated against obs journeys.
* **kernel** — heap integrity at trial end, no dead MAC service loops,
  no orphaned interface-queue waiters.  (Event-heap pop monotonicity is
  checked by the kernel itself on every run.)
* **protocols** — TCP seq/ack monotonicity, queue occupancy <= limit,
  AODV route entries never pointing at long-dead neighbours, TDMA
  slot-ownership exclusivity, 802.11 NAV/backoff non-negativity.
"""

from repro.sanitizer.config import SanitizerConfig
from repro.sanitizer.runtime import Sanitizer
from repro.sanitizer.violations import InvariantViolation, SanitizerReport

__all__ = [
    "SanitizerConfig",
    "Sanitizer",
    "InvariantViolation",
    "SanitizerReport",
]
