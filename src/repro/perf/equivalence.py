"""Canonical trial fingerprints for equivalence and golden testing.

Two views of one trial, both JSON-serialisable and bit-exact:

* :func:`metrics_summary` — the paper-facing numbers (per-flow delays,
  throughput samples, steady-state levels).  Golden regression tests
  snapshot this for the three paper trials.
* :func:`trace_digest` — a SHA-256 over every packet-trace record, uids
  included, plus the metric payload.  One short string that can be
  pinned in a fixture (the paper trials and the golden config matrix)
  and compared across process boundaries (the fresh-interpreter test).

Floats are serialised with :func:`repr`, which round-trips exactly: a
single ulp of drift anywhere in the event stream changes the digest.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.core.runner import TrialResult


def metrics_summary(result: TrialResult) -> dict[str, Any]:
    """Bit-exact, JSON-stable summary of one trial's observable metrics."""
    platoons = {}
    for pid in (1, 2):
        platoon = result.platoon(pid)
        flows = []
        for flow in platoon.flows:
            flows.append(
                {
                    "src": flow.src,
                    "dst": flow.dst,
                    "follower_index": flow.follower_index,
                    "delivered_segments": flow.delivered_segments,
                    "duplicates": flow.duplicates,
                    "delays": [
                        [repr(s.sent_at), repr(s.received_at)]
                        for s in flow.delays
                    ],
                }
            )
        platoons[str(pid)] = {
            "flows": flows,
            "throughput": [
                [repr(s.time), repr(s.mbps)] for s in platoon.throughput.samples
            ],
            "communicating_from": repr(platoon.communicating_from),
            "communicating_until": (
                None
                if platoon.communicating_until is None
                else repr(platoon.communicating_until)
            ),
        }
    return {
        "trial": result.config.name,
        "duration": repr(result.config.duration),
        "platoons": platoons,
    }


def trace_digest(result: TrialResult) -> str:
    """SHA-256 fingerprint of the packet event trace plus all metrics.

    Requires the trial to have run with ``enable_trace=True``.
    """
    if result.tracer is None:
        raise ValueError("trace_digest needs a trial run with enable_trace=True")
    records = [
        [rec.event, repr(rec.time), rec.node, rec.layer, rec.ptype, rec.size,
         rec.uid]
        for rec in result.tracer.records
    ]
    blob = json.dumps(
        [records, metrics_summary(result)], sort_keys=True, default=str
    ).encode()
    return hashlib.sha256(blob).hexdigest()
