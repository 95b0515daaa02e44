"""Golden trace digests over a pairwise cover of the TrialConfig surface.

``test_golden_summaries.py`` pins the three paper trials.  This matrix
pins the rest of the configuration surface: both 802.11 MACs crossed
pairwise with every routing protocol, queue, ARP, bursty loss, RTS/CTS,
fault plan and a contention-heavy load, plus one TDMA and one CSMA
point and three flood-heavy rows at 16 and 32 vehicles.  Each row is a
short trial reduced to one SHA-256 over its packet trace and metrics
(:func:`repro.perf.equivalence.trace_digest`), so an optimization that
claims to change no behaviour must leave every digest as it is.  Each
row also runs once with every instrument on, and must keep its digest
and pass the sanitizer: turning on instrumentation changes nothing.

When a change is *intended* to alter results, regenerate the fixture and
commit it with the change::

    PYTHONPATH=src python -m pytest tests/golden/test_config_matrix.py \\
        --update-golden
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from repro.core.runner import run_trial
from repro.core.trials import TrialConfig
from repro.faults.schedule import FAULT_PLAN_PRESETS
from repro.obs import ObservabilityConfig
from repro.perf.equivalence import trace_digest
from repro.sanitizer import SanitizerConfig

FIXTURE = Path(__file__).resolve().parent / "config_matrix.json"

#: Simulated seconds per row: long enough for route discovery, TCP
#: traffic, retries and the fault windows, short enough for tier-1.
MATRIX_DURATION = 5.0

#: The axes the 802.11 rows cover pairwise: every value of each axis
#: meets every value of every other axis in at least one row.
AXES = {
    "mac_type": ("802.11", "edca"),
    "routing": ("aodv", "dsdv", "static", "flooding"),
    "queue_type": ("droptail", "pri", "red"),
    "use_arp": (False, True),
    "loss": ("clean", "bursty"),
    "rts": ("off", "rts100"),
    "faults": ("none", "light", "heavy"),
    "load": ("paper", "dense"),
}

#: One trial per row, columns in ``AXES`` order, then the seed.  The rows
#: with a value off the axes lie outside the cover: the single TDMA and
#: CSMA points, and three flood-heavy rows at 16 and 32 vehicles, where
#: RREQ and data floods reach every radio in range many times over.
ROWS = (
    ("802.11", "aodv", "droptail", False, "clean", "off", "none", "dense", 1),
    ("edca", "aodv", "pri", False, "bursty", "rts100", "light", "paper", 2),
    ("edca", "aodv", "red", True, "clean", "off", "heavy", "dense", 3),
    ("edca", "dsdv", "droptail", True, "clean", "rts100", "heavy", "paper", 4),
    ("802.11", "dsdv", "pri", True, "bursty", "off", "light", "dense", 5),
    ("802.11", "dsdv", "red", False, "bursty", "rts100", "none", "paper", 6),
    ("802.11", "static", "droptail", True, "bursty", "rts100", "none", "paper", 7),
    ("edca", "static", "pri", False, "clean", "off", "heavy", "paper", 8),
    ("802.11", "static", "red", False, "clean", "rts100", "light", "dense", 9),
    ("edca", "flooding", "droptail", True, "clean", "rts100", "light", "paper", 10),
    ("edca", "flooding", "pri", True, "clean", "rts100", "none", "dense", 11),
    ("802.11", "flooding", "red", False, "bursty", "off", "heavy", "paper", 12),
    ("tdma", "aodv", "pri", False, "clean", "off", "light", "paper", 13),
    ("csma", "aodv", "droptail", False, "bursty", "off", "none", "paper", 14),
    ("tdma", "aodv", "pri", False, "clean", "off", "none", "32-vehicles", 15),
    ("802.11", "aodv", "pri", False, "clean", "off", "heavy", "16-vehicles", 16),
    ("802.11", "flooding", "pri", False, "clean", "off", "none", "16-vehicles", 17),
)


def _row_config(row: tuple) -> TrialConfig:
    mac_type, routing, queue_type, use_arp, loss, rts, faults, load, seed = row
    # The name lists every axis value that differs from the paper's trials.
    parts = [mac_type, routing, queue_type] + (["arp"] if use_arp else [])
    parts += [value for value in (loss, rts, faults, load)
              if value not in ("clean", "off", "none", "paper")]
    overrides: dict = {}
    if loss == "bursty":
        overrides.update(error_rate=0.1, error_bursts=True)
    if rts == "rts100":
        overrides.update(rts_threshold=100)
    if load == "dense":
        overrides.update(platoon_size=6, cbr_interval=0.002)
    elif load.endswith("-vehicles"):
        # Two platoons, one TDMA slot per vehicle.
        vehicles = int(load.split("-")[0])
        overrides.update(platoon_size=vehicles // 2, tdma_num_slots=None)
    return TrialConfig(
        name="-".join(parts),
        mac_type=mac_type,
        routing=routing,
        queue_type=queue_type,
        use_arp=use_arp,
        fault_plan=FAULT_PLAN_PRESETS[faults],
        duration=MATRIX_DURATION,
        seed=seed,
        **overrides,
    )


MATRIX = {config.name: config for config in map(_row_config, ROWS)}


def _golden() -> dict[str, str]:
    return json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_trace_digest_matches_golden(name, request):
    digest = trace_digest(run_trial(MATRIX[name]))

    if request.config.getoption("--update-golden"):
        golden = {k: v for k, v in _golden().items() if k in MATRIX}
        golden[name] = digest
        FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden digest regenerated: {name}")

    golden = _golden()
    assert name in golden, (
        f"no golden digest for {name}; generate it with "
        "'python -m pytest tests/golden/test_config_matrix.py --update-golden'"
    )
    assert digest == golden[name], (
        f"{name} trace digest drifted from {FIXTURE.name}; if the change is "
        "intentional, regenerate with --update-golden and commit the diff"
    )


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_full_instrumentation_keeps_digest_and_sanitizer_clean(name):
    config = MATRIX[name].with_overrides(
        observability=ObservabilityConfig(
            metrics=True, journeys=True, tracing=True
        ),
        sanitize=SanitizerConfig(),
    )
    result = run_trial(config)
    assert trace_digest(result) == _golden()[name], (
        f"{name}: turning on metrics, journeys, spans and the sanitizer "
        "changed the trace digest"
    )
    report = result.sanitizer_report
    assert report is not None and report.ok, report.render()


def test_fixture_holds_exactly_the_matrix_rows():
    assert sorted(_golden()) == sorted(MATRIX)


def test_rows_cover_every_pair_of_axis_values():
    columns = list(AXES.values())
    covered = [
        row[:len(AXES)]
        for row in ROWS
        if all(value in axis for value, axis in zip(row, columns))
    ]
    missing = [
        (i, a, j, b)
        for i, j in itertools.combinations(range(len(columns)), 2)
        for a in columns[i]
        for b in columns[j]
        if not any(row[i] == a and row[j] == b for row in covered)
    ]
    assert missing == []
