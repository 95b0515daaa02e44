"""Golden-fixture tests for the whole-program rules SIM009-SIM012."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.runner import lint_project

XTREE = Path(__file__).parent / "fixtures" / "xtree"


@pytest.fixture()
def xtree(tmp_path):
    """The cross-module fixture tree, copied out from under ``tests/``.

    In place, the tests-exemption policy would silence SIM009/SIM011;
    the copy restores the simulation-code context the fixtures model.
    """
    target = tmp_path / "xtree"
    shutil.copytree(XTREE, target)
    return target


def findings_for(root: Path, filename: str) -> list[tuple[str, int]]:
    findings = lint_paths([str(root)])
    return sorted(
        (d.code, d.line)
        for d in findings
        if d.path.endswith(filename)
    )


def test_sim009_raw_rng_injection_golden(xtree):
    assert findings_for(xtree, "bad_rng_flow.py") == [
        ("SIM009", 9),   # keyword rng=random.Random(...)
        ("SIM009", 11),  # positional, raw stream tracked by dataflow
    ]


def test_sim009_message_names_resolved_target(xtree):
    findings = [
        d for d in lint_paths([str(xtree)])
        if d.code == "SIM009" and d.line == 11
    ]
    assert len(findings) == 1
    message = findings[0].message
    assert "'rng'" in message
    assert "simkit.components.NoisyMac" in message
    assert "derive_rng" in message


def test_sim010_unordered_iteration_golden(xtree):
    assert findings_for(xtree, "bad_unordered_sched.py") == [
        ("SIM010", 6),   # set order straight into env.schedule
        ("SIM010", 14),  # laundered through a list filled from a set loop
        ("SIM010", 19),  # comprehension over dict.keys() calling record()
        ("SIM010", 23),  # set order into env.schedule_at
    ]


def test_sim011_sim_time_equality_golden(xtree):
    assert findings_for(xtree, "bad_time_eq.py") == [
        ("SIM011", 5),   # env.now == deadline
        ("SIM011", 8),   # t = env.now + 0.5; t != deadline
        ("SIM011", 12),  # `now` parameter convention
    ]


def test_sim012_unit_suffix_mismatch_golden(xtree):
    assert findings_for(xtree, "bad_units.py") == [
        ("SIM012", 8),   # set_guard_us(0.25)
        ("SIM012", 9),   # configure_slots(num_slots=2.5)
        ("SIM012", 10),  # components.set_guard_us(20e-6)
    ]


def test_clean_flows_produce_no_findings(xtree):
    assert findings_for(xtree, "clean_flows.py") == []


def test_component_definitions_are_clean(xtree):
    assert findings_for(xtree, "components.py") == []


def test_inline_suppression_honoured_for_project_rules(xtree):
    # clean_flows.py line 13 injects a raw RNG under `# simlint: disable=SIM009`.
    findings = lint_paths([str(xtree)])
    assert not any(
        d.path.endswith("clean_flows.py") and d.code == "SIM009"
        for d in findings
    )


def test_tests_directories_exempt_from_sim009_and_sim011(tmp_path):
    tests_dir = tmp_path / "tests"
    tests_dir.mkdir()
    (tests_dir / "test_kernel.py").write_text(
        "import random\n"
        "\n"
        "def test_exact_time(env, mac_cls):\n"
        "    mac = mac_cls(env, 1, rng=random.Random(7))\n"
        "    assert env.now == 5.0\n"
    )
    findings = lint_paths([str(tmp_path)])
    assert not any(d.code in ("SIM009", "SIM011") for d in findings)


def test_sim011_none_sentinel_not_flagged(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(env):\n"
        "    if env.now == None:\n"
        "        return 0\n"
        "    return 1\n"
    )
    assert not any(d.code == "SIM011" for d in lint_paths([str(tmp_path)]))


def test_sim010_skips_hot_path_packages(tmp_path):
    # Hot-path packages are SIM005 territory; SIM010 must not double-report.
    pkg = tmp_path / "repro" / "mac"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "burst.py").write_text(
        "def go(env, nodes):\n"
        "    for n in set(nodes):\n"
        "        env.schedule(n, 0, 0.1)\n"
    )
    codes = [d.code for d in lint_paths([str(tmp_path)])]
    assert "SIM010" not in codes
    assert "SIM005" in codes


def test_seeded_project_wide_run_is_deterministic(xtree):
    _, first = lint_project([str(xtree)], jobs=1)
    _, second = lint_project([str(xtree)], jobs=4)
    assert [(d.path, d.line, d.code) for d in first] == [
        (d.path, d.line, d.code) for d in second
    ]
