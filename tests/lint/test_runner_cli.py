"""Runner, CLI and acceptance coverage for simlint."""

from __future__ import annotations

import io
import json
import shutil
from pathlib import Path

from repro.cli import main as cli_main
from repro.lint import lint_paths
from repro.lint.runner import (
    iter_python_files,
    lint_file,
    lint_project,
    run_lint,
)

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = REPO_ROOT / "src"

ALL_CODES = tuple(f"SIM{n:03d}" for n in range(1, 13))


def copied_tree(tmp_path: Path, name: str = "tree") -> Path:
    """Copy a fixture tree out from under ``tests/`` before linting it.

    Fixture trees live below ``tests/lint/fixtures``, where the
    tests-exemption policy would suppress SIM003/SIM009/SIM011 — the
    copy restores the "simulation code" context the fixtures model.
    """
    target = tmp_path / name
    shutil.copytree(FIXTURES / name, target)
    return target


def test_fixture_tree_violates_every_file_rule(tmp_path):
    findings = lint_paths([str(copied_tree(tmp_path))])
    found_codes = {d.code for d in findings}
    assert found_codes == {
        "SIM001", "SIM002", "SIM003", "SIM004", "SIM005", "SIM006", "SIM007",
        "SIM008",
    }
    # Every diagnostic carries a real location.
    for diag in findings:
        assert diag.path.endswith(".py")
        assert diag.line >= 1 and diag.col >= 1


def test_sim003_fixture_flags_every_scheduling_entry_point(tmp_path):
    findings = lint_paths([str(copied_tree(tmp_path))])
    lines = sorted(
        d.line
        for d in findings
        if d.code == "SIM003" and d.path.endswith("bad_delays.py")
    )
    assert lines == [5, 6, 7]  # timeout(), schedule(), schedule_at()


def test_run_lint_nonzero_with_file_line_output(tmp_path):
    stream = io.StringIO()
    status = run_lint(
        [str(copied_tree(tmp_path))], stream=stream, no_baseline=True
    )
    assert status == 1
    output = stream.getvalue()
    assert "bad_random.py:9:" in output  # file:line diagnostics
    assert "SIM001" in output and "SIM006" in output


def test_repo_is_clean_under_whole_program_lint(monkeypatch):
    # The acceptance criterion: `ebl-sim lint` at the repo root reports
    # zero non-baselined findings across src/, tests/ and examples/.
    monkeypatch.chdir(REPO_ROOT)
    stream = io.StringIO()
    assert run_lint(["src", "tests", "examples"], stream=stream) == 0
    assert "clean" in stream.getvalue()


def test_cli_lint_subcommand_exit_codes(tmp_path, capsys):
    assert cli_main(["lint", str(REPO_SRC / "repro" / "des")]) == 0
    assert cli_main(["lint", str(copied_tree(tmp_path))]) == 1
    out = capsys.readouterr().out
    assert "SIM003" in out


def test_cli_list_rules(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ALL_CODES:
        assert code in out


def test_missing_path_is_an_error_not_clean():
    stream = io.StringIO()
    assert run_lint(["/no/such/dir"], stream=stream) == 2
    assert "no such file" in stream.getvalue()


def test_iter_python_files_skips_pycache(tmp_path):
    (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("x = 1\n")
    files = list(iter_python_files([str(tmp_path)]))
    assert [f.name for f in files] == ["mod.py"]


def test_lint_file_reports_syntax_error(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    findings = lint_file(bad)
    assert len(findings) == 1
    assert findings[0].code == "SIM000"
    assert "syntax error" in findings[0].message


def test_single_file_argument(tmp_path):
    target = tmp_path / "one.py"
    target.write_text("import random\nx = random.random()\n")
    findings = lint_paths([str(target)])
    assert [d.code for d in findings] == ["SIM001"]


def test_non_utf8_file_skipped_with_diagnostic(tmp_path):
    good = tmp_path / "ok.py"
    good.write_text("x = 1\n")
    bad = tmp_path / "latin.py"
    bad.write_bytes(b"# caf\xe9\nx = 1\n")
    stream = io.StringIO()
    status = run_lint([str(tmp_path)], stream=stream, no_baseline=True)
    # The bad file gates the run instead of crashing it...
    assert status == 1
    output = stream.getvalue()
    assert "SIM000" in output and "not valid UTF-8" in output
    # ...and the readable file was still linted.
    project, findings = lint_project([str(tmp_path)])
    assert str(good) in {m.path for m in project.modules.values()}
    assert [d.code for d in findings] == ["SIM000"]


def test_parallel_jobs_output_identical(tmp_path):
    tree = copied_tree(tmp_path)
    _, serial = lint_project([str(tree)], jobs=1)
    _, threaded = lint_project([str(tree)], jobs=4)
    assert [(d.path, d.line, d.col, d.code) for d in serial] == [
        (d.path, d.line, d.col, d.code) for d in threaded
    ]


def test_cli_jobs_flag(tmp_path, capsys):
    assert cli_main(["lint", "--jobs", "4", str(copied_tree(tmp_path))]) == 1
    assert "SIM001" in capsys.readouterr().out


def test_json_format_and_output_file(tmp_path):
    tree = copied_tree(tmp_path)
    report = tmp_path / "report.json"
    stream = io.StringIO()
    status = run_lint(
        [str(tree)], stream=stream, fmt="json", no_baseline=True,
        output=str(report),
    )
    assert status == 1
    payload = json.loads(report.read_text())
    assert {entry["code"] for entry in payload} >= {"SIM001", "SIM006"}
    assert all({"path", "line", "col", "message"} <= set(e) for e in payload)


def test_sarif_format_to_stdout(tmp_path):
    stream = io.StringIO()
    status = run_lint(
        [str(copied_tree(tmp_path))], stream=stream, fmt="sarif",
        no_baseline=True,
    )
    assert status == 1
    sarif = json.loads(stream.getvalue())
    assert sarif["runs"][0]["tool"]["driver"]["name"] == "simlint"
    assert sarif["runs"][0]["results"]


def test_write_baseline_then_clean_run(tmp_path):
    tree = copied_tree(tmp_path)
    baseline = tmp_path / "baseline.json"
    stream = io.StringIO()
    assert run_lint(
        [str(tree)], stream=stream, write_baseline=True,
        baseline_path=str(baseline),
    ) == 0
    assert baseline.is_file()
    # With every finding recorded, the same tree now lints clean...
    stream = io.StringIO()
    assert run_lint(
        [str(tree)], stream=stream, baseline_path=str(baseline)
    ) == 0
    assert "baselined finding(s) hidden" in stream.getvalue()
    # ...but a new violation still gates.
    extra = tree / "fresh.py"
    extra.write_text("import random\ny = random.random()\n")
    stream = io.StringIO()
    assert run_lint(
        [str(tree)], stream=stream, baseline_path=str(baseline)
    ) == 1
    assert "fresh.py" in stream.getvalue()


def test_corrupt_baseline_is_usage_error(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text("{not json")
    stream = io.StringIO()
    assert run_lint(
        [str(REPO_SRC / "repro" / "des")], stream=stream,
        baseline_path=str(bad),
    ) == 2
    assert "cannot load baseline" in stream.getvalue()
