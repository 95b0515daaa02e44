"""Tests for the claim-check report and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.core.analysis import analyze_trial
from repro.core.runner import run_trial
from repro.core.trials import TRIAL_1, TRIAL_2, TRIAL_3
from repro.experiments.report import (
    check_claims,
    generate_report,
    render_markdown,
)

DURATION = 20.0


@pytest.fixture(scope="module")
def analyses():
    a1 = analyze_trial(run_trial(TRIAL_1.with_overrides(duration=DURATION)))
    a2 = analyze_trial(run_trial(TRIAL_2.with_overrides(duration=DURATION)))
    a3 = analyze_trial(run_trial(TRIAL_3.with_overrides(duration=DURATION)))
    return a1, a2, a3


def test_all_shape_claims_hold(analyses):
    claims = check_claims(*analyses)
    assert len(claims) == 7
    assert {c.claim_id for c in claims} == {f"S{i}" for i in range(1, 8)}
    failed = [c for c in claims if not c.holds]
    assert not failed, f"failed claims: {failed}"


def test_render_markdown_structure(analyses):
    # Use a cheap hand-rolled report to exercise rendering.
    report = generate_report(duration=DURATION)
    text = render_markdown(report)
    assert "## Shape claims" in text
    assert "| S1 |" in text
    assert "## trial1" in text
    assert "## Safety" in text
    assert report.all_claims_hold


def test_cli_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["run", "--trial", "2", "--duration", "10"])
    assert args.trial == 2
    args = parser.parse_args(["sweep", "tdma-slots"])
    assert args.kind == "tdma-slots"
    args = parser.parse_args(["sanitize", "--trial", "2", "--fault-plan",
                              "light"])
    assert args.trial == "2" and args.fault_plan == "light"
    args = parser.parse_args(["fuzz", "--seed", "3", "--count", "7",
                              "--no-shrink"])
    assert args.seed == 3 and args.count == 7 and args.no_shrink
    args = parser.parse_args(["trace", "--uid", "7"])
    assert args.uid == 7
    args = parser.parse_args(["trace", "--uid", "initial-warning"])
    assert args.uid == "initial-warning"
    args = parser.parse_args(["campaign", "--sanitize"])
    assert args.sanitize


def test_cli_sanitize_runs_clean_trial(capsys):
    code = main(["sanitize", "--trial", "1", "--duration", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sanitizer report" in out
    assert "OK — no invariant violations" in out


def test_cli_fuzz_fixed_seed_reproduces_sequence(capsys, monkeypatch):
    # Fixed seed => identical config sequence; stub the probe so the
    # CLI path is exercised without running trials.
    from repro.experiments.campaign import TrialOutcome
    from repro.sanitizer import fuzz as fuzz_module

    monkeypatch.setattr(
        fuzz_module,
        "subprocess_probe",
        lambda config, timeout=60.0: TrialOutcome(
            key=config.name, status="ok"
        ),
    )
    code = main(["fuzz", "--seed", "5", "--count", "3"])
    first = capsys.readouterr().out
    assert code == 0
    code = main(["fuzz", "--seed", "5", "--count", "3"])
    second = capsys.readouterr().out
    assert code == 0
    assert first == second
    assert "fuzz-5-0002" in first


def test_cli_run_prints_analysis(capsys):
    code = main(["run", "--trial", "3", "--duration", "15"])
    out = capsys.readouterr().out
    assert code == 0
    assert "trial3" in out
    assert "steady-state delay" in out
    assert "safety" in out


def test_cli_run_writes_trace(tmp_path, capsys):
    trace_file = tmp_path / "out.tr"
    code = main(
        ["run", "--trial", "1", "--duration", "10", "--trace", str(trace_file)]
    )
    assert code == 0
    lines = trace_file.read_text().strip().splitlines()
    assert len(lines) > 100
    from repro.trace.parser import parse_trace_line

    parse_trace_line(lines[0])  # must be well-formed


def test_cli_report_writes_markdown(tmp_path, capsys):
    out_file = tmp_path / "report.md"
    code = main(
        ["report", "--duration", str(DURATION), "--output", str(out_file)]
    )
    assert code == 0
    assert "Shape claims" in out_file.read_text()


def test_cli_nam_writes_animation(tmp_path):
    out_file = tmp_path / "out.nam"
    code = main(
        ["nam", "--trial", "1", "--duration", "10", "--interval", "1.0",
         "--output", str(out_file)]
    )
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("V -t *")
    # 6 node declarations + one position line per node per frame.
    assert text.count("n -t *") == 6
    assert text.count("n -t ") >= 6 + 6 * 10


def test_cli_figures_writes_trial3_set(tmp_path):
    out_dir = tmp_path / "figs"
    code = main(
        ["figures", "--trial", "3", "--duration", "12",
         "--output-dir", str(out_dir)]
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "fig11_trial3_delay_p1.txt",
        "fig12_trial3_delay_p1_transient.txt",
        "fig13_trial3_delay_p2.txt",
        "fig14_trial3_delay_p2_transient.txt",
        "fig15_trial3_throughput.txt",
    ]
    body = (out_dir / "fig15_trial3_throughput.txt").read_text()
    assert "Mbps" in body


def test_cli_replicate_prints_cis(capsys):
    code = main(
        ["replicate", "--trial", "3", "--duration", "10",
         "--replications", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "throughput" in out
    assert "95% CI" in out
