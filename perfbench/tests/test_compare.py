"""compare.py gates on the bounds BENCHMARK.json fixes."""

import copy

from perfbench.compare import compare, main
from perfbench.report import BENCHMARK_JSON, load_json, write_json

BENCHMARK = load_json(BENCHMARK_JSON)


def _report():
    metrics = {
        spec["name"]: {"value": 2.0, "unit": spec["unit"], "n": 20}
        for spec in BENCHMARK["end_to_end"]
    }
    return {
        "traced": False,
        "workloads": {
            "dcf-paper": {
                "metrics": metrics,
                "attempted": 20,
                "failed": 0,
                "digests": {"dcf-paper-seed1": "a" * 64},
            }
        },
    }


def _scaled(report, factor_of):
    """Every metric moved the worse way by ``factor_of(spec)``."""
    other = copy.deepcopy(report)
    metrics = other["workloads"]["dcf-paper"]["metrics"]
    for spec in BENCHMARK["end_to_end"]:
        sign = 1 if spec["better"] == "lower" else -1
        metrics[spec["name"]]["value"] *= 1 + sign * factor_of(spec)
    return other


def test_changes_within_bounds_pass():
    a = _report()
    b = _scaled(a, lambda spec: spec["bound"] / 2)
    lines, problems = compare(a, b, BENCHMARK)
    assert problems == []
    assert len(lines) == len(BENCHMARK["end_to_end"]) + 1  # + failed_frac


def test_regression_beyond_bound_is_flagged():
    a = _report()
    b = _scaled(a, lambda spec: 0.0)
    b["workloads"]["dcf-paper"]["metrics"]["trial_host_s_p50"]["value"] *= 1.5
    b["workloads"]["dcf-paper"]["metrics"]["sim_s_per_host_s"]["value"] *= 0.5
    _, problems = compare(a, b, BENCHMARK)
    assert len(problems) == 2
    assert any("trial_host_s_p50" in problem for problem in problems)


def test_failed_frac_rise_and_digest_change_are_flagged():
    a = _report()
    b = copy.deepcopy(a)
    b["workloads"]["dcf-paper"]["failed"] = 1
    b["workloads"]["dcf-paper"]["digests"]["dcf-paper-seed1"] = "b" * 64
    _, problems = compare(a, b, BENCHMARK)
    assert len(problems) == 2


def test_exit_status(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(a, _report())
    write_json(b, _report())
    assert main([str(a), str(b)]) == 0
    worse = _report()
    worse["workloads"]["dcf-paper"]["metrics"]["peak_rss_mb"]["value"] = 4.0
    write_json(b, worse)
    assert main([str(a), str(b)]) == 1
