"""Every metric BENCHMARK.json names is measured, in the unit it names."""

import pytest

from perfbench import layers, measure
from perfbench.report import BENCHMARK_JSON, load_json, result_line
from perfbench.workloads import BY_NAME, WORKLOADS

BENCHMARK = load_json(BENCHMARK_JSON)


def test_benchmark_json_matches_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        workload.name for workload in WORKLOADS
    ]
    assert BENCHMARK["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", ["dcf-paper", "dcf-faulted-campaign"])
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_every_listed_metric_is_reported_with_its_unit(name, traced):
    workload = BY_NAME[name].shortened(2.0)
    tally = measure.Tally({})
    run = layers.trace if traced else measure.measure
    report = {
        "traced": traced,
        "metrics": run(workload, [1], tally),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
    }
    line = result_line(report, BENCHMARK)
    section = BENCHMARK["per_layer" if traced else "end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [spec["name"] for spec in section]
    for spec in section:
        assert line["metrics"][spec["name"]]["unit"] == spec["unit"]
