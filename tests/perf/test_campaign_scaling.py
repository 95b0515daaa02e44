"""Campaign worker-pool scaling: overlap, determinism, speedup gates."""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.core.trials import TrialConfig
from repro.experiments.campaign import CampaignTrial, run_campaign
from repro.perf import campaign_scaling
from repro.perf.campaign_scaling import (
    SPEEDUP_ATTEMPTS,
    SPEEDUP_BOUND,
    compare_outcomes,
    format_report,
    measure_campaign_scaling,
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="stub workers are closures; only fork ships them to the child",
)


def tiny_config(name: str) -> TrialConfig:
    return TrialConfig(
        name=name,
        seed=1,
        duration=1.5,
        enable_trace=False,
        track_energy=False,
    )


@needs_fork
def test_pool_overlaps_an_8_trial_campaign_near_linearly(monkeypatch):
    """ISSUE acceptance: jobs=4 beats jobs=1 on the same 8-trial campaign
    with bit-identical per-trial records.

    The stub workers block in ``sleep`` instead of burning CPU, so the
    measured overlap is a property of the *scheduler* and holds on any
    host — including single-hardware-thread CI containers where
    CPU-bound trials cannot physically speed up.  Real-trial multicore
    scaling depends on host load, so ``make campaign-bench`` gates it in
    CI, not tier-1.  Retry protocol as in the tracing-overhead
    gate: up to five attempts, pass on the first under the bar; genuine
    scheduler serialization fails every attempt.
    """
    import repro.experiments.campaign as campaign_module

    nap = 0.25

    def sleeping_worker(trial, results):
        time.sleep(nap)
        results.put(
            {"status": "ok", "metrics": {"key_len": float(len(trial.key))}}
        )

    monkeypatch.setattr(campaign_module, "_worker", sleeping_worker)
    trials = [
        CampaignTrial(key=f"sleep-{i}", kind="inject-hang") for i in range(8)
    ]

    ratios = []
    for _attempt in range(5):
        started = time.monotonic()  # simlint: disable=SIM002
        sequential = run_campaign(trials, timeout=30.0, jobs=1)
        wall_sequential = time.monotonic() - started  # simlint: disable=SIM002
        started = time.monotonic()  # simlint: disable=SIM002
        parallel = run_campaign(trials, timeout=30.0, jobs=4)
        wall_parallel = time.monotonic() - started  # simlint: disable=SIM002

        assert compare_outcomes(sequential, parallel) == []
        assert [o.key for o in parallel.outcomes] == [t.key for t in trials]
        # 8 naps sequentially is >= 8*nap; 4-wide is 2 waves >= 2*nap.
        assert wall_sequential >= 8 * nap
        ratios.append(wall_parallel / wall_sequential)
        if ratios[-1] < 0.6:
            return
    assert False, (
        "worker pool never overlapped trials: parallel/sequential ratios "
        + ", ".join(f"{r:.2f}" for r in ratios)
    )


@pytest.mark.parametrize(
    "threads, speedups, identical, status",
    [
        (4, [1.0, 1.1, 1.3], True, 0),  # passes on the first attempt over it
        (4, [1.0] * SPEEDUP_ATTEMPTS, True, 1),  # never over the bound
        (1, [0.9], True, 0),  # one hardware thread: reported, not gated
        (4, [1.3], False, 1),  # differing records fail without a retry
    ],
    ids=["retries-then-passes", "fails-after-all-attempts", "single-thread",
         "records-differ"],
)
def test_campaign_bench_gates_speedup_with_retry(
    monkeypatch, threads, speedups, identical, status
):
    """``make campaign-bench`` gates the >1.2x multicore speedup with the
    5-attempt retry; measurements are faked so the gate itself is tested
    without depending on host load."""
    measured = iter(speedups)
    calls = []

    def fake_measure(base, seeds, jobs, timeout):
        calls.append(jobs)
        return {
            "trial": base.name, "duration": base.duration, "seeds": seeds,
            "jobs": jobs, "wall_sequential_s": 1.0, "wall_parallel_s": 1.0,
            "speedup": next(measured), "identical": identical,
            "mismatches": [] if identical else ["trial3-seed1"],
        }

    monkeypatch.setattr(campaign_scaling, "measure_campaign_scaling", fake_measure)
    monkeypatch.setattr(campaign_scaling, "hardware_threads", lambda: threads)
    assert SPEEDUP_BOUND == 1.2
    assert campaign_scaling.main(["--jobs", "4"]) == status
    assert calls == [4] * len(speedups)


def test_measure_campaign_scaling_report_shape():
    base = tiny_config("shape")
    report = measure_campaign_scaling(base, seeds=2, jobs=2, timeout=60.0)
    assert report["schema"] == "repro.campaign-scaling/1"
    assert report["trial"] == "shape"
    assert report["seeds"] == 2 and report["jobs"] == 2
    assert report["identical"] is True
    assert report["mismatches"] == []
    assert report["statuses"] == {"ok": 2}
    assert report["wall_sequential_s"] > 0
    assert report["wall_parallel_s"] > 0
    assert report["speedup"] > 0
    assert "bit-identical" in format_report(report)


def test_measure_campaign_scaling_validates_seeds():
    with pytest.raises(ValueError, match="seeds"):
        measure_campaign_scaling(tiny_config("bad"), seeds=0)
