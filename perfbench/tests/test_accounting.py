"""Each kind of failed trial counts exactly once in failed_frac."""

from repro.experiments.campaign import CampaignTrial, run_campaign

from perfbench import measure
from perfbench.workloads import BY_NAME


def _short_trials(seeds):
    return BY_NAME["dcf-paper"].shortened(2.0).trials(seeds)


def _pins(trials):
    return {
        trial.key: measure.trial_digest(measure.run_inprocess(trial.config).result)
        for trial in trials
    }


def test_raising_trial_counts_once(monkeypatch):
    trials = _short_trials([1, 2])
    tally = measure.Tally(_pins(trials))
    harvest = measure.harvest

    def failing_harvest(scenario):
        if scenario.config.seed == 2:
            raise RuntimeError("boom")
        return harvest(scenario)

    monkeypatch.setattr(measure, "harvest", failing_harvest)
    runs = [measure.try_inprocess(trial, tally) for trial in trials]
    assert runs[0] is not None and runs[1] is None
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "RuntimeError: boom" in tally.errors[0]


def test_wrong_pin_counts_once_and_keeps_timings():
    trials = _short_trials([1])
    pins = {trials[0].key: "0" * 64}
    tally = measure.Tally(pins)
    run = measure.try_inprocess(trials[0], tally)
    assert run is not None and run.trial_s > 0
    assert (tally.attempted, tally.failed) == (1, 1)
    good = measure.Tally(_pins(trials))
    measure.try_inprocess(trials[0], good)
    assert (good.attempted, good.failed) == (1, 0)


def test_non_ok_campaign_outcome_counts_once():
    crash = CampaignTrial(key="inject-crash", kind="inject-crash")
    outcome = run_campaign([crash], jobs=1).outcomes[0]
    assert outcome.status == "error"
    tally = measure.Tally({})
    tally.record_outcome(outcome)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "RuntimeError: injected crash" in tally.errors[0]


def test_sanitizer_violations_count_once():
    trial = BY_NAME["tdma-observed"].shortened(2.0).trials([1])[0]
    run = measure.run_inprocess(trial.config)
    report = run.result.sanitizer_report
    assert report.ok
    pins = {trial.key: measure.trial_digest(run.result)}
    report.overflow = 3  # as if three violations went past the report's cap
    tally = measure.Tally(pins)
    tally.record_result(trial.key, trial.key, run.result)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "3 sanitizer violation(s)" in tally.errors[0]
