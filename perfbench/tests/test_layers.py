"""The traced pass must not change what the simulator computes."""

import pytest

from repro.des import Environment
from repro.des.exceptions import Interrupt

from perfbench.layers import LayerClock
from perfbench.measure import run_inprocess, trial_digest
from perfbench.workloads import WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_traced_digest_equals_untraced(workload):
    for trial in workload.shortened(2.0).trials([1]):
        plain = run_inprocess(trial.config)
        traced = run_inprocess(trial.config, LayerClock())
        assert trial_digest(traced.result) == trial_digest(plain.result)
        assert traced.layers["calls"][("mac", "access")] > 0
        assert traced.layers["calls"][("net.channel", "transmit")] > 0
        if workload.fault_plan is not None:
            kinds = {entry.kind for entry in traced.result.fault_log}
            assert "node-crash" in kinds


def test_self_times_add_up_to_outermost_spans():
    trial = WORKLOADS[0].shortened(2.0).trials([1])[0]
    layers = run_inprocess(trial.config, LayerClock()).layers
    assert sum(layers["self_ns"].values()) == layers["top_ns"]


def _process_log(wrapped: bool) -> list:
    """What a set of processes saw: values, caught failures, interrupts."""
    env = Environment()
    if wrapped:
        LayerClock().wrap_process(env)
    log = []
    failing = env.event()

    def waits_on_failure():
        try:
            yield failing
        except ValueError as exc:
            log.append((env.now, "caught", str(exc)))
        yield env.timeout(1.0)
        return "recovered"

    def sleeper():
        try:
            yield env.timeout(10.0)
        except Interrupt as interrupt:
            log.append((env.now, "interrupted", interrupt.cause))
        value = yield env.timeout(0.5, value="late")
        log.append((env.now, "woke", value))

    def crashes():
        yield env.timeout(2.0)
        raise RuntimeError("crash")

    def interrupter(target, crasher):
        yield env.timeout(1.0)
        failing.fail(ValueError("bad frame"))
        target.interrupt("node-crash")
        try:
            yield crasher
        except RuntimeError as exc:
            log.append((env.now, "saw crash", str(exc)))
        result = yield recovering
        log.append((env.now, "joined", result))

    recovering = env.process(waits_on_failure())
    env.process(interrupter(env.process(sleeper()), env.process(crashes())))
    env.run()
    return log


def test_process_proxy_passes_values_and_exceptions_through():
    plain = _process_log(wrapped=False)
    assert [entry[1] for entry in plain] == [
        "interrupted",  # interrupts are urgent events
        "caught",
        "woke",
        "saw crash",
        "joined",
    ]
    assert _process_log(wrapped=True) == plain
