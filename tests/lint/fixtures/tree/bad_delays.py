"""Fixture: SIM003 (constant bad delays), SIM004 (mutable default)."""


def retransmit(env, backlog=[]):  # SIM004
    yield env.timeout(-1.0)  # SIM003
    env.schedule(None, 1, float("nan"))  # SIM003
    env.schedule_at(None, -0.5)  # SIM003
