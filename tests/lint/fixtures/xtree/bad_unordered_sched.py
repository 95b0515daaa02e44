"""SIM010 golden fixture: set iteration order reaching scheduling/trace."""


def kickoff(env, nodes):
    pending = set(nodes)
    for node in pending:  # line 6: set order decides schedule order
        env.schedule(node.event, 0, 0.1)


def launder(env, nodes):
    batch = []
    for node in set(nodes):
        batch.append(node)
    for node in batch:  # line 14: set order laundered through a list
        env.schedule(node.event, 0, 0.2)


def emit_all(tracer, members):
    [tracer.record("s", 0.0, m) for m in members.keys()]  # line 19


def wake_all(env, timers):
    for timer in set(timers):  # line 23: set order decides same-time ties
        env.schedule_at(timer, 1.0)
