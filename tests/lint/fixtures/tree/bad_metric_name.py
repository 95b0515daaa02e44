"""Fixture: SIM008 (malformed metric name)."""


class Widget:
    def __init__(self, env):
        probes = env.probes
        self.sent = probes.counter("Mac.DCF.Sent")  # SIM008: uppercase
        self.wait = probes.histogram("mac dcf wait")  # SIM008: spaces
        self.enqueued = probes.counter("queue.enqueued")  # fine
