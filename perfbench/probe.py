"""Speed probe: how fast this machine runs fixed work while a planner run executes.

On a shared host the speed of one core changes by 10-80% over seconds to
minutes, as other tenants' load comes and goes; the change shows in CPU time
too, not only in wall time. A probe samples that speed during each timed
planner run: a wall-clock interval timer interrupts the run every
``PERIOD_S`` and the handler times a fixed piece of work that calls no seqmp
code. The run's wall time divided by the mean probe time is its time at the
probe's reference speed (run.py, ``PROBE_REF_S``). The work mixes the two
kinds of code the workloads spend their time in: numpy over a few thousand
points (tree queries, vectorised collision checks) and small matrix products
in a Python loop (per-point forward kinematics, Newton steps).
"""
import signal
import time

import numpy as np

PERIOD_S = 0.05


class SpeedProbe:
    """Context manager that samples the probe time while its block runs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.points = rng.standard_normal((2000, 3))
        self.queries = rng.standard_normal((8, 3))
        self.rot = rng.standard_normal((3, 3)) * 0.5
        self.times = []
        self.inside_s = 0.0  # probe time spent inside the block, to subtract from its wall time

    def work(self):
        t0 = time.perf_counter()
        for q in self.queries:
            int(((self.points - q) ** 2).sum(1).argmin())
        x = np.zeros(3)
        for i in range(96):
            x = self.rot @ x + self.queries[i & 7]
            float(np.sqrt(x @ x))
        self.times.append(time.perf_counter() - t0)
        return self.times[-1]

    def _on_timer(self, signum, frame):
        self.inside_s += self.work()

    def __enter__(self):
        self.times, self.inside_s = [], 0.0
        self.work()  # at least one sample, also for blocks shorter than a period
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False
