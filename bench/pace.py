"""A sampling probe of how fast the host runs the process being timed.

A shared host runs the same code up to a third faster or slower from one
minute to the next, and differently on each of its virtual CPUs: one
segmentation took 6.9 s and, repeated within the same minute, 9.5 s. This
guest has no cycle counter, and a reference computation timed between the
calls did not follow the speed the calls saw. So the probe measures the pace
inside the timed process, while the work runs: every ``INTERVAL_S`` a SIGALRM
handler on the main thread times a fixed pure-Python loop. ``scale()`` turns
the process's wall seconds into seconds at a steady reference pace, at which
one loop takes ``REF_LOOP_S``. The handler costs about 0.3% of the process's
time.
"""

import signal
import statistics
import time

INTERVAL_S = 0.1
LOOP_ITERATIONS = 3000
REF_LOOP_S = 250e-6  # about the mean loop time on a 2-vCPU KVM guest of a 2.0 GHz Xeon


class Probe:
    """Samples the loop time from ``__enter__`` to ``__exit__``, once at each end too."""

    def __init__(self):
        self.loops_s = []

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        x = 0
        for i in range(LOOP_ITERATIONS):
            x += i * i
        self.loops_s.append(time.perf_counter() - t0)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def mean_loop_s(self):
        return statistics.fmean(self.loops_s)

    def scale(self):
        """Factor from wall seconds to seconds at the reference pace."""
        return REF_LOOP_S / self.mean_loop_s()
