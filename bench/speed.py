"""The machine's speed, sampled while a workload runs, and times rescaled by it.

A shared host runs the same code up to about 2x slower for stretches of
a fraction of a second to a minute, as other tenants come and go.  Raw
times of one program then differ between runs by more than most changes
to it.  Code of the same kind as hopfkit's (dicts keyed by tuples,
Fraction arithmetic) slows down in step: timed alternately over 100 s
on a 2-core VM, a hopfkit call varied 1.6x between 10 s windows while
its ratio to a loop of the same kind as this module's reference
loop varied 1.05x.

So a timer interrupts the workload every PERIOD_S seconds and times one
pass of the reference loop.  Each stretch of workload time is rescaled by
REFERENCE_S over the reference loop's mean time around it: the result is
the time the stretch would take on a machine that runs the reference
loop in exactly REFERENCE_S.  The loop's own time is left out.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

_clock = time.perf_counter

PERIOD_S = 0.05
# Nominal time of one reference pass: about what it takes on an
# undisturbed 2-core Xeon VM, so rescaled times read close to seconds
# there.
REFERENCE_S = 0.001
# Samples taken on each side of an interval, besides those inside it.
MARGIN = 2

_KEYS = tuple(((i * 7919) % 101, i % 13) for i in range(200))
_STEPS = tuple(Fraction(i, 7) for i in range(200))


def reference_pass():
    """Fixed pure-Python work of the same kind as hopfkit's."""
    acc = {}
    for key, step in zip(_KEYS, _STEPS):
        acc[key] = acc.get(key, 0) + step * step
    return len(acc)


class SpeedProbe:
    """Times a reference pass every PERIOD_S while started.

    Samples are (start, end) pairs from the same clock as the caller's
    timestamps.  Garbage collection is off during a pass, so its time
    does not depend on how many objects the workload holds.
    """

    def __init__(self):
        self.starts, self.ends = [], []

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        t0 = _clock()
        reference_pass()
        t1 = _clock()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)

    def start(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def rescale(self, t0, t1):
        """(busy, rescaled) seconds of the interval [t0, t1].

        busy leaves out the reference passes inside the interval;
        rescaled is busy times REFERENCE_S over the mean pass time of the
        passes inside it and MARGIN more on each side.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        busy = (t1 - t0) - sum(self.ends[k] - self.starts[k]
                               for k in range(lo, hi))
        near = range(max(lo - MARGIN, 0), min(hi + MARGIN, len(self.starts)))
        mean = sum(self.ends[k] - self.starts[k] for k in near) / len(near)
        return busy, busy * REFERENCE_S / mean
