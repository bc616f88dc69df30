"""Machine-speed yardstick for the end-to-end times.

On a host whose cores are shared, the speed of a CPU can drift by tens
of percent in phases of seconds, and CPU time drifts with wall time, so
two runs of the same code can differ more than a regression would.  To
take that drift out, a timed run also times a fixed pure-Python task,
`reference()`, that does not touch ackirby: a SIGALRM timer runs it
every PERIOD_S, also while the process waits for a pool of workers or
a child, so that the samples see the CPUs those are running on.  Each
sample is timed in the CPU time of the thread that runs it, so that
waiting for a CPU held by a worker does not count.  A time measured
between two moments is then scaled by REFERENCE_S over the median time
of the reference samples taken near it, which gives seconds at the speed
where the reference takes REFERENCE_S.  The samples' own time is taken
out of the measured time first.

The reference does what the program's hot loop does (free reduction,
cyclic rotations, tuple comparisons, dict counting) on a fixed word set,
with the garbage collector off, so that no setting the program makes
can change its speed.
"""

import bisect
import gc
import random
import signal
import statistics
import time

PERIOD_S = 0.1        # wall seconds between two reference samples
REFERENCE_S = 0.0027  # median reference time on a 2-vCPU x86-64 VM, Python 3.11
NEAR_S = 1.0          # samples this close to a measured interval count for it
MIN_SAMPLES = 5       # else the samples nearest to the interval count

_rng = random.Random("speed-reference")
_WORDS = tuple(tuple(_rng.choice((1, -1)) * _rng.randrange(1, 4)
                     for _ in range(_rng.randrange(4, 24)))
               for _ in range(300))


def reference():
    """The fixed task; returns the number of distinct cyclic words."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        seen = {}
        for word in _WORDS:
            out = []
            for x in word:
                if out and out[-1] == -x:
                    out.pop()
                else:
                    out.append(x)
            t = tuple(out)
            best = min(t[i:] + t[:i] for i in range(len(t))) if t else t
            seen[best] = seen.get(best, 0) + 1
        return len(seen)
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Times `reference()` on a wall-clock timer while it is entered."""

    def __init__(self):
        self.starts = []      # perf_counter at the start of each sample
        self.times = []       # its thread CPU seconds
        self._busy = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            start, cpu0 = time.perf_counter(), time.thread_time()
            reference()
            self.times.append(time.thread_time() - cpu0)
            self.starts.append(start)
        finally:
            self._busy = False

    def _within(self, start, end):
        return bisect.bisect_left(self.starts, start), bisect.bisect_right(self.starts, end)

    def taken(self, start, end):
        """CPU seconds the samples took between start and end."""
        lo, hi = self._within(start, end)
        return sum(self.times[lo:hi])

    def factor(self, intervals, near_s=NEAR_S):
        """REFERENCE_S over the median time of the samples taken within
        near_s of any (start, end) interval, or when fewer than
        MIN_SAMPLES were, of the MIN_SAMPLES nearest to the first
        interval; 1.0 when no sample has been taken."""
        near = []
        for start, end in intervals:
            lo, hi = self._within(start - near_s, end + near_s)
            near += self.times[lo:hi]
        if len(near) < MIN_SAMPLES:
            mid = sum(intervals[0]) / 2
            order = sorted(range(len(self.starts)), key=lambda k: abs(self.starts[k] - mid))
            near = [self.times[k] for k in order[:MIN_SAMPLES]]
        return REFERENCE_S / statistics.median(near) if near else 1.0
