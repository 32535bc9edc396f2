"""The machine's pace while a worker runs, and times scaled to a fixed
reference pace.

The benchmark's host is a shared VM whose speed swings by up to 2x, over
spells from seconds to minutes, with process CPU time swinging along with
wall time, so neither clock alone separates the program's cost from the
machine's state.  A Pacer samples the speed of the worker's own core: a
block of probes right after set-up, a SIGALRM every INTERVAL_S while the
operations run, and a block at the end.  A probe is fixed work that uses
no hilmod code, half interpreted Python and half elementwise numpy.  A
window's time at the reference pace is its wall time, less the probes
inside it, times REF_PROBE_S over the mean probe time in the window: the
time it would have taken on a machine where one probe takes REF_PROBE_S.
The mean, not the median, so that time the host takes from the process
counts against the probe as it does against the program.
"""

from __future__ import annotations

import bisect
import cmath
import signal
import time

import numpy as np

REF_PROBE_S = 0.002     # the reference pace: one probe per 2 ms
INTERVAL_S = 0.05       # one probe per 50 ms while operations run (about 4%)
BLOCK = 16              # probes in the blocks after set-up and at the end
MIN_PROBES = 12         # probes a window's pace rests on, borrowing the nearest ones

_GRID = np.linspace(0.0, 4.0, 1 << 13)
_SCRATCH = np.empty((2, 1 << 13))      # the probe's work space, reused by every probe


def probe() -> float:
    """Fixed work: complex special functions and integer arithmetic in
    Python loops, then elementwise numpy over 8k points into a buffer
    allocated once, so that the allocator's state plays no part."""
    acc, n, z = 0.0, 0, complex(0.3, 0.7)
    for k in range(1, 1000):
        acc += abs(cmath.exp(-k * 1e-3 * z) / (k + z))
        n = (n * 31 + k) & 0xFFFF
    a, b = _SCRATCH
    for c in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5):
        np.multiply(np.cosh(_GRID, out=a), -c, out=a)
        np.multiply(np.exp(a, out=a), np.cos(np.multiply(_GRID, c, out=b), out=b), out=a)
        acc += float(a.sum())
    return acc + n


class Pacer:
    """Probe samples (start, duration) of one worker process."""

    def __init__(self):
        self.starts: list[float] = []
        self.durs: list[float] = []
        self._busy = False

    def sample(self, *_):
        if self._busy:              # an alarm that lands inside a probe
            return
        self._busy = True
        t = time.perf_counter()
        probe()
        self.starts.append(t)
        self.durs.append(time.perf_counter() - t)
        self._busy = False

    def start(self) -> None:
        """Take the block that paces set-up, then probe on a timer."""
        for _ in range(3):          # first calls warm caches and allocators
            probe()
        for _ in range(BLOCK):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(BLOCK):
            self.sample()

    def setup_scale(self) -> float:
        """REF_PROBE_S over the mean probe time of the block after set-up."""
        return REF_PROBE_S * BLOCK / sum(self.durs[:BLOCK])

    def window(self, a: float, b: float) -> tuple[float, float]:
        """(wall seconds, seconds at the reference pace) of [a, b], both
        less the probes that ran inside it.  The pace is the mean probe
        time inside the window, widened to the nearest MIN_PROBES probes
        when it holds fewer."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        wall = (b - a) - sum(self.durs[lo:hi])
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.starts)):
            if hi == len(self.starts) or (lo > 0 and a - self.starts[lo - 1] < self.starts[hi] - b):
                lo -= 1
            else:
                hi += 1
        return wall, wall * REF_PROBE_S * (hi - lo) / sum(self.durs[lo:hi])
