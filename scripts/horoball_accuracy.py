#!/usr/bin/env python3
"""Accuracy and cost sweep of the horoball route of the cusp-section average.

For nine fields (d = 0, 5, -1, 2, 3, -2, -3, -7, 13), two bumps ([1.8, 2.8]
and [2.5, 3.5], default shoulders) and 40 heights q in geomspace(0.004, 0.3),
prints the worst |horoball - unfolded| / |unfolded| per field and bump, the
q where it occurs, and the time of the horoball route over the 40 heights
(median, min and max of 5 runs, each with an empty class cache, so the class
enumeration is timed too).  The horoball route sums the unfolded kernel over
the cusps' own classes, the unfolded route over the ideal totient sums, so
this checks the class counts against the sieve and the two sums' rounding.
Takes no options:

    python scripts/horoball_accuracy.py

Measured on a 2-core x86-64 host with numpy 2.4: worst relative difference
3.95e-16 (Q, bump [1.8, 2.8], q = 0.0097); per field and bump it is
2.0e-16 to 4.0e-16.  Time of the 40 heights in ms, median (min-max) of 5
runs, in two runs of the script (the host's speed moved between them):

    d     bump [1.8, 2.8]                bump [2.5, 3.5]
    0     26.7 (18.0-33.4), 27.9         27.5 (17.9-37.5), 27.0
    5     38.1 (25.7-45.8), 37.2         24.8 (24.3-42.2), 38.4
    -1    23.1 (21.1-24.3), 30.8         22.4 (21.0-34.6), 30.9
    2     36.5 (24.2-42.8), 37.7         37.3 (23.7-43.4), 36.3
    3     29.8 (25.4-34.5), 37.7         40.6 (30.4-45.7), 36.5
    -2    20.2 (19.7-24.2), 30.5         36.8 (23.7-37.3), 30.5
    -3    20.3 (19.9-21.0), 32.1         19.9 (19.5-32.5), 30.8
    -7    20.3 (19.9-23.9), 31.9         20.6 (20.0-25.7), 30.1
    13    28.4 (24.1-30.8), 37.2         25.2 (24.4-35.2), 37.4

The whole script takes about 3 s.

The box quadrature that this route replaced (kept as a test oracle,
tests/oracles.py) was within 4.86e-4 absolute over the same sweep and took
0.03-4.2 s per field and bump; the whole script took 23.4 s.
"""

import pathlib
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hilmod import domains
from hilmod.equidist import cusp_section_average, make_test_function
from hilmod.fields import make_field

FIELDS = (0, 5, -1, 2, 3, -2, -3, -7, 13)
BUMPS = ((1.8, 2.8), (2.5, 3.5))
QS = np.geomspace(0.004, 0.3, 40)
REPEATS = 5


def run():
    worst = (0.0, None)
    print("%4s  %-8s  %10s  %8s  %s" % ("d", "bump", "max rel", "at q", "time ms median (min-max)"))
    for d in FIELDS:
        field = make_field(d)
        for bump in BUMPS:
            f = make_test_function(field, *bump)
            times = []
            for _ in range(REPEATS):
                domains._cusp_classes.cache_clear()
                t = time.perf_counter()
                b = cusp_section_average(f, QS, field, method="horoball")
                times.append(time.perf_counter() - t)
            a = cusp_section_average(f, QS, field, method="unfolded")
            errs = np.abs(a - b) / np.abs(a)
            j = int(np.argmax(errs))
            print("%4d  %-8s  %10.3e  %8.4f  %.1f (%.1f-%.1f)"
                  % (d, "%g-%g" % bump, errs[j], QS[j], 1e3 * statistics.median(times),
                     1e3 * min(times), 1e3 * max(times)))
            worst = max(worst, (errs[j], (d, bump, QS[j])))
    d, bump, q = worst[1]
    print("worst %.3e at d = %d, bump %s, q = %.4f" % (worst[0], d, bump, q))


if __name__ == "__main__":
    run()
