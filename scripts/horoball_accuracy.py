#!/usr/bin/env python3
"""Accuracy sweep of the horoball route of the cusp-section average.

For nine fields (d = 0, 5, -1, 2, 3, -2, -3, -7, 13), two bumps ([1.8, 2.8]
and [2.5, 3.5], default shoulders) and 40 heights q in geomspace(0.004, 0.3),
prints the worst |horoball - unfolded| per field and bump, the q where it
occurs, and the time per field of the horoball evaluations.  The unfolded
route is exact up to its kernel quadrature, so this measures the horoball
quadrature.  Takes no options:

    python scripts/horoball_accuracy.py

Measured worst error over the sweep: 4.86e-4 (Q(sqrt 13), bump [2.5, 3.5],
q = 0.0070), on x86-64 with numpy 2.4.  Time per field of the horoball
evaluations, bumps [1.8, 2.8] and [2.5, 3.5], two runs on a 2-core x86-64
host: Q 0.03-0.06 and 0.03-0.06 s; Q(sqrt 5) 2.8-2.9 and 2.0-2.2 s; Q(i)
1.2-1.3 and 0.9 s; Q(sqrt 2) 3.4-3.5 and 2.5-2.7 s; Q(sqrt 3) 3.9-4.2 and
2.5-3.0 s; Q(sqrt -2) 1.0-1.1 and 0.7 s; Q(sqrt -3) 0.8 and 0.5-0.6 s;
Q(sqrt -7) 1.1-1.2 and 0.8-0.9 s; Q(sqrt 13) 3.0-3.4 and 2.2-2.6 s.  On the
imaginary fields the time also moves by up to 30% with the process's
earlier allocations, through minor page faults.
"""

import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hilmod.equidist import cusp_section_average, make_test_function
from hilmod.fields import make_field

FIELDS = (0, 5, -1, 2, 3, -2, -3, -7, 13)
BUMPS = ((1.8, 2.8), (2.5, 3.5))
QS = np.geomspace(0.004, 0.3, 40)
NODES = 20  # the nodes per panel of the tests and the benchmark


def run():
    worst = (0.0, None)
    print("%4s  %-10s  %10s  %8s  %8s" % ("d", "bump", "max err", "at q", "time s"))
    for d in FIELDS:
        field = make_field(d)
        for bump in BUMPS:
            f = make_test_function(field, *bump)
            t = time.perf_counter()
            b = cusp_section_average(f, QS, field, nodes=NODES, method="horoball")
            spent = time.perf_counter() - t
            errs = np.abs(cusp_section_average(f, QS, field, method="unfolded") - b)
            j = int(np.argmax(errs))
            print("%4d  %-10s  %10.3e  %8.4f  %8.2f"
                  % (d, "%g-%g" % bump, errs[j], QS[j], spent))
            worst = max(worst, (errs[j], (d, bump, QS[j])))
    d, bump, q = worst[1]
    print("worst %.3e at d = %d, bump %s, q = %.4f" % (worst[0], d, bump, q))


if __name__ == "__main__":
    run()
