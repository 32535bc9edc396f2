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
q = 0.0070), on x86-64 with numpy 2.4.
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
            errs, spent = [], 0.0
            for q in QS:
                a = cusp_section_average(f, q, field, method="unfolded")
                t = time.perf_counter()
                b = cusp_section_average(f, q, field, nodes=NODES, method="horoball")
                spent += time.perf_counter() - t
                errs.append(abs(a - b))
            j = int(np.argmax(errs))
            print("%4d  %-10s  %10.3e  %8.4f  %8.2f"
                  % (d, "%g-%g" % bump, errs[j], QS[j], spent))
            worst = max(worst, (errs[j], (d, bump, QS[j])))
    d, bump, q = worst[1]
    print("worst %.3e at d = %d, bump %s, q = %.4f" % (worst[0], d, bump, q))


if __name__ == "__main__":
    run()
