#!/usr/bin/env python3
"""Accuracy sweep of the horoball route of the cusp-section average.

For nine fields (d = 0, 5, -1, 2, 3, -2, -3, -7, 13), two bumps ([1.8, 2.8]
and [2.5, 3.5], default shoulders) and 40 heights q in geomspace(0.004, 0.3),
prints the worst |horoball - unfolded| / |unfolded| per field and bump and
the q where it occurs.  The horoball route sums the unfolded kernel over the
cusps' own classes, the unfolded route over the ideal totient sums, so this
checks the class counts against the sieve and the two sums' rounding.
`scripts/layer_timing.py` times the route and its class enumeration at the
benchmark's heights.  Takes no options:

    python scripts/horoball_accuracy.py

Measured on a 2-core x86-64 host with numpy 2.4: worst relative difference
3.95e-16 (Q, bump [1.8, 2.8], q = 0.0097); per field and bump it is
2.0e-16 to 4.0e-16.

The box quadrature that this route replaced (kept as a test oracle,
tests/oracles.py) was within 4.86e-4 absolute over the same sweep and took
0.03-4.2 s per field and bump.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hilmod.equidist import cusp_section_average, make_test_function
from hilmod.fields import make_field

FIELDS = (0, 5, -1, 2, 3, -2, -3, -7, 13)
BUMPS = ((1.8, 2.8), (2.5, 3.5))
QS = np.geomspace(0.004, 0.3, 40)


def run():
    worst = (0.0, None)
    print("%4s  %-8s  %10s  %8s" % ("d", "bump", "max rel", "at q"))
    for d in FIELDS:
        field = make_field(d)
        for bump in BUMPS:
            f = make_test_function(field, *bump)
            b = cusp_section_average(f, QS, field, method="horoball")
            a = cusp_section_average(f, QS, field, method="unfolded")
            errs = np.abs(a - b) / np.abs(a)
            j = int(np.argmax(errs))
            print("%4d  %-8s  %10.3e  %8.4f" % (d, "%g-%g" % bump, errs[j], QS[j]))
            worst = max(worst, (errs[j], (d, bump, QS[j])))
    d, bump, q = worst[1]
    print("worst %.3e at d = %d, bump %s, q = %.4f" % (worst[0], d, bump, q))


if __name__ == "__main__":
    run()
