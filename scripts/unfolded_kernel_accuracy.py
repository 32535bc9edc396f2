#!/usr/bin/env python3
"""Accuracy and cost of the unfolded kernel, per place-degree signature.

For Q, Q(i) and Q(sqrt 5) (signatures (1,), (2,) and (1, 1)) and the
default bump, prints the worst relative difference of
`equidist._unfolded_kernel` at orders 32 and 48 from order 96 over 60
log-uniform kappa in [1.9, 1e4], and the time of a k = 3..14 decay fit
(`time.perf_counter`, median, min and max of 5 repeats after one
untimed fit).  Takes no options:

    python scripts/unfolded_kernel_accuracy.py

Measured on a 2-core x86-64 host with numpy 2.4 (one run):

    signature   order 32   order 48   fit median s   min s    max s
    (1,)         4.6e-12    2.4e-15       0.0046     0.0045   0.0049
    (2,)         1.0e-11    7.3e-15       0.0100     0.0091   0.0140
    (1, 1)       1.0e-11    7.2e-15       0.0109     0.0066   0.0151

The nested per-place rule it replaced, timed by this script right after,
gave 6.6e-7 and 3.3e-9 on (1, 1) at 32 and 48 nodes per axis, and its
k = 3..14 fits took 0.0070, 0.0096 and 0.1718 s.  The fits are timed
before the kernel arrays of order 96 are built: after them, in the same
process, the first field's fit took up to 3x longer with the same code.
"""

import pathlib
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hilmod.equidist import _unfolded_kernel, decay_exponent_fit, make_test_function
from hilmod.fields import make_field
from hilmod.zeta import make_context

FIELDS = (0, -1, 5)
KAPPAS = np.geomspace(1.9, 1e4, 60)
REPEATS = 5


def run():
    print("%-10s  %9s  %9s  %12s  %7s  %7s"
          % ("signature", "order 32", "order 48", "fit median s", "min s", "max s"))
    for d in FIELDS:
        field = make_field(d)
        f = make_test_function(field)
        degrees = field.place_degrees
        ctx = make_context(field)
        decay_exponent_fit(f, field, 3, 14, ctx)  # fills the totient and GL caches
        times = []
        for _ in range(REPEATS):
            t = time.perf_counter()
            decay_exponent_fit(f, field, 3, 14, ctx)
            times.append(time.perf_counter() - t)
        ref = _unfolded_kernel(f, KAPPAS, degrees, 96)
        live = ref != 0.0
        worst = [float(np.max(np.abs(_unfolded_kernel(f, KAPPAS, degrees, order)[live]
                                     - ref[live]) / np.abs(ref[live])))
                 for order in (32, 48)]
        print("%-10s  %9.1e  %9.1e  %12.4f  %7.4f  %7.4f"
              % (str(degrees), worst[0], worst[1], statistics.median(times),
                 min(times), max(times)))


if __name__ == "__main__":
    run()
