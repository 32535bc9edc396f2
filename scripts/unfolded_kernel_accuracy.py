#!/usr/bin/env python3
"""Accuracy and cost of the unfolded kernel, per place-degree signature.

For Q, Q(i) and Q(sqrt 5) (signatures (1,), (2,) and (1, 1)) prints the
time of the defining Mellin route, `mellin_transform(method="defining")`
with bump [2, 4] at s = 2 (792 heights in one array call), then, for the
default bump, the worst relative difference of `equidist._unfolded_kernel`
at orders 32 and 48 from order 96 over 60 log-uniform kappa in [1.9, 1e4]
and the time of a k = 3..14 decay fit.  Times are `time.perf_counter`,
median, min and max of 5 repeats after one untimed call.  Takes no
options:

    python scripts/unfolded_kernel_accuracy.py

Measured on a 2-core x86-64 host with numpy 2.4 (one run):

    signature   Mellin median s    min s    max s
    (1,)                 0.0125   0.0115   0.0158
    (2,)                 0.0135   0.0131   0.0180
    (1, 1)               0.0251   0.0230   0.0265

    signature   order 32   order 48   fit median s   min s    max s
    (1,)         4.6e-12    2.4e-15       0.0030     0.0025   0.0035
    (2,)         1.0e-11    7.3e-15       0.0028     0.0028   0.0036
    (1, 1)       1.0e-11    7.2e-15       0.0048     0.0042   0.0056

Before the heights were taken as one array (one kernel call per height),
two runs alternating with two of the above gave Mellin medians of
0.127 and 0.112 s on (1,), 0.134 and 0.134 s on (2,), 0.125 and 0.136 s
on (1, 1), against 0.0125 and 0.0171, 0.0135 and 0.0185, 0.0251 and
0.0263 s after; fit medians of 0.0070 and 0.0078, 0.0071 and 0.0063,
0.0080 and 0.0086 s, against 0.0030 and 0.0036, 0.0028 and 0.0038,
0.0048 and 0.0048 s after.  The accuracy columns are the same bits.

The nested per-place rule the one-dimensional kernel replaced gave 6.6e-7
and 3.3e-9 on (1, 1) at 32 and 48 nodes per axis.  The fits are timed
before the kernel arrays of order 96 are built: after them, in the same
process, the first field's fit took up to 3x longer with the same code.
"""

import pathlib
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hilmod.equidist import (_unfolded_kernel, decay_exponent_fit, make_test_function,
                             mellin_transform)
from hilmod.fields import make_field
from hilmod.zeta import make_context

FIELDS = (0, -1, 5)
KAPPAS = np.geomspace(1.9, 1e4, 60)
REPEATS = 5


def timed(call):
    """Median, min and max of REPEATS timed calls, after one untimed call."""
    call()
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        call()
        times.append(time.perf_counter() - t)
    return statistics.median(times), min(times), max(times)


def run():
    print("%-10s  %15s  %7s  %7s" % ("signature", "Mellin median s", "min s", "max s"))
    for d in FIELDS:
        field = make_field(d)
        f = make_test_function(field, 2.0, 4.0)
        ctx = make_context(field)
        print("%-10s  %15.4f  %7.4f  %7.4f"
              % ((str(field.place_degrees),)
                 + timed(lambda: mellin_transform(f, 2.0, field, ctx, method="defining"))))
    print("%-10s  %9s  %9s  %12s  %7s  %7s"
          % ("signature", "order 32", "order 48", "fit median s", "min s", "max s"))
    for d in FIELDS:
        field = make_field(d)
        f = make_test_function(field)
        degrees = field.place_degrees
        ctx = make_context(field)
        times = timed(lambda: decay_exponent_fit(f, field, 3, 14, ctx))
        ref = _unfolded_kernel(f, KAPPAS, degrees, 96)
        live = ref != 0.0
        worst = [float(np.max(np.abs(_unfolded_kernel(f, KAPPAS, degrees, order)[live]
                                     - ref[live]) / np.abs(ref[live])))
                 for order in (32, 48)]
        print("%-10s  %9.1e  %9.1e  %12.4f  %7.4f  %7.4f"
              % ((str(degrees), worst[0], worst[1]) + times))


if __name__ == "__main__":
    run()
