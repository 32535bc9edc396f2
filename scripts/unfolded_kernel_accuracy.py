#!/usr/bin/env python3
"""Accuracy and cost of the unfolded kernel, per place-degree signature.

For Q, Q(i) and Q(sqrt 5) (signatures (1,), (2,) and (1, 1)) prints the
time of the Mellin transform's defining integral, `mellin_transform`,
with bump [2, 4] at s = 2 (792 heights in one array call).  Then, for the
default bump, the decay fit at the benchmark's depth (`perfbench`
equidist: k = 2..20 on Q and Q(i), 2..11 on Q(sqrt 5)): the kernel rows of
each order (one per ideal norm n <= 1/sqrt(q t0) of each height), the
kappa that `equidist._unfolded_kernel` evaluates per order, the fit's
time, and the worst relative difference of the kernel at orders 32 and 48
from order 96 over 60 log-uniform kappa in [1.9, 1e4].  Times are
`time.perf_counter`, median, min and max of 5 repeats after one untimed
call.  Takes no options:

    python scripts/unfolded_kernel_accuracy.py

Measured on a 2-core x86-64 host with numpy 2.4, two runs of each side
alternating, before (the kernel evaluates every row's kappa and the bump
on all four pieces) and after (each distinct kappa once, and no bump on
the piece above t1); the first run of each:

    signature   Mellin median s    min s    max s
    before
    (1,)                 0.0105   0.0102   0.0106
    (2,)                 0.0120   0.0113   0.0123
    (1, 1)               0.0225   0.0199   0.0229
    after
    (1,)                 0.0145   0.0134   0.0152
    (2,)                 0.0123   0.0116   0.0133
    (1, 1)               0.0180   0.0167   0.0200

    signature   k         rows  kappa  fit median s   min s    max s   order 32   order 48
    before
    (1,)        2..20     2590   2590        0.0142  0.0139   0.0155    4.6e-12    2.4e-15
    (2,)        2..20     2590   2590        0.0158  0.0154   0.0163    1.0e-11    7.3e-15
    (1, 1)      2..11      105    105        0.0017  0.0016   0.0018    1.0e-11    7.2e-15
    after
    (1,)        2..20     2590   1302        0.0101  0.0081   0.0126    4.6e-12    2.4e-15
    (2,)        2..20     2590   1302        0.0085  0.0084   0.0087    1.0e-11    7.3e-15
    (1, 1)      2..11      105     56        0.0012  0.0011   0.0013    1.0e-11    7.2e-15

The second runs gave fit medians of 0.0148, 0.0160 and 0.0018 s before,
against 0.0094, 0.0097 and 0.0013 s after.  The accuracy columns are the
same bits on both sides, and so is every m_q of the fits.  On the dyadic
grid kappa(2n, q/4) = kappa(n, q) exactly, so a deep fit holds each kappa
about twice.  The Mellin heights share no kappa and gain only the skipped
piece, which this host's pace hides: over four runs of each side the
(1,) Mellin median read 0.0105-0.0163 s before and 0.0130-0.0145 s after.

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

from hilmod import equidist
from hilmod.equidist import decay_exponent_fit, make_test_function, mellin_transform
from hilmod.fields import make_field
from hilmod.zeta import make_context

FIELDS = (0, -1, 5)
FIT_K = {0: (2, 20), -1: (2, 20), 5: (2, 11)}  # perfbench's EQUIDIST_K_MAX
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


def kernel_kappas(call) -> list[int]:
    """The number of kappa of each `equidist._unfolded_kernel` call that
    call() makes."""
    kernel, sizes = equidist._unfolded_kernel, []

    def counted(f, kappa, degrees, order):
        sizes.append(np.size(kappa))
        return kernel(f, kappa, degrees, order)
    equidist._unfolded_kernel = counted
    try:
        call()
    finally:
        equidist._unfolded_kernel = kernel
    return sizes


def run():
    print("%-10s  %15s  %7s  %7s" % ("signature", "Mellin median s", "min s", "max s"))
    for d in FIELDS:
        field = make_field(d)
        f = make_test_function(field, 2.0, 4.0)
        ctx = make_context(field)
        print("%-10s  %15.4f  %7.4f  %7.4f"
              % ((str(field.place_degrees),)
                 + timed(lambda: mellin_transform(f, 2.0, field, ctx))))
    print("%-10s  %-6s  %6s  %5s  %12s  %6s  %7s  %9s  %9s"
          % ("signature", "k", "rows", "kappa", "fit median s", "min s", "max s",
             "order 32", "order 48"))
    for d in FIELDS:
        field = make_field(d)
        f = make_test_function(field)
        degrees = field.place_degrees
        ctx = make_context(field)
        k_min, k_max = FIT_K[d]

        def fit():
            return decay_exponent_fit(f, field, k_min, k_max, ctx)
        q = 2.0 ** -np.arange(k_min, k_max + 1)
        rows = int(np.floor(1.0 / np.sqrt(q * f.t0)).sum())
        kappas = kernel_kappas(fit)  # one call per order: 32, then 20
        if len(set(kappas)) != 1:
            raise RuntimeError("orders 32 and 20 evaluated %s kappa" % (kappas,))
        times = timed(fit)
        ref = equidist._unfolded_kernel(f, KAPPAS, degrees, 96)
        live = ref != 0.0
        worst = [float(np.max(np.abs(equidist._unfolded_kernel(f, KAPPAS, degrees, order)[live]
                                     - ref[live]) / np.abs(ref[live])))
                 for order in (32, 48)]
        print("%-10s  %-6s  %6d  %5d  %12.4f  %6.4f  %7.4f  %9.1e  %9.1e"
              % ((str(degrees), "%d..%d" % (k_min, k_max), rows, kappas[0]) + times
                 + tuple(worst)))


if __name__ == "__main__":
    run()
