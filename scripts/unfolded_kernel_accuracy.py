#!/usr/bin/env python3
"""Accuracy and size of the unfolded kernel, per place-degree signature.

For Q, Q(i) and Q(sqrt 5) (signatures (1,), (2,) and (1, 1)) and the
default bump, at the depth of the benchmark's decay fits (`perfbench`
equidist: k = 2..20 on Q and Q(i), 2..11 on Q(sqrt 5)), prints the kernel
rows of each order (one per ideal norm n <= 1/sqrt(q t0) of each height),
the kappa that `equidist._unfolded_kernel` evaluates per order, and the
worst relative difference of the kernel at orders 32 and 48 from order 96
over 60 log-uniform kappa in [1.9, 1e4].  `scripts/layer_timing.py` times
the kernel, the decay fits and the Mellin transform's defining integral.
Takes no options:

    python scripts/unfolded_kernel_accuracy.py

Measured on a 2-core x86-64 host with numpy 2.4:

    signature   k         rows  kappa   order 32   order 48
    (1,)        2..20     2590   1302    4.6e-12    2.4e-15
    (2,)        2..20     2590   1302    1.0e-11    7.3e-15
    (1, 1)      2..11      105     56    1.0e-11    7.2e-15

On the dyadic grid kappa(2n, q/4) = kappa(n, q) exactly, so a deep fit
holds each kappa about twice, and the kernel evaluates each distinct kappa
once.  The nested per-place rule the one-dimensional kernel replaced gave
6.6e-7 and 3.3e-9 on (1, 1) at 32 and 48 nodes per axis.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hilmod import equidist
from hilmod.equidist import decay_exponent_fit, make_test_function
from hilmod.fields import make_field
from hilmod.zeta import make_context

FIELDS = (0, -1, 5)
FIT_K = {0: (2, 20), -1: (2, 20), 5: (2, 11)}  # perfbench's EQUIDIST_K_MAX
KAPPAS = np.geomspace(1.9, 1e4, 60)


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
    print("%-10s  %-6s  %6s  %5s  %9s  %9s"
          % ("signature", "k", "rows", "kappa", "order 32", "order 48"))
    for d in FIELDS:
        field = make_field(d)
        f = make_test_function(field)
        degrees = field.place_degrees
        ctx = make_context(field)
        k_min, k_max = FIT_K[d]
        q = 2.0 ** -np.arange(k_min, k_max + 1)
        rows = int(np.floor(1.0 / np.sqrt(q * f.t0)).sum())
        # one call per order: 32, then 20
        kappas = kernel_kappas(lambda: decay_exponent_fit(f, field, k_min, k_max, ctx))
        if len(set(kappas)) != 1:
            raise RuntimeError("orders 32 and 20 evaluated %s kappa" % (kappas,))
        ref = equidist._unfolded_kernel(f, KAPPAS, degrees, 96)
        live = ref != 0.0
        worst = [float(np.max(np.abs(equidist._unfolded_kernel(f, KAPPAS, degrees, order)[live]
                                     - ref[live]) / np.abs(ref[live])))
                 for order in (32, 48)]
        print("%-10s  %-6s  %6d  %5d  %9.1e  %9.1e"
              % ((str(degrees), "%d..%d" % (k_min, k_max), rows, kappas[0]) + tuple(worst)))


if __name__ == "__main__":
    run()
