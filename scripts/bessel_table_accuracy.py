#!/usr/bin/env python3
"""Accuracy and size of the Bessel table of the Fourier grid and box averages.

For each order, builds `domains._BesselTable` over [0.05, 45 + |Im order|]
(the arguments a Fourier grid at heights near 1 keeps, up to the frequency
cut) and prints its size and its worst relative error
against `specfun.bessel_k_grid` at 4,000 log-uniform arguments, next to
the error model (|order| du)^6 / 200.  `scripts/layer_timing.py` times
the tables that the benchmark's grids and box averages build.  Takes no
options:

    python scripts/bessel_table_accuracy.py

Measured on a 2-core x86-64 host with numpy 2.4:

    order      points  max rel err     model
    0.5           223      7.6e-14   7.2e-14
    1.5           332      4.3e-12   4.6e-12
    3             659      4.3e-12   4.6e-12
    1+10i        2258      4.5e-12   4.6e-12
    1+20i        4600      4.5e-12   4.7e-12
    1+50i       12087      4.8e-12   4.7e-12
    2+100i      25522      4.9e-12   4.7e-12

The linear interpolant it replaced had 16,384 points at every order; over
[0.05, 120 + |Im order|] it erred by 6.1e-8 at order 1.5, 3.2e-6 at 1+10i,
1.7e-5 at 1+20i and 1.3e-4 at 1+50i.
"""

import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hilmod.domains import _BesselTable
from hilmod.specfun import bessel_k_grid

ORDERS = (0.5, 1.5, 3.0, 1 + 10j, 1 + 20j, 1 + 50j, 2 + 100j)
POINTS = 4000


def run():
    print("%-8s  %7s  %11s  %8s" % ("order", "points", "max rel err", "model"))
    for order in ORDERS:
        lo, hi = 0.05, 45 + abs(complex(order).imag)
        x = np.exp(np.random.default_rng(1).uniform(math.log(lo), math.log(hi), POINTS))
        table = _BesselTable(order, lo, hi)
        exact = bessel_k_grid(order, x)
        err = float(np.max(np.abs(table(x) - exact) / np.abs(exact)))
        model = (abs(order) * table.du) ** 6 / 200
        name = "%g" % order if isinstance(order, float) else "%g%+gi" % (order.real, order.imag)
        print("%-8s  %7d  %11.1e  %8.1e" % (name, table.coef.shape[1] + 5, err, model))


if __name__ == "__main__":
    run()
