#!/usr/bin/env python3
"""Cost of the Fourier evaluation layer: `domains.eisenstein_fourier_grid`,
`domains.eisenstein_box_average` and the scalar route
`eisenstein.eisenstein_fourier` on fixed inputs.

Times three calls:

- `grid`: the Maass-Selberg grid on Q at s = 1.5, T = 3, 24 panels of 8
  nodes per axis (the second level of `maass_selberg_numeric`);
- `box`: the box averages of the Q(sqrt 5) Rankin-Selberg check at s = 2,
  bump [2, 4], with the heights and the rule that `rankin_selberg_check`
  passes (captured from one call);
- `scalar`: one value on Q(sqrt 5) at s = 1.5+9.5i, at the heights
  1.8 e^(+-0.05) of the eisenstein-high-t benchmark points.

Each is timed with time.perf_counter, 5 repeats after one warm-up.  A further
call counts the Bessel values interpolated (`values_computed`, the arguments
passed to the `_BesselTable`) and the ones that survive the frequency cut
(`values_kept`, r per nonzero entry of the Bessel blocks), the Bessel values
of the scalar route (`bessel_values`, the arguments passed to
`bessel_k_grid`) and the divisor-sum calls (`divisor_sums`, one
`ideal_divisor_norms` per frequency).  Prints one JSON object.  Takes no
options:

    python scripts/fourier_grid_timing.py

Measured on a 2-core x86-64 host with numpy 2.4, seconds as median (min-max)
of 5 repeats in two alternating runs per side, before and after the Fourier
routes summed each pair of frequencies +-l once (Bessel values: interpolated
for grid and box, `bessel_k_grid` arguments for scalar; every value
interpolated is kept):

    case     values              divisor sums   before                 after
    grid     257,196 -> 128,598    16 ->   8    0.037 (0.031-0.067)    0.020 (0.018-0.026)
                                                0.048 (0.047-0.048)    0.028 (0.027-0.029)
    box      316,720 -> 158,360   314 -> 157    0.124 (0.032-0.156)    0.019 (0.018-0.027)
                                                0.050 (0.047-0.050)    0.030 (0.029-0.031)
    scalar       276 ->     138   138 ->  69    0.006 (0.006-0.006)    0.006 (0.004-0.006)
                                                0.010 (0.010-0.010)    0.007 (0.007-0.007)
"""

import json
import math
import pathlib
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hilmod import domains, eisenstein, equidist, fields, geometry, zeta

REPEATS = 5


def _cases():
    q = fields.make_field(0)
    ctx_q = zeta.make_context(q)
    X, Y, _ = domains._modular_domain_grid(3.0, 24)
    f5 = fields.make_field(5)
    ctx_5 = zeta.make_context(f5)
    captured = []
    box = equidist.eisenstein_box_average
    equidist.eisenstein_box_average = lambda *a: captured.append(a) or box(*a)
    try:
        equidist.rankin_selberg_check(f5, equidist.make_test_function(f5, 2.0, 4.0), 2.0, ctx_5)
    finally:
        equidist.eisenstein_box_average = box
    z = geometry.make_point(f5, (0.21, 1.8 * math.exp(0.05)), (-0.37, 1.8 * math.exp(-0.05)))
    return {"grid": (q, lambda: domains.eisenstein_fourier_grid(q, 1.5, [X], [Y], ctx_q)),
            "box": (f5, lambda: domains.eisenstein_box_average(*captured[0])),
            "scalar": (f5, lambda: eisenstein.eisenstein_fourier(f5, z, 1.5 + 9.5j, ctx=ctx_5))}


def _counts(field, call):
    """Bessel values interpolated and kept, Bessel values of the scalar
    route, and divisor-sum calls, of one call."""
    counts = dict.fromkeys(("values_computed", "values_kept", "bessel_values",
                            "divisor_sums"), 0)
    table_call, blocks = domains._BesselTable.__call__, domains._bessel_blocks
    bessel, divisors = eisenstein.bessel_k_grid, eisenstein.ideal_divisor_norms

    def counting_call(self, x):
        counts["values_computed"] += x.size
        return table_call(self, x)

    def counting_blocks(*args):
        for block in blocks(*args):
            counts["values_kept"] += field.r * int(np.count_nonzero(block[-1]))
            yield block

    def counting_bessel(order, x):
        counts["bessel_values"] += np.size(x)
        return bessel(order, x)

    def counting_divisors(*args):
        counts["divisor_sums"] += 1
        return divisors(*args)
    domains._BesselTable.__call__, domains._bessel_blocks = counting_call, counting_blocks
    eisenstein.bessel_k_grid, eisenstein.ideal_divisor_norms = counting_bessel, counting_divisors
    try:
        call()
    finally:
        domains._BesselTable.__call__, domains._bessel_blocks = table_call, blocks
        eisenstein.bessel_k_grid, eisenstein.ideal_divisor_norms = bessel, divisors
    return counts


def run():
    report = {}
    for name, (field, call) in _cases().items():
        call()  # warm-up
        times = []
        for _ in range(REPEATS):
            t = time.perf_counter()
            call()
            times.append(time.perf_counter() - t)
        report[name] = {"median_s": statistics.median(times), "min_s": min(times),
                        "max_s": max(times), **_counts(field, call)}
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    run()
