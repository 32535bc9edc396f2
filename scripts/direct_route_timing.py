#!/usr/bin/env python3
"""Pairs per second of the direct route, `eisenstein.eisenstein_direct`,
and of its pair enumeration alone, `eisenstein._pair_blocks`.

On Q, Q(sqrt 5) and Q(i), times the three direct-route evaluations of the
eisenstein-low-t benchmark workload (its norm bounds, its heights and its s
values, with x drawn from seed 11) after one warm-up, and prints per field:
the coprime pairs the route sums and its pairs per second over the three;
then the lattice pairs `_pair_blocks` yields (coprime or not) and their
pairs per second in a loop that only enumerates.  Rates are the median, min
and max of 5 repeats timed with time.perf_counter.  Takes no options:

    python scripts/direct_route_timing.py

Measured on a 2-core x86-64 host with numpy 2.4, pairs per second as the
median of 5 repeats, two runs per side (one line each), before and after
the enumerator streamed row pieces and V came from per-piece constants (the
pair counts are the same):

    field      pairs  route before  after     lattice  enumeration before  after
    Q        5729592  1.13e7        1.59e7    9419990  4.01e7              1.21e8
                      1.13e7        1.72e7             4.87e7              1.57e8
    Q(s5)     490426  4.63e6        6.98e6     569006  7.25e6              1.23e7
                      4.78e6        7.10e6             7.61e6              1.26e7
    Q(i)      491311  6.97e6        1.07e7     738963  2.19e7              6.26e7
                      6.95e6        1.25e7             2.18e7              7.28e7
"""

import pathlib
import random
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from hilmod import eisenstein, fields, geometry
from perfbench.workloads import DIRECT_BOUND, LOW_T_HEIGHTS, LOW_T_S, _reduced_point

NAMES = {0: "Q", 5: "Q(s5)", -1: "Q(i)"}
REPEATS = 5


def _point(field, z):
    return geometry.make_point(field, *[(complex(*x) if isinstance(x, list) else x, y)
                                        for x, y in z])


def _rates(timed):
    """The work count of timed() and the median, min and max of work per
    second over REPEATS calls."""
    rates = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        work = timed()
        rates.append(work / (time.perf_counter() - t))
    return work, statistics.median(rates), min(rates), max(rates)


def run():
    print("%-6s  %8s  %10s  %10s  %10s  %9s  %10s  %10s  %10s"
          % ("field", "pairs", "median/s", "min/s", "max/s",
             "lattice", "median/s", "min/s", "max/s"))
    for d, name in NAMES.items():
        field = fields.make_field(d)
        inf = geometry.cusp_infinity(field)
        rng = random.Random(11)
        calls = [(_point(field, _reduced_point(d, rng, h)),
                  eisenstein.EisensteinParams(s=s, norm_bound=DIRECT_BOUND[d]))
                 for s, h in zip(LOW_T_S, LOW_T_HEIGHTS)]

        def route():
            return sum(eisenstein.eisenstein_direct(field, inf, z, params, return_parts=True)[3]
                       for z, params in calls)

        def enumeration():
            return sum(V.size for z, params in calls
                       for V, _ in eisenstein._pair_blocks(field, z,
                                                           params.norm_bound * z.ny(field)))
        route()  # warm-up: field caches and Moebius sums
        print("%-6s  %8d  %10.3g  %10.3g  %10.3g  %9d  %10.3g  %10.3g  %10.3g"
              % ((name,) + _rates(route) + _rates(enumeration)))


if __name__ == "__main__":
    run()
