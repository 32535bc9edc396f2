#!/usr/bin/env python3
"""Pairs per second of the direct route, `eisenstein.eisenstein_direct`.

On Q, Q(sqrt 5) and Q(i), times the three direct-route evaluations of the
eisenstein-low-t benchmark workload (its norm bounds, its heights and its s
values, with x drawn from seed 11) and prints, per field, the coprime pairs
the route sums and the pairs per second over the three, as the median, min
and max of 5 repeats timed with time.perf_counter.  Takes no options:

    python scripts/direct_route_timing.py

Measured on a 2-core x86-64 host with numpy 2.4, pairs per second as median
(min-max) of one run each, before and after the Moebius-weighted sum replaced
the gcd test (the pair counts are the same):

    field      pairs   gcd test                 Moebius weights
    Q        5729592   7.12e6 (6.74e6-7.40e6)   1.27e7 (1.17e7-1.29e7)
    Q(s5)     490426   3.78e6 (3.76e6-3.91e6)   5.16e6 (4.24e6-5.39e6)
    Q(i)      491311   4.33e6 (4.30e6-4.49e6)   9.56e6 (7.95e6-1.05e7)
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


def run():
    print("%-6s  %8s  %10s  %10s  %10s" % ("field", "pairs", "median/s", "min/s", "max/s"))
    for d, name in NAMES.items():
        field = fields.make_field(d)
        inf = geometry.cusp_infinity(field)
        rng = random.Random(11)
        calls = [(_point(field, _reduced_point(d, rng, h)),
                  eisenstein.EisensteinParams(s=s, norm_bound=DIRECT_BOUND[d]))
                 for s, h in zip(LOW_T_S, LOW_T_HEIGHTS)]
        rates = []
        for _ in range(REPEATS):
            pairs, t = 0, time.perf_counter()
            for z, params in calls:
                pairs += eisenstein.eisenstein_direct(field, inf, z, params, return_parts=True)[3]
            rates.append(pairs / (time.perf_counter() - t))
        print("%-6s  %8d  %10.3g  %10.3g  %10.3g"
              % (name, pairs, statistics.median(rates), min(rates), max(rates)))


if __name__ == "__main__":
    run()
