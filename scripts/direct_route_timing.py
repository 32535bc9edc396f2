#!/usr/bin/env python3
"""Pairs per second of the direct route, `eisenstein.eisenstein_direct`,
and of its pair enumeration alone, `eisenstein._pair_blocks`; and the time
and minor page faults of each direct-route call.

On Q, Q(sqrt 5) and Q(i), takes the three direct-route evaluations of the
eisenstein-low-t benchmark workload (its norm bounds, its heights and its s
values, with x drawn from seed 11), and on Q(sqrt 5) and Q(i) the two of
the eisenstein-high-t workload (its heights, s = 1.5 + it with t drawn in
[9, 10] from the same generator).  After one warm-up it prints two tables:

- per field, over the low-t calls: the coprime pairs the route sums and
  its pairs per second; then the lattice pairs `_pair_blocks` yields
  (coprime or not) and their pairs per second in a loop that only
  enumerates;
- per call: its s, its pairs, its time in seconds, and the minor page
  faults it takes (`resource.getrusage(RUSAGE_SELF).ru_minflt` before and
  after the call).

Rates, times and faults are the median, min and max of 5 repeats timed
with time.perf_counter.  Takes no options:

    python scripts/direct_route_timing.py

Measured on a 2-core x86-64 host with numpy 2.4 (a shared VM whose speed
swings), two runs per side, before and after the block loop ran in one
workspace per call, with 2^14 candidates per block (2^16 before) and the
phase of V^-s at complex s from `specfun.exp_real_times`; the pair counts
are the same.  Pairs per second, median of 5, runs 1 and 2:

    field      pairs  route before     after           lattice  enumeration before  after
    Q        5729592  2.20e7 2.32e7    2.47e7 2.71e7   9419990  1.99e8 2.07e8       1.63e8 1.66e8
    Q(s5)     490426  7.80e6 1.10e7    1.05e7 1.10e7    569006  1.84e7 1.96e7       2.07e7 1.95e7
    Q(i)      491311  1.63e7 1.71e7    2.13e7 2.00e7    738963  9.13e7 8.98e7       9.10e7 8.63e7

Per call, seconds (median of 5, runs 1 and 2) and minor faults (median of
5, the same in both runs; the parent's Q calls ranged 747-864 and
6133-7937):

    field   s          seconds before   after           faults before  after
    Q       1.5        0.0542 0.0519    0.0529 0.0526      864          259
    Q       2          0.0502 0.0491    0.0530 0.0545      864          259
    Q       1.3+0.5i   0.2017 0.1354    0.1104 0.1050     6730          418
    Q(s5)   1.5        0.0148 0.0151    0.0136 0.0132     2285          613
    Q(s5)   2          0.0136 0.0129    0.0129 0.0148     1634          553
    Q(s5)   1.3+0.5i   0.0203 0.0173    0.0170 0.0181     1194          634
    Q(s5)   1.5+9.6i   0.0198 0.0210    0.0166 0.0186     1540          623
    Q(s5)   1.5+9.3i   0.0219 0.0200    0.0162 0.0171     1213          623
    Q(i)    1.5        0.0080 0.0073    0.0063 0.0066     1069          336
    Q(i)    2          0.0068 0.0068    0.0061 0.0064      797          327
    Q(i)    1.3+0.5i   0.0146 0.0150    0.0103 0.0113     1568          479
    Q(i)    1.5+9.6i   0.0162 0.0158    0.0109 0.0114     1589          487
    Q(i)    1.5+9.3i   0.0163 0.0166    0.0107 0.0129     1590          487
"""

import pathlib
import random
import resource
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from hilmod import eisenstein, fields, geometry
from perfbench.workloads import (DIRECT_BOUND, HIGH_T_HEIGHTS, LOW_T_HEIGHTS, LOW_T_S,
                                 _reduced_point)

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


def _call_cost(call):
    """The median, min and max over REPEATS calls of call()'s seconds and of
    the minor page faults it takes."""
    seconds, faults = [], []
    for _ in range(REPEATS):
        f = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - t)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f)
    return [(statistics.median(v), min(v), max(v)) for v in (seconds, faults)]


def _s_text(s):
    s = complex(s)
    return "%g" % s.real if s.imag == 0 else "%g%+.1fi" % (s.real, s.imag)


def run():
    rows = []
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
        high = [(_point(field, _reduced_point(d, rng, h)),
                 eisenstein.EisensteinParams(s=complex(1.5, rng.uniform(9.0, 10.0)),
                                             norm_bound=DIRECT_BOUND[d]))
                for h in HIGH_T_HEIGHTS.get(d, ())]

        def pairs(z, params):
            return eisenstein.eisenstein_direct(field, inf, z, params, return_parts=True)[3]

        def route():
            return sum(pairs(z, params) for z, params in calls)

        def enumeration():
            return sum(V.size for z, params in calls
                       for V, _ in eisenstein._pair_blocks(field, z,
                                                           params.norm_bound * z.ny(field)))
        route()  # warm-up: field caches and Moebius sums
        print("%-6s  %8d  %10.3g  %10.3g  %10.3g  %9d  %10.3g  %10.3g  %10.3g"
              % ((name,) + _rates(route) + _rates(enumeration)))
        for z, params in calls + high:
            count = pairs(z, params)  # warm-up of this call
            rows.append((name, _s_text(params.s), count)
                        + tuple(_call_cost(lambda: pairs(z, params))))
    print()
    print("%-6s  %-9s  %8s  %9s  %9s  %9s  %7s  %7s  %7s"
          % ("field", "s", "pairs", "median s", "min s", "max s",
             "faults", "min", "max"))
    for name, s, count, seconds, faults in rows:
        print("%-6s  %-9s  %8d  %9.4f  %9.4f  %9.4f  %7d  %7d  %7d"
              % ((name, s, count) + seconds + faults))


if __name__ == "__main__":
    run()
