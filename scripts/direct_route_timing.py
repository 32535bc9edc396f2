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
  (coprime or not, none in 2(o x o)), their pairs per second in a loop that
  only enumerates, and the lattice pairs summed per coprime pair;
- per call: its s, its pairs, its time in seconds, and the minor page
  faults it takes (`resource.getrusage(RUSAGE_SELF).ru_minflt` before and
  after the call).

Rates, times and faults are the median, min and max of 5 repeats timed
with time.perf_counter.  Takes no options:

    python scripts/direct_route_timing.py

Measured on a 2-core x86-64 host with numpy 2.4 (a shared VM whose speed
swings), four runs per side, alternating, before and after the route
skipped the pairs in 2(o x o) and took its weights from
1 / (zeta_K(2s) (1 - N(2)^-2s)); the coprime counts are the same.  Each
entry is the median over the four runs of each run's median of 5, with
the range of those four medians.  Pairs per second:

    field      pairs  route before        after               lattice before  after  per pair before  after
    Q        5729592  1.96e7 (1.61-2.26)  2.12e7 (2.11-2.30)       9419990  7066201             1.64   1.23
    Q(s5)     490426  8.24e6 (6.43-9.45)  6.98e6 (6.55-10.7)        569006   533511             1.16   1.09
    Q(i)      491311  1.68e7 (1.18-1.79)  1.86e7 (1.67-1.96)        738963   692996             1.50   1.41

    field    enumeration before    after
    Q        1.56e8 (1.05-1.78)    1.09e8 (1.06-1.58)
    Q(s5)    1.58e7 (1.48-1.78)    1.30e7 (1.13-1.45)
    Q(i)     8.65e7 (5.77-9.27)    7.66e7 (5.54-8.13)

Per call, seconds and minor faults (the same in every run):

    field   s          seconds before          after                   faults before  after
    Q       1.5        0.0609 (0.0606-0.0737)  0.0673 (0.0454-0.0753)       290          322
    Q       2          0.0612 (0.0587-0.0731)  0.0697 (0.0516-0.0754)       290          322
    Q       1.3+0.5i   0.125 (0.110-0.135)     0.135 (0.0935-0.152)         449          481
    Q(s5)   1.5        0.0164 (0.0150-0.0255)  0.0140 (0.0136-0.0224)       678          383
    Q(s5)   2          0.0201 (0.0155-0.0233)  0.0136 (0.0133-0.0216)       648          387
    Q(s5)   1.3+0.5i   0.0297 (0.0277-0.0345)  0.0179 (0.0177-0.0224)       715          611
    Q(s5)   1.5+9.6i   0.0254 (0.0188-0.0305)  0.0180 (0.0178-0.0220)       589          619
    Q(s5)   1.5+9.3i   0.0270 (0.0200-0.0296)  0.0227 (0.0180-0.0240)       589          619
    Q(i)    1.5        0.0077 (0.0074-0.0129)  0.0077 (0.0068-0.0093)       367          251
    Q(i)    2          0.0074 (0.0072-0.0149)  0.0072 (0.0066-0.0095)       358          244
    Q(i)    1.3+0.5i   0.0133 (0.0119-0.0184)  0.0127 (0.0115-0.0149)       495          559
    Q(i)    1.5+9.6i   0.0146 (0.0133-0.0188)  0.0118 (0.0116-0.0124)       518          565
    Q(i)    1.5+9.3i   0.0155 (0.0138-0.0192)  0.0137 (0.0118-0.0150)       518          565

In these runs the host's pace swung by up to 1.7x within one side (the
parent's Q enumeration read 1.05e8 to 1.78e8 pairs per second), so the
seconds above do not resolve the change.  Alternating the two versions
call by call in one process, the Q calls took 25% less time and the
enumeration alone on Q 24% less; the paced benchmark pairs are in
BENCH_20.json.  The 32 more faults per call are the du ramp of the block
loop, 2 x 2^14 integers allocated once per call.
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
    print("%-6s  %8s  %10s  %10s  %10s  %9s  %10s  %10s  %10s  %8s"
          % ("field", "pairs", "median/s", "min/s", "max/s",
             "lattice", "median/s", "min/s", "max/s", "per pair"))
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
        route_rates, enum_rates = _rates(route), _rates(enumeration)
        print("%-6s  %8d  %10.3g  %10.3g  %10.3g  %9d  %10.3g  %10.3g  %10.3g  %8.2f"
              % ((name,) + route_rates + enum_rates + (enum_rates[0] / route_rates[0],)))
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
