#!/usr/bin/env python3
"""Pairs per second of the direct route, `eisenstein.eisenstein_direct`,
and of its pair enumeration alone, `eisenstein._pair_blocks`; and the time
and minor page faults of each direct-route call.

On Q, Q(sqrt 5) and Q(i), takes the three direct-route evaluations of the
eisenstein-low-t benchmark workload (its norm bounds, its heights and its s
values, with x drawn from seed 11), and on Q(sqrt 5) and Q(i) the two of
the eisenstein-high-t workload (its heights, s = 1.5 + it with t drawn in
[9, 10] from the same generator).  After one warm-up it prints three tables:

- per field, over the low-t calls: the coprime pairs the route sums and
  its pairs per second; then the lattice pairs `_pair_blocks` yields
  (coprime or not, none in 2(o x o)), their pairs per second in a loop that
  only enumerates, and the lattice pairs summed per coprime pair;
- per field, over the same calls, counts that repeat exactly: the lattice
  pairs, the pairs `eisenstein._lattice_pairs` predicts from the bounds
  alone, and the pairs at or below the route's cut BV / m0^2, which take
  their Moebius weights from the tables, with their share of the lattice
  pairs (the rest have weight 1);
- per call: its s, its pairs, its time in seconds, and the minor page
  faults it takes (`resource.getrusage(RUSAGE_SELF).ru_minflt` before and
  after the call).

Rates, times and faults are the median, min and max of 5 repeats timed
with time.perf_counter.  Takes no options:

    python scripts/direct_route_timing.py

Measured on a 2-core x86-64 host with numpy 2.4 (a shared VM whose speed
swings), four runs per side, alternating, before and after the route
looked the weights up only for the pairs at or below the cut; the pair
counts are the same.  Each entry is the median over the four runs of each
run's median of 5, with the range of those four medians.  Pairs per
second:

    field      pairs  route before        after               enumeration before    after
    Q        5729592  2.94e7 (1.95-3.24)  4.10e7 (4.04-4.25)  1.59e8 (1.55-1.74)    1.78e8 (1.62-1.83)
    Q(s5)     490426  1.03e7 (0.98-1.09)  1.15e7 (1.10-1.18)  1.80e7 (1.69-1.87)    1.77e7 (1.61-1.88)
    Q(i)      491311  1.98e7 (1.95-2.01)  1.91e7 (1.56-2.10)  8.62e7 (7.34-9.03)    8.12e7 (7.70-8.82)

The enumeration did not change; its spread is the host's.  The lattice
pairs per coprime pair are 1.23, 1.09 and 1.41.  The counts (the same in
every run):

    field     lattice   predicted    weighed   share
    Q         7066201     7068583     784583  0.1110
    Q(s5)      533511      534304      21230  0.0398
    Q(i)       692996      693957     173002  0.2496

Per call, seconds and minor faults (the same in every run):

    field   s          seconds before          after                   faults before  after
    Q       1.5        0.0447 (0.0442-0.0468)  0.0313 (0.0305-0.0328)       322          316
    Q       2          0.0483 (0.0460-0.0688)  0.0309 (0.0305-0.0333)       322          316
    Q       1.3+0.5i   0.0882 (0.0866-0.0901)  0.0748 (0.0718-0.0853)       481          477
    Q(s5)   1.5        0.0136 (0.0132-0.0144)  0.0133 (0.0125-0.0208)       383          415
    Q(s5)   2          0.0139 (0.0130-0.0139)  0.0124 (0.0121-0.0128)       385          419
    Q(s5)   1.3+0.5i   0.0183 (0.0174-0.0261)  0.0169 (0.0167-0.0289)       609          597
    Q(s5)   1.5+9.6i   0.0183 (0.0180-0.0197)  0.0175 (0.0169-0.0179)       611          605
    Q(s5)   1.5+9.3i   0.0181 (0.0173-0.0186)  0.0180 (0.0170-0.0283)       611          600
    Q(i)    1.5        0.0066 (0.0064-0.0067)  0.0063 (0.0060-0.0080)       270          264
    Q(i)    2          0.0066 (0.0065-0.0068)  0.0060 (0.0059-0.0078)       244          259
    Q(i)    1.3+0.5i   0.0118 (0.0113-0.0125)  0.0112 (0.0107-0.0137)       559          519
    Q(i)    1.5+9.6i   0.0124 (0.0117-0.0166)  0.0135 (0.0110-0.0168)       582          549
    Q(i)    1.5+9.3i   0.0119 (0.0115-0.0131)  0.0132 (0.0112-0.0172)       582          549

The three Q calls took 0.181-0.202 s a run before and 0.135-0.149 s
after (25% less in the medians).  On Q(sqrt 5) and Q(i) the changes are
within the host's swings: a quarter of the Q(i) pairs and a twenty-fifth
of the Q(sqrt 5) pairs still take the tables, and at complex s the
phases, not the weights, cost the most; the paced benchmark pairs are in
BENCH_22.json.
"""

import pathlib
import random
import resource
import statistics
import sys
import time

import numpy as np

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
    rows, counts = [], []
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

        def weighed(z, params):
            """The lattice pairs of one call at or below the route's cut."""
            ny = z.ny(field)
            cut = eisenstein._weight_tables(field, params.norm_bound, ny, params.s)[2]
            return sum(int(np.count_nonzero(V <= cut))
                       for V, _ in eisenstein._pair_blocks(field, z, params.norm_bound * ny))
        lattice = enumeration()
        table = sum(weighed(z, params) for z, params in calls)
        predicted = sum(eisenstein._lattice_pairs(field, params.norm_bound) for _, params in calls)
        counts.append((name, lattice, predicted, table, table / lattice))
        route()  # warm-up: field caches and Moebius sums
        route_rates, enum_rates = _rates(route), _rates(enumeration)
        print("%-6s  %8d  %10.3g  %10.3g  %10.3g  %9d  %10.3g  %10.3g  %10.3g  %8.2f"
              % ((name,) + route_rates + enum_rates + (enum_rates[0] / route_rates[0],)))
        for z, params in calls + high:
            count = pairs(z, params)  # warm-up of this call
            rows.append((name, _s_text(params.s), count)
                        + tuple(_call_cost(lambda: pairs(z, params))))
    print()
    print("%-6s  %9s  %10s  %9s  %6s" % ("field", "lattice", "predicted", "weighed", "share"))
    for row in counts:
        print("%-6s  %9d  %10.0f  %9d  %6.4f" % row)
    print()
    print("%-6s  %-9s  %8s  %9s  %9s  %9s  %7s  %7s  %7s"
          % ("field", "s", "pairs", "median s", "min s", "max s",
             "faults", "min", "max"))
    for name, s, count, seconds, faults in rows:
        print("%-6s  %-9s  %8d  %9.4f  %9.4f  %9.4f  %7d  %7d  %7d"
              % ((name, s, count) + seconds + faults))


if __name__ == "__main__":
    run()
