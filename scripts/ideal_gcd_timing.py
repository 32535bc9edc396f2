#!/usr/bin/env python3
"""Cost of the ideal gcd generator and of the cusp normal form.

Times `fields.ideal_gcd_generator(x, y)` and `geometry.make_cusp(x, y)` with
x = m(3 + omega) and y = m(5 + 2 omega), whose ideal is (m), at m = 11, 41,
101, 10^3 and 10^4 on Q(sqrt 5) and Q(sqrt -3), after one untimed call.
Prints JSON: per field and m, the median, min and max in ms of 5 calls
timed with time.perf_counter, and the generator found.  Takes no options:

    python scripts/ideal_gcd_timing.py

Measured on a 2-core x86-64 host with numpy 2.4, in ms: the median (min-max)
of 5 in one run of the script, then the median of a second run.  The
generator is m itself:

    field        m      ideal_gcd_generator        make_cusp
    Q(sqrt 5)    11     0.30 (0.29-4.39), 0.30     0.84 (0.77-0.85), 0.79
                 41     0.27 (0.27-0.33), 0.27     0.80 (0.78-0.84), 0.78
                 101    0.27 (0.27-0.30), 0.26     0.78 (0.77-0.81), 0.77
                 10^3   0.27 (0.27-0.33), 0.28     0.78 (0.76-0.82), 0.75
                 10^4   0.27 (0.27-0.28), 0.26     0.78 (0.77-0.86), 0.76
    Q(sqrt -3)   11     0.23 (0.22-0.24), 0.22     0.69 (0.66-0.70), 0.66
                 41     0.22 (0.22-0.28), 0.22     0.66 (0.65-0.73), 0.64
                 101    0.22 (0.22-0.24), 0.22     0.67 (0.67-0.68), 0.64
                 10^3   0.22 (0.22-0.22), 0.22     0.67 (0.66-0.77), 0.66
                 10^4   0.22 (0.22-0.23), 0.22     0.69 (0.68-0.74), 0.64

The host's speed moves by up to 2x between runs; the times stay flat in m.
The hand-written box search that the ball search replaced (kept as a test
oracle, tests/oracles.py) grew with the norm m^2.  On the same host, median
(min-max) of 5 at m = 11, 41 and 101: Q(sqrt 5) 13.3 (12.4-13.4), 89.7
(87.6-96.1) and 787 (619-901) ms; Q(sqrt -3) 6.1 (5.9-6.5), 68.4
(66.9-71.5) and 444 (409-638) ms.  make_cusp took about as long.
"""

import json
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hilmod import fields, geometry

M_VALUES = (11, 41, 101, 10 ** 3, 10 ** 4)
REPEATS = 5


def _timed(fn):
    fn()
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        out = fn()
        times.append(1e3 * (time.perf_counter() - t))
    return out, {"median_ms": statistics.median(times), "min_ms": min(times),
                 "max_ms": max(times)}


def main():
    rows = []
    for d in (5, -3):
        field = fields.make_field(d)
        for m in M_VALUES:
            x, y = field.from_ring_coords(3 * m, m), field.from_ring_coords(5 * m, 2 * m)
            g, gcd_t = _timed(lambda: fields.ideal_gcd_generator(x, y, field))
            _, cusp_t = _timed(lambda: geometry.make_cusp(field, x, y))
            rows.append({"d": d, "m": m, "generator": list(g.ring_coords()),
                         "ideal_gcd_generator": gcd_t, "make_cusp": cusp_t})
    print(json.dumps(rows, indent=1))


if __name__ == "__main__":
    main()
