#!/usr/bin/env python3
"""Cost of the Fourier grid layer: `domains.eisenstein_fourier_grid` and
`domains.eisenstein_box_average` on fixed inputs.

Times two calls that the identity checks make:

- `grid`: the Maass-Selberg grid on Q at s = 1.5, T = 3, 24 panels of 8
  nodes per axis (the second level of `maass_selberg_numeric`);
- `box`: the box averages of the Q(sqrt 5) Rankin-Selberg check at s = 2,
  bump [2, 4], with the heights and the rule that `rankin_selberg_check`
  passes (captured from one call).

Each is timed with time.perf_counter, 5 repeats after one warm-up.  A further
call counts the Bessel values interpolated (`values_computed`, the arguments
passed to the `_BesselTable`) and the ones that survive the frequency cut
(`values_kept`, r per nonzero entry of the Bessel blocks).  Prints one JSON
object.  Takes no options:

    python scripts/fourier_grid_timing.py

Measured on a 2-core x86-64 host with numpy 2.4, seconds as median (min-max)
of 5 repeats in two alternating runs per side, before and after the kernel
interpolated and phased only the entries at or below the cut (values
computed before -> after; the values kept are the same):

    case   computed             kept     before                 after
    grid     589,824 ->  257,196  257,196  0.085 (0.083-0.086)    0.037 (0.035-0.038)
                                           0.082 (0.080-0.083)    0.049 (0.048-0.050)
    box    1,266,048 ->  316,720  316,720  0.121 (0.120-0.164)    0.042 (0.038-0.051)
                                           0.168 (0.165-0.169)    0.052 (0.050-0.053)
"""

import json
import pathlib
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hilmod import domains, equidist, fields, zeta

REPEATS = 5


def _cases():
    q = fields.make_field(0)
    ctx_q = zeta.make_context(q)
    X, Y, _ = domains._modular_domain_grid(3.0, 24, 24)
    f5 = fields.make_field(5)
    ctx_5 = zeta.make_context(f5)
    captured = []
    box = equidist.eisenstein_box_average
    equidist.eisenstein_box_average = lambda *a: captured.append(a) or box(*a)
    try:
        equidist.rankin_selberg_check(f5, equidist.make_test_function(f5, 2.0, 4.0), 2.0, ctx_5)
    finally:
        equidist.eisenstein_box_average = box
    return {"grid": (q, lambda: domains.eisenstein_fourier_grid(q, 1.5, [X], [Y], ctx_q)),
            "box": (f5, lambda: domains.eisenstein_box_average(*captured[0]))}


def _counts(field, call):
    """Bessel values interpolated and kept by one call."""
    computed, kept = [0], [0]
    table_call, blocks = domains._BesselTable.__call__, domains._bessel_blocks

    def counting_call(self, x):
        computed[0] += x.size
        return table_call(self, x)

    def counting_blocks(*args):
        for block in blocks(*args):
            kept[0] += field.r * int(np.count_nonzero(block[-1]))
            yield block
    domains._BesselTable.__call__, domains._bessel_blocks = counting_call, counting_blocks
    try:
        call()
    finally:
        domains._BesselTable.__call__, domains._bessel_blocks = table_call, blocks
    return computed[0], kept[0]


def run():
    report = {}
    for name, (field, call) in _cases().items():
        call()  # warm-up
        times = []
        for _ in range(REPEATS):
            t = time.perf_counter()
            call()
            times.append(time.perf_counter() - t)
        computed, kept = _counts(field, call)
        report[name] = {"median_s": statistics.median(times), "min_s": min(times),
                        "max_s": max(times), "values_computed": computed,
                        "values_kept": kept, "kept_share": kept / computed}
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    run()
