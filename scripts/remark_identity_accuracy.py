#!/usr/bin/env python3
"""Residual, size and memory of the closed-form remark identity.

For d = 0, 5, -1, 2, -3 and 13, at s' = 2 and T = 3, prints one JSON record
per field: the relative residual |lhs - rhs| / |rhs| of
`remark_identity_check`, the number of cusp classes it enumerates and of
their distinct norms, its tracemalloc peak (with an empty class cache, so
the enumeration counts too), and the residual with q_lo = q_hi / 1e3 and
q_hi / 1e5 in place of the default q_hi / 1e4 (`domains._Q_LO`).
`scripts/layer_timing.py` times the identity on the benchmark's fields.
Takes no options:

    python scripts/remark_identity_accuracy.py

Measured on a 2-core x86-64 host with numpy 2.4:

    d    residual  classes  norms  peak MiB  q_lo 1e3  q_lo 1e5
    0    2.45e-09  3004     99     0.46      4.9e-08   6.8e-12
    5    3.39e-09  1844     28     0.56      1.8e-07   5.6e-12
    -1   4.90e-09  2488     42     0.73      8.2e-08   1.5e-11
    2    2.23e-09  2256     38     0.87      1.1e-07   8.5e-11
    -3   1.26e-10  2328     35     1.02      3.2e-08   8.8e-12
    13   8.50e-10  2084     29     0.82      1.0e-07   4.3e-11

The residual follows q_lo^(s'-1), the order of the error of extending V_T
below q_lo by its value there, up to a factor that moves with q_lo.
"""

import json
import pathlib
import sys
import tracemalloc

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hilmod import domains
from hilmod.fields import make_field
from hilmod.zeta import make_context

FIELDS = (0, 5, -1, 2, -3, 13)
SPRIME, T = 2.0, 3.0


def residual(field, ctx) -> float:
    lhs, rhs = domains.remark_identity_check(field, SPRIME, T, ctx)
    return abs(lhs - rhs) / abs(rhs)


def run():
    default = domains._Q_LO
    records = []
    for d in FIELDS:
        field = make_field(d)
        ctx = make_context(field)
        resid = residual(field, ctx)  # also warms the zeta context and the imports
        domains._cusp_classes.cache_clear()
        tracemalloc.start()
        residual(field, ctx)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        _, norms, counts = domains._cusp_classes(field, default / T, T)
        ratios = {}
        for ratio in (1e3, 1e5):
            domains._Q_LO = 1.0 / ratio
            try:
                ratios["%g" % ratio] = "%.2e" % residual(field, ctx)
            finally:
                domains._Q_LO = default
        records.append({
            "d": d, "residual": "%.2e" % resid, "classes": int(counts.sum()),
            "norms": int(norms.size), "peak_mib": round(peak / 2 ** 20, 2),
            "residual_at_q_lo_ratio": ratios})
    print(json.dumps(records, indent=1))


if __name__ == "__main__":
    run()
