#!/usr/bin/env python3
"""The cost of each layer of hilmod on fixed inputs, timed by one method.

Each record times one layer on one input: one untimed call, then REPEATS
calls timed with time.perf_counter, as the median, min and max seconds and
their spread (q3 - q1) / median, with the minor page faults of each call
(`resource.getrusage`) and the layer's work counts (pairs, values,
frequencies, classes or kappa).  `per_s` is the first work count over the
median seconds.  Wherever a benchmark workload reaches a layer, the inputs
are that workload's at seed 11 (`perfbench.workloads.make_inputs`); the
work counts come from running the layer's caller once with the layer's
calls recorded.  The class enumeration is timed with an empty
`domains._cusp_classes` cache.  Before the layers and after them, the host's
pace: `pace.BLOCK` calls of perfbench's pace probe, fixed work that uses no
hilmod code, timed the same way.

This measures what each layer costs, and what share of a route each layer
takes.  It does not resolve a change between two versions of the code: the
host's speed swings by up to 2x over spells of seconds to minutes, and these
times are not paced.  A claim that a change is faster rests on perfbench's
paced ledger (`BENCH_<n>.json`); the pace blocks here say whether a run was
taken in a slow spell.  Prints one JSON object.  Takes no options:

    python scripts/layer_timing.py
"""

import contextlib
import json
import pathlib
import resource
import statistics
import sys
import time
from collections import namedtuple

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from hilmod import domains, eisenstein, equidist, fields, geometry, specfun, zeta
from perfbench import pace
from perfbench.workloads import make_inputs

SEED = 11
REPEATS = 5
VOLUME_ARGS = (2.0, 3.0)  # s' and T of the identities workload's volume operations

Call = namedtuple("Call", "d field ctx z s bound")


def timed(call, prepare=None, repeats=REPEATS):
    """Seconds and minor page faults of call(): the median, min and max over
    `repeats` calls after one untimed call, each after an untimed prepare()."""
    seconds, faults = [], []
    for i in range(repeats + 1):
        if prepare:
            prepare()
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        call()
        if i:
            seconds.append(time.perf_counter() - t0)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    median = statistics.median(seconds)
    q1, _, q3 = statistics.quantiles(seconds, n=4)
    return {"seconds": {"median": median, "min": min(seconds), "max": max(seconds),
                        "spread": (q3 - q1) / median},
            "minor_faults": {"median": statistics.median(faults), "min": min(faults),
                             "max": max(faults)}}


def record(layer, given, work, call, prepare=None):
    """The record of one layer on one input."""
    out = {"layer": layer, "input": given, "work": work, **timed(call, prepare)}
    out["per_s"] = next(iter(work.values())) / out["seconds"]["median"]
    return out


@contextlib.contextmanager
def spied(owner, name, keep=None):
    """The (args, kwargs) of every call of owner.name made inside the block,
    or keep(*args) of each where keep is given."""
    fn, calls = getattr(owner, name), []

    def spy(*args, **kwargs):
        calls.append(keep(*args) if keep else (args, kwargs))
        return fn(*args, **kwargs)
    setattr(owner, name, spy)
    try:
        yield calls
    finally:
        setattr(owner, name, fn)


def replay(fn, calls):
    return [fn(*args, **kwargs) for args, kwargs in calls]


def fourier_work(call):
    """The Bessel-table values interpolated and the divisor-sum calls of
    call(), and the (args, kwargs) of the Bessel tables it builds."""
    with spied(domains._BesselTable, "__call__") as values, \
            spied(domains, "_BesselTable") as tables, \
            spied(eisenstein, "ideal_divisor_norms") as divisors:
        call()
    return {"bessel_values": sum(args[1].size for args, _ in values),
            "divisor_sums": len(divisors)}, tables


def s_text(s):
    s = complex(s)
    return "%g" % s.real if not s.imag else "%g%+gi" % (s.real, s.imag)


def field_ctx(d):
    field = fields.make_field(d)
    return field, zeta.make_context(field)


def eisenstein_calls(workload):
    calls = []
    for op in make_inputs(workload, SEED):
        field, ctx = field_ctx(op["d"])
        z = geometry.make_point(field, *[(complex(*x) if isinstance(x, list) else x, y)
                                         for x, y in op["z"]])
        calls.append(Call(op["d"], field, ctx, z, complex(*op["s"]), op["bound"]))
    return calls


def zeta_records(low):
    """gamma, hurwitz_zeta and phi at the phi values of the low-t operations."""
    given = {"workload": "eisenstein-low-t", "phi_at_d_s": [[c.d, s_text(c.s)] for c in low]}
    with spied(zeta, "gamma") as gammas, spied(zeta, "hurwitz_zeta") as hurwitz:
        for c in low:
            zeta.phi(c.ctx, c.s)
    yield record("specfun.gamma", given, {"values": len(gammas)},
                 lambda: replay(specfun.gamma, gammas))
    yield record("zeta.hurwitz_zeta", given, {"values": len(hurwitz)},
                 lambda: replay(zeta.hurwitz_zeta, hurwitz))
    yield record("zeta.phi", given, {"values": len(low)},
                 lambda: [zeta.phi(c.ctx, c.s) for c in low])


def fourier_records(workload, calls, order):
    """The scalar Fourier route, its frequency tables and the Bessel factors
    of the given order ("real" or "complex") that it computes."""
    given = {"workload": workload, "d_s": [[c.d, s_text(c.s)] for c in calls]}
    with spied(eisenstein, "bessel_k_grid") as bessel, \
            spied(eisenstein, "ideal_divisor_norms") as divisors:
        for c in calls:
            eisenstein.eisenstein_fourier(c.field, c.z, c.s, ctx=c.ctx)
    kept = [call for call in bessel if (complex(call[0][0]).imag != 0) == (order == "complex")]
    yield record("specfun.bessel_k_grid",
                 {**given, "order": order, "orders": sorted({s_text(a[0]) for a, _ in kept})},
                 {"values": sum(np.size(a[1]) for a, _ in kept), "calls": len(kept)},
                 lambda: replay(specfun.bessel_k_grid, kept))

    def tables():
        return [eisenstein.frequency_table(c.field, c.s, [y for _, y in c.z.coords])
                for c in calls]
    yield record("eisenstein.frequency_table", given,
                 {"frequencies": sum(t.taus.size for t in tables()),
                  "divisor_sums": len(divisors)}, tables)
    yield record("eisenstein.eisenstein_fourier", given,
                 {"values": len(calls), "bessel_values": sum(np.size(a[1]) for a, _ in bessel),
                  "divisor_sums": len(divisors)},
                 lambda: [eisenstein.eisenstein_fourier(c.field, c.z, c.s, ctx=c.ctx)
                          for c in calls])


def pair_records(low, high):
    """The pair enumeration per field over the low-t calls, then each direct-route call."""
    for d in (0, 5, -1):
        calls = [c for c in low if c.d == d]

        def blocks(c):
            return eisenstein._pair_blocks(c.field, c.z, c.bound * c.z.ny(c.field))

        def at_the_cut(c):
            cut = eisenstein._weight_tables(c.field, c.bound, c.z.ny(c.field), c.s)[2]
            return sum(int(np.count_nonzero(V <= cut)) for V, _ in blocks(c))

        def enumeration():
            return sum(V.size for c in calls for V, _ in blocks(c))
        yield record("eisenstein._pair_blocks",
                     {"workload": "eisenstein-low-t", "d": d,
                      "s_bound": [[s_text(c.s), c.bound] for c in calls]},
                     {"lattice_pairs": enumeration(),
                      "predicted": round(sum(eisenstein._lattice_pairs(c.field, c.bound)
                                             for c in calls)),
                      "at_the_cut": sum(at_the_cut(c) for c in calls)}, enumeration)
    for workload, calls in (("eisenstein-low-t", low), ("eisenstein-high-t", high)):
        for c in calls:
            params = eisenstein.EisensteinParams(s=c.s, norm_bound=c.bound)

            def direct():
                return eisenstein.eisenstein_direct(c.field, geometry.cusp_infinity(c.field),
                                                    c.z, params, return_parts=True)
            yield record("eisenstein.eisenstein_direct",
                         {"workload": workload, "d": c.d, "s": s_text(c.s), "bound": c.bound},
                         {"pairs": int(direct()[3])}, direct)


def phase_records(low, high):
    """The complex powers (N(y) / V)^s of the direct route, on the blocks of
    L = log(N(y) / V) of the low-t call on Q at complex s and of the first
    high-t call, each block timed into one set of buffers."""
    q = next(c for c in low if c.d == 0 and c.s.imag)
    for workload, c in (("eisenstein-low-t", q), ("eisenstein-high-t", high[0])):
        # L is overwritten by the call: keep a copy of each block
        with spied(eisenstein, "exp_real_times", keep=lambda p, L, *_: L.copy()) as blocks:
            eisenstein.eisenstein_direct(c.field, geometry.cusp_infinity(c.field), c.z,
                                         eisenstein.EisensteinParams(s=c.s, norm_bound=c.bound))
        L, size = [np.empty_like(b) for b in blocks], fields._PAIR_BLOCK
        out, work, index = (np.empty(size, dtype=complex), np.empty((4, size)),
                            np.empty(size, dtype=np.intp))

        def restore():
            for a, b in zip(L, blocks):
                np.copyto(a, b)
        yield record("specfun.exp_real_times",
                     {"workload": workload, "d": c.d, "s": s_text(c.s), "bound": c.bound},
                     {"values": sum(b.size for b in blocks), "blocks": len(blocks)},
                     lambda: [specfun.exp_real_times(c.s, a, out[:a.size], work, index[:a.size])
                              for a in L], restore)


def grid_records(ops):
    """The Fourier grids of the Maass-Selberg check, the box averages of the
    Rankin-Selberg checks, and the Bessel tables they build."""
    op = ops["maass_selberg"][0]
    field, ctx = field_ctx(op["d"])
    with spied(domains, "eisenstein_fourier_grid") as grids:
        domains.maass_selberg_numeric(field, op["s"], op["sp"], op["T"], ctx)
    work, tables = fourier_work(lambda: replay(domains.eisenstein_fourier_grid, grids))
    yield record("domains.eisenstein_fourier_grid",
                 {"workload": "identities", "calls_of": "maass_selberg_numeric", **op,
                  "calls": len(grids)},
                 {"points": sum(args[3][0].size for args, _ in grids), **work},
                 lambda: replay(domains.eisenstein_fourier_grid, grids))
    for op in ops["rankin_selberg"]:
        field, ctx = field_ctx(op["d"])
        with spied(equidist, "eisenstein_box_average") as boxes:
            equidist.rankin_selberg_check(field, equidist.make_test_function(field, *op["bump"]),
                                          op["s"], ctx)
        work, more = fourier_work(lambda: replay(domains.eisenstein_box_average, boxes))
        tables += more
        yield record("domains.eisenstein_box_average",
                     {"workload": "identities", "calls_of": "rankin_selberg_check", **op},
                     {"heights": sum(len(args[2]) for args, _ in boxes), **work},
                     lambda: replay(domains.eisenstein_box_average, boxes))
    yield record("domains._BesselTable",
                 {"workload": "identities", "tables_of": "the grids and box averages above",
                  "order_lo_hi": [[s_text(a[0]), a[1], a[2]] for a, _ in tables]},
                 {"points": sum(t.m + 5 for t in replay(domains._BesselTable, tables))},
                 lambda: replay(domains._BesselTable, tables))


def unfolded_records(ops, equidist_ops):
    """The unfolded kernel and the decay fits that call it, per field of the
    equidist workload, and the Mellin defining route of the identities one."""
    for op in equidist_ops:
        if op["kind"] != "decay_fit":
            continue
        field, ctx = field_ctx(op["d"])
        f = equidist.make_test_function(field, *op["bump"])

        def fit():
            return equidist.decay_exponent_fit(f, field, op["k_min"], op["k_max"], ctx)
        with spied(equidist, "_unfolded_kernel") as kernels:
            fit()
        given = {"workload": "equidist", **op}
        kappa = sum(np.size(args[1]) for args, _ in kernels)
        yield record("equidist._unfolded_kernel",
                     {**given, "calls_of": "decay_exponent_fit",
                      "orders": [args[3] for args, _ in kernels]},
                     {"kappa": kappa}, lambda: replay(equidist._unfolded_kernel, kernels))
        yield record("equidist.decay_exponent_fit", given,
                     {"kappa": kappa, "heights": op["k_max"] - op["k_min"] + 1}, fit)
    for op in ops["rankin_selberg"]:
        field, ctx = field_ctx(op["d"])
        f = equidist.make_test_function(field, *op["bump"])
        with spied(equidist, "_unfolded_kernel") as kernels:
            equidist.mellin_transform(f, op["s"], field, ctx)
        yield record("equidist.mellin_transform", {"workload": "identities", **op},
                     {"kappa": sum(np.size(args[1]) for args, _ in kernels)},
                     lambda: equidist.mellin_transform(f, op["s"], field, ctx))


def class_records(ops, equidist_ops):
    """The horoball route and its class enumeration at the equidist heights,
    and the remark identity of the identities workload, each with an empty
    class cache."""
    clear = domains._cusp_classes.cache_clear
    for op in equidist_ops:
        if op["kind"] != "horoball":
            continue
        field = fields.make_field(op["d"])
        f = equidist.make_test_function(field, *op["bump"])
        given = {"workload": "equidist", "d": op["d"], "bump": op["bump"], "q": op["q"]}
        classes = sum(int(domains._cusp_classes(field, q, f.t0)[2].sum()) for q in op["q"])
        yield record("equidist.cusp_section_average", {**given, "method": "horoball"},
                     {"classes": classes, "heights": len(op["q"])},
                     lambda: [equidist.cusp_section_average(f, q, field, method="horoball")
                              for q in op["q"]], clear)
        yield record("domains._cusp_classes", {**given, "T": f.t0}, {"classes": classes},
                     lambda: [domains._cusp_classes(field, q, f.t0) for q in op["q"]], clear)
    for op in ops["volume"]:
        if op["d"] == 0:  # the volume of Q is a quadrature, with no classes
            continue
        field, ctx = field_ctx(op["d"])
        sprime, T = VOLUME_ARGS
        domains.remark_identity_check(field, sprime, T, ctx)  # caches its classes
        yield record("domains.remark_identity_check",
                     {"workload": "identities", "d": op["d"], "sprime": sprime, "T": T},
                     {"classes": int(domains._cusp_classes(field, domains._Q_LO / T, T)[2].sum())},
                     lambda: domains.remark_identity_check(field, sprime, T, ctx), clear)


def run():
    start = time.perf_counter()
    ops = {}
    for op in make_inputs("identities", SEED):
        for item in op["items"]:
            ops.setdefault(item["kind"], []).append(item)
    equidist_ops = make_inputs("equidist", SEED)
    low, high = eisenstein_calls("eisenstein-low-t"), eisenstein_calls("eisenstein-high-t")
    report = {"seed": SEED, "repeats": REPEATS,
              "pace_before": timed(pace.probe, repeats=pace.BLOCK)}
    report["records"] = [*zeta_records(low),
                         *fourier_records("eisenstein-low-t", low, "real"),
                         *fourier_records("eisenstein-high-t", high, "complex"),
                         *pair_records(low, high), *phase_records(low, high),
                         *grid_records(ops),
                         *unfolded_records(ops, equidist_ops), *class_records(ops, equidist_ops)]
    report["pace_after"] = timed(pace.probe, repeats=pace.BLOCK)
    report["run_s"] = time.perf_counter() - start
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    run()
