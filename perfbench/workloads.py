"""The benchmark's four workloads: seeded inputs, and the operations that
run them through hilmod.

Inputs are plain JSON made here from the seed with no hilmod code, so the
program receives only them.  `setup` turns a round's inputs into hilmod
objects (the timed set-up) and returns one zero-argument callable per
operation.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("eisenstein-low-t", "eisenstein-high-t", "equidist", "identities")

# norm bounds of the direct route at which the package documents dual-route
# agreement of 1e-6 (Q) and 1e-4 (quadratic fields)
DIRECT_BOUND = {0: 2e6, 5: 2e5, -1: 2e5}
LOW_T_S = (1.5, 2.0, complex(1.3, 0.5))

_OMEGA = ((1 + math.sqrt(5)) / 2, (1 - math.sqrt(5)) / 2)   # embeddings of omega in Q(sqrt 5)


def _c(v) -> list:
    v = complex(v)
    return [v.real, v.imag]


# log of the Q(sqrt 5) height split: the heights of a point are height * e^(+-Q5_SPLIT)
Q5_SPLIT = 0.05


def _reduced_point(d: int, rng: random.Random, height: float) -> list:
    """A point of the reduced box at the infinity cusp as [[x, y], ...] per
    place (complex x as [re, im]) whose heights have geometric mean
    `height`, split between the places of Q(sqrt 5) by Q5_SPLIT.  The seed
    draws x only.  The heights are fixed per operation slot, because the
    pair count of the direct route and the frequency count of the Fourier
    route, and so the cost, depend on them: a seeded split in [-0.1, 0.1]
    moved the frequency count of one Q(sqrt 5) point by up to 9%."""
    if d == 0:
        while True:  # classical fundamental domain
            x = rng.uniform(-0.5, 0.5)
            if x * x + height * height >= 1.0:
                return [[x, height]]
    X1, X2 = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    if d == 5:
        # |log(y1/y2)| = 2 Q5_SPLIT stays inside the unit window 2 log(omega)
        return [[X1 + X2 * _OMEGA[0], height * math.exp(Q5_SPLIT)],
                [X1 + X2 * _OMEGA[1], height * math.exp(-Q5_SPLIT)]]
    return [[[X1, X2], height]]


def _eisenstein_op(d, z, s):
    return {"kind": "eisenstein", "d": d, "z": z, "s": _c(s), "bound": DIRECT_BOUND[d]}


# heights of the low-t points, one per s value, spread over [0.85, 1.7]
LOW_T_HEIGHTS = (1.0, 1.3, 1.6)


def _low_t(rng):
    return [_eisenstein_op(d, _reduced_point(d, rng, h), s)
            for d in (0, 5, -1) for s, h in zip(LOW_T_S, LOW_T_HEIGHTS)]


# heights of the high-t points: the number of Fourier frequencies, and so
# the Bessel work, goes as 1/N(y).  Two points per field at heights where
# the four operations cost about the same (68 and 100 frequencies), so
# that the median operation rests on many alike samples.
HIGH_T_HEIGHTS = {5: (1.8, 1.8), -1: (1.25, 1.25)}


def _high_t(rng):
    # t in [9, 10]: near t = 8 the Bessel refinement test sometimes passes
    # early on one place, which makes the cost of an operation depend on t
    return [_eisenstein_op(d, _reduced_point(d, rng, h), complex(1.5, rng.uniform(9.0, 10.0)))
            for d, heights in HIGH_T_HEIGHTS.items() for h in heights]


# deepest dyadic level k of the decay fit per field (q = 2^-k)
EQUIDIST_K_MAX = {0: 20, 5: 11, -1: 20}
# horoball-route heights: one seeded height in each narrow stratum (the
# number of candidate cusps, and so the cost, goes as 1/q); one operation
# per field covers both, so that the median operation is a long one
HOROBALL_STRATA = ((0.15, 0.155), (0.04, 0.0412))


def _bump(rng):
    """Plateau support near the default [1.8, 2.8]."""
    return [1.8 + rng.uniform(-0.02, 0.02), 2.8 + rng.uniform(-0.02, 0.02)]


def _equidist(rng):
    ops = [{"kind": "decay_fit", "d": d, "bump": _bump(rng), "k_min": 2, "k_max": k}
           for d, k in EQUIDIST_K_MAX.items()]
    for d in EQUIDIST_K_MAX:
        ops.append({"kind": "horoball", "d": d, "bump": _bump(rng),
                    "q": [rng.uniform(lo, hi) for lo, hi in HOROBALL_STRATA], "nodes": 20})
    return ops


# cli default points: the seed moves x only (the heights set the Fourier cost)
_RESIDUE_Y = {0: (1.3,), 5: (1.05, 0.93), -1: (0.95,)}


def _identities(rng):
    """The `hilmod check` battery of scripts/run_checks.py, one operation
    per identity over all its fields (so that the median operation is not a
    millisecond call); the seed draws the evaluation points of the cheap
    checks, the heavy ones keep the parameters `hilmod check` uses."""
    ops = [{"kind": "bessel",
            "points": [[_c(complex(rng.uniform(-1.2, 1.2), rng.uniform(-2.0, 2.0))),
                        rng.uniform(0.5, 5.0)] for _ in range(3)]}]
    for d in (0, 5, -1):
        ops.append({"kind": "functional_equation", "d": d,
                    "s": [_c(complex(rng.uniform(0.2, 0.8), rng.uniform(1.0, 12.0)))
                          for _ in range(3)]})
    ops += [{"kind": "volume", "d": d} for d in (0, 5, -1)]
    for d in (0, 5, -1):
        X1, X2 = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        ys = _RESIDUE_Y[d]
        if d == 0:
            z = [[X1, ys[0]]]
        elif d == 5:
            z = [[X1 + X2 * _OMEGA[0], ys[0]], [X1 + X2 * _OMEGA[1], ys[1]]]
        else:
            z = [[[X1, X2], ys[0]]]
        ops.append({"kind": "residue", "d": d, "z": z})
    ops.append({"kind": "maass_selberg", "d": 0, "s": 1.5, "sp": 1.25, "T": 3.0})
    ops += [{"kind": "rankin_selberg", "d": d, "bump": [2.0, 4.0], "s": 2.0} for d in (0, 5)]
    kinds = dict.fromkeys(op["kind"] for op in ops)
    return [{"kind": "check", "items": [op for op in ops if op["kind"] == k]} for k in kinds]


_MAKERS = {"eisenstein-low-t": _low_t, "eisenstein-high-t": _high_t,
           "equidist": _equidist, "identities": _identities}


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The operations of one round, drawn from the seed."""
    return _MAKERS[workload](random.Random("%s/%d" % (workload, seed)))


# ---------------------------------------------------------------------------
# Set-up and operations (run inside a worker process)
# ---------------------------------------------------------------------------

def setup(ops: list[dict]):
    """Import hilmod and build fields, zeta contexts, test functions and
    points; returns one callable per operation."""
    from hilmod import domains, eisenstein, equidist, fields, geometry, specfun, zeta

    field, ctx = {}, {}
    for op in ops:
        for d in [item.get("d", 0) for item in op.get("items", [op])]:
            if d not in field:
                field[d] = fields.make_field(d)
                ctx[d] = zeta.make_context(field[d])

    def point(d, z):
        pairs = [(complex(*x) if isinstance(x, list) else x, y) for x, y in z]
        return geometry.make_point(field[d], *pairs)

    def bump(d, b):
        return equidist.make_test_function(field[d], b[0], b[1])

    def eisenstein_op(op):
        d = op["d"]
        fd, cx, z, s = field[d], ctx[d], point(d, op["z"]), complex(*op["s"])
        inf = geometry.cusp_infinity(fd)
        params = eisenstein.EisensteinParams(s=s, norm_bound=op["bound"])

        def run():
            fourier = eisenstein.eisenstein_fourier(fd, z, s, ctx=cx)
            direct, _, _, pairs = eisenstein.eisenstein_direct(fd, inf, z, params, return_parts=True)
            return {"fourier": _c(fourier), "direct": _c(direct), "pairs": int(pairs)}
        return run

    def decay_fit_op(op):
        d = op["d"]
        fd, cx, f = field[d], ctx[d], bump(d, op["bump"])

        def run():
            rep = equidist.decay_exponent_fit(f, fd, op["k_min"], op["k_max"], ctx=cx)
            return {"m_limit": rep.m_limit, "slope": rep.fitted_slope,
                    "m_values": [float(v) for v in rep.m_values], "orders": rep.nodes_used}
        return run

    def horoball_op(op):
        d = op["d"]
        fd, f = field[d], bump(d, op["bump"])

        def run():
            return {"values": [equidist.cusp_section_average(f, q, fd, nodes=op["nodes"],
                                                             method="horoball")
                               for q in op["q"]]}
        return run

    def bessel_op(op):
        pts = [(complex(*s), y) for s, y in op["points"]]

        def run():
            return {"pairs": [[_c(specfun.bessel_k(s, y)), _c(specfun.bessel_k(-s, y))]
                              for s, y in pts]}
        return run

    def functional_equation_op(op):
        cx, svals = ctx[op["d"]], [complex(*s) for s in op["s"]]

        def run():
            return {"pairs": [[_c(zeta.completed_zeta(cx, s)), _c(zeta.completed_zeta(cx, 1 - s))]
                              for s in svals]}
        return run

    def volume_op(op):
        d = op["d"]
        fd, cx = field[d], ctx[d]

        def run():
            closed = eisenstein.orbifold_volume(fd, cx)
            if d == 0:
                return {"closed": closed, "lhs": domains.modular_domain_volume_numeric(),
                        "rhs": closed}
            lhs, rhs = domains.remark_identity_check(fd, 2.0, 3.0, cx)
            return {"closed": closed, "lhs": lhs, "rhs": rhs}
        return run

    def residue_op(op):
        d = op["d"]
        fd, cx, z = field[d], ctx[d], point(d, op["z"])

        def run():
            eps = 1e-4
            probe = (eps * eisenstein.eisenstein_fourier(fd, z, 1 + eps, ctx=cx)).real
            return {"closed": eisenstein.residue_at_one(fd, cx), "probe": probe}
        return run

    def maass_selberg_op(op):
        fd, cx = field[0], ctx[0]

        def run():
            num = domains.maass_selberg_numeric(fd, op["s"], op["sp"], op["T"], ctx=cx)
            closed = eisenstein.maass_selberg_closed_form(fd, op["s"], op["sp"], op["T"], cx)
            return {"lhs": _c(num), "rhs": _c(closed)}
        return run

    def rankin_selberg_op(op):
        d = op["d"]
        fd, cx, f = field[d], ctx[d], bump(d, op["bump"])

        def run():
            lhs, rhs = equidist.rankin_selberg_check(fd, f, op["s"], cx)
            return {"lhs": _c(lhs), "rhs": _c(rhs)}
        return run

    def check_op(op):
        runs = [makers[item["kind"]](item) for item in op["items"]]

        def run():
            return [r() for r in runs]
        return run

    makers = {"eisenstein": eisenstein_op, "decay_fit": decay_fit_op, "check": check_op,
              "horoball": horoball_op, "bessel": bessel_op,
              "functional_equation": functional_equation_op, "volume": volume_op,
              "residue": residue_op, "maass_selberg": maass_selberg_op,
              "rankin_selberg": rankin_selberg_op}
    return [makers[op["kind"]](op) for op in ops]


# Layers each workload must reach (calls > 0) and must not reach (calls == 0)
# in a traced run; keys are span names of tracing.TRACED.
EXPECTED_LAYERS = {
    "eisenstein-low-t": {
        "reached": ("specfun.gamma", "zeta.hurwitz_zeta", "zeta.phi",
                    "eisenstein.eisenstein_direct", "eisenstein.eisenstein_fourier",
                    "specfun.bessel_k_grid", "fields.ideal_divisor_norms"),
        "not_reached": ("domains.eisenstein_fourier_grid",)},
    "eisenstein-high-t": {
        "reached": ("specfun.bessel_k_grid", "fields.ideal_divisor_norms",
                    "eisenstein.eisenstein_fourier", "eisenstein.eisenstein_direct"),
        "not_reached": ("domains.eisenstein_fourier_grid",)},
    "equidist": {
        "reached": ("fields.ideal_totient_sums", "quadrature.gl_panel_nodes",
                    "equidist.cusp_section_average.unfolded",
                    "equidist.cusp_section_average.horoball",
                    "equidist.decay_exponent_fit"),
        "not_reached": ("specfun.bessel_k_grid", "fields.ideal_divisor_norms",
                        "eisenstein.eisenstein_direct", "eisenstein.eisenstein_fourier")},
    "identities": {
        "reached": ("specfun.bessel_k_grid", "fields.ideal_divisor_norms",
                    "quadrature.gl_panel_nodes", "geometry.slice_embeddings",
                    "domains.eisenstein_fourier_grid", "domains.shadow_fraction",
                    "domains.maass_selberg_numeric",
                    "equidist.cusp_section_average.unfolded",
                    "equidist.rankin_selberg_check"),
        "not_reached": ()},
}
