"""Correctness checks of a round's outputs.

Each check compares an output with a computation made apart from the code
under test, or with a property the mathematics forces:

- dual routes: Fourier against direct Eisenstein values (1e-6 for Q, 1e-4
  for quadratic fields, the tolerances the package documents);
- an mpmath oracle for Q: the classical Fourier expansion of E(z, s) with
  mpmath.besselk, mpmath.zeta and divisor sums;
- cross-section averages: the horoball route against the unfolded route;
- the Haar average m(f) against scipy quadrature of C1 * int psi(q) q^-2 dq
  over the closed-form volume, with zeta_K(2) from mpmath;
- identities: the two sides of each `hilmod check` identity at its own
  tolerance, vol(Q) = pi/3 and residue(Q) = 3/pi.

`references` computes what does not depend on the outputs (once per run);
`compare` is cheap, so a perturbed copy of the outputs can be compared
again to show that a wrong value is caught.
"""

from __future__ import annotations

import math

import mpmath
from scipy.integrate import quad

# field invariants from the textbook: D, r1, r2, regulator, roots of unity
_FIELD = {
    0: (1, 1, 0, 1.0, 2),
    5: (5, 2, 0, math.log((1 + math.sqrt(5)) / 2), 2),
    -1: (4, 0, 1, 1.0, 4),
}

DUAL_TOL = {0: 1e-6, 5: 1e-4, -1: 1e-4}
ORACLE_FOURIER_TOL = 1e-9
HOROBALL_TOL = 7e-4          # absolute, the horoball route's pinned quadrature error
HAAR_TOL = 1e-8
# tolerances of `hilmod check`
IDENTITY_TOL = {"bessel": 1e-10, "functional_equation": 1e-6, "volume": 1e-3,
                "residue": 1e-3, "maass_selberg": 1e-3}
RANKIN_SELBERG_TOL = {0: 1e-4, 5: 1e-3}
EXACT_TOL = 1e-12


def _cx(v) -> complex:
    return complex(*v) if isinstance(v, list) else complex(v)


def _rel(a, b) -> float:
    a, b = _cx(a), _cx(b)
    return abs(a - b) / max(abs(b), 1e-300)


def zeta_k2(d: int) -> float:
    if d == 0:
        return float(mpmath.zeta(2))
    if d == 5:
        return float(mpmath.zeta(2) * mpmath.dirichlet(2, [0, 1, -1, -1, 1]))
    return float(mpmath.zeta(2) * mpmath.catalan)


def haar_reference(d: int, profile, t0: float, t1: float, shoulder: float) -> float:
    D, r1, r2, R, omega = _FIELD[d]
    n = r1 + 2 * r2
    c1 = 2.0 ** (r1 - r2) * R * math.sqrt(D) / omega
    volume = 2.0 ** (-3 * r2 + 1) * math.pi ** (-n) * D ** 1.5 * zeta_k2(d)
    edges = (t0, t0 + shoulder, t1 - shoulder, t1)
    integral = sum(quad(lambda q: float(profile(q)) / (q * q), a, b,
                        epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for a, b in zip(edges[:-1], edges[1:]) if b > a)
    return c1 * integral / volume


def classical_eisenstein_q(x: float, y: float, s: complex) -> complex:
    """E(z, s) for SL(2, Z) from its classical Fourier expansion:
    y^s + phi(s) y^(1-s) + 4 sqrt(y) / xi(2s) * sum_n n^(s-1/2)
    sigma_{1-2s}(n) K_{s-1/2}(2 pi n y) cos(2 pi n x)."""
    with mpmath.workdps(30):
        s = mpmath.mpc(s)
        x, y = mpmath.mpf(x), mpmath.mpf(y)

        def xi(w):
            return mpmath.pi ** (-w / 2) * mpmath.gamma(w / 2) * mpmath.zeta(w)
        total = y ** s + xi(2 * s - 1) / xi(2 * s) * y ** (1 - s)
        acc = mpmath.mpc(0)
        n = 1
        while 2 * math.pi * n * float(y) < 90.0:
            sigma = sum(mpmath.mpf(k) ** (1 - 2 * s) for k in range(1, n + 1) if n % k == 0)
            acc += (mpmath.mpf(n) ** (s - 0.5) * sigma
                    * mpmath.besselk(s - 0.5, 2 * mpmath.pi * n * y)
                    * mpmath.cos(2 * mpmath.pi * n * x))
            n += 1
        return complex(total + 4 * mpmath.sqrt(y) / xi(2 * s) * acc)


def references(ops: list[dict]) -> dict:
    """Values computed apart from the outputs, keyed by operation index."""
    from hilmod import equidist, fields

    refs = {}
    field = {}
    for i, op in enumerate(ops):
        kind, d = op["kind"], op.get("d", 0)
        if kind == "eisenstein" and d == 0:
            (x, y), = op["z"]
            refs[i] = classical_eisenstein_q(x, y, _cx(op["s"]))
        elif kind in ("decay_fit", "horoball"):
            fd = field.setdefault(d, fields.make_field(d))
            f = equidist.make_test_function(fd, *op["bump"])
            if kind == "decay_fit":
                refs[i] = haar_reference(d, f.profile, f.t0, f.t1, f.shoulder)
            else:
                refs[i] = [equidist.cusp_section_average(f, q, fd, method="unfolded")
                           for q in op["q"]]
    return refs


def compare(ops: list[dict], outputs: list, refs: dict) -> list[dict]:
    """One row {check, op, err, tol} per comparison; skips failed ops."""
    rows = []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if out is None:
            continue
        if op["kind"] == "check":
            for item, item_out in zip(op["items"], out):
                _compare_one(item, item_out, None, i, rows)
        else:
            _compare_one(op, out, refs.get(i), i, rows)
    return rows


def _compare_one(op, out, ref, i, rows):
    def add(name, err, tol):
        rows.append({"check": name, "op": i, "err": float(err), "tol": tol})

    kind, d = op["kind"], op.get("d", 0)
    if kind == "eisenstein":
        add("dual-route d=%d" % d, _rel(out["direct"], out["fourier"]), DUAL_TOL[d])
        if d == 0:
            add("mpmath-oracle fourier", _rel(out["fourier"], ref), ORACLE_FOURIER_TOL)
            add("mpmath-oracle direct", _rel(out["direct"], ref), DUAL_TOL[0])
    elif kind == "decay_fit":
        add("haar-average d=%d" % d, _rel(out["m_limit"], ref), HAAR_TOL)
    elif kind == "horoball":
        for value, r in zip(out["values"], ref):
            add("horoball-vs-unfolded d=%d" % d, abs(value - r), HOROBALL_TOL)
    elif kind in ("bessel", "functional_equation"):
        for a, b in out["pairs"]:
            add("%s d=%d" % (kind, d), _rel(a, b), IDENTITY_TOL[kind])
    elif kind in ("volume", "residue", "maass_selberg"):
        lhs = out["lhs"] if kind != "residue" else out["probe"]
        rhs = out["rhs"] if kind != "residue" else out["closed"]
        add("%s d=%d" % (kind, d), _rel(lhs, rhs), IDENTITY_TOL[kind])
        if kind == "volume" and d == 0:
            add("vol(Q)=pi/3", abs(out["closed"] - math.pi / 3), EXACT_TOL)
        if kind == "residue" and d == 0:
            add("residue(Q)=3/pi", abs(out["closed"] - 3 / math.pi), EXACT_TOL)
    elif kind == "rankin_selberg":
        add("rankin-selberg d=%d" % d, _rel(out["lhs"], out["rhs"]), RANKIN_SELBERG_TOL[d])


def perturb(ops: list[dict], outputs: list) -> list:
    """A copy of the outputs with one value of the workload made wrong by
    more than its check allows."""
    out = [dict(o) if isinstance(o, dict) else o for o in outputs]
    for i, op in enumerate(ops):
        if out[i] is None:
            continue
        if op["kind"] == "eisenstein":
            # scale the whole value: at high t it can be almost imaginary
            out[i]["fourier"] = [v * (1 + 1e-3) for v in out[i]["fourier"]]
            return out
        if op["kind"] == "horoball":
            out[i]["values"] = [out[i]["values"][0] + 1e-2] + out[i]["values"][1:]
            return out
        if op["kind"] == "check" and op["items"][0]["kind"] == "rankin_selberg":
            j = [item["d"] for item in op["items"]].index(5)
            out[i] = list(out[i])
            out[i][j] = dict(out[i][j], lhs=[v * (1 + 1e-2) for v in out[i][j]["lhs"]])
            return out
    raise ValueError("no output to perturb")
