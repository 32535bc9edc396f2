"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here; nothing is deferred to calibration elsewhere.
"""

import math
import random
import time

import numpy as np
import pytest

from hilmod import domains as D
from hilmod import eisenstein as E
from hilmod import equidist as Q
from hilmod import fields as F
from hilmod import geometry as G
from hilmod import zeta as Z
from hilmod.specfun import bessel_k, gamma
from conftest import random_group_element, random_point
from oracles import (SCAN_BUMP, act, dedekind_zeta_series, from_local_coords, height,
                     local_coords, make_cusp, mul, reduce_mod_stabilizer, stabilizer_element,
                     unit_block_matrix, vertical_line_scan, x_basis_matrix)

pytestmark = pytest.mark.acceptance

_FIELDS = {0: F.make_field(0), 5: F.make_field(5), -1: F.make_field(-1)}
_CTX = {d: Z.make_context(fd) for d, fd in _FIELDS.items()}


def _report(name, ok, detail):
    line = "ACCEPTANCE %-28s %s  (%s)" % (name, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def test_criterion_1_eisenstein_dual_method():
    # 10 random reduced points per field, s in {1.5, 2, 1.3+0.5i};
    # |direct - fourier| <= 1e-6 |fourier| for Q, <= 1e-4 for quadratic;
    # runtime <= 60 s per field.
    svals = (1.5, 2.0, 1.3 + 0.5j)
    detail = []
    ok = True
    for d, tol, bound in ((0, 1e-6, 2e6), (5, 1e-4, 2e5), (-1, 1e-4, 2e5)):
        fd, ctx = _FIELDS[d], _CTX[d]
        inf = G.cusp_infinity(fd)
        rng = random.Random(42 + d)
        t0 = time.time()
        worst = 0.0
        for _ in range(10):
            z, _g = reduce_mod_stabilizer(inf, random_point(fd, rng, 0.85, 1.7), fd)
            for s in svals:
                direct = E.eisenstein_direct(fd, inf, z,
                                             E.EisensteinParams(s=s, norm_bound=bound))
                fourier = E.eisenstein_fourier(fd, z, s, ctx=ctx)
                worst = max(worst, abs(direct - fourier) / abs(fourier))
        dt = time.time() - t0
        ok = ok and worst <= tol and dt <= 60.0
        detail.append("d=%d worst=%.2e t=%.0fs" % (d, worst, dt))
    _report("1 eisenstein-dual", ok, "; ".join(detail))


def test_criterion_2_volume():
    fd, ctx = _FIELDS[0], _CTX[0]
    t0 = time.time()
    closed = E.orbifold_volume(fd, ctx)
    numeric = D.modular_domain_volume_numeric()
    rel_q = abs(closed - numeric) / numeric
    dt = time.time() - t0
    ok = rel_q <= 1e-3 and abs(closed - math.pi / 3) < 1e-12 and dt <= 10.0
    detail = ["Q rel=%.1e t=%.1fs" % (rel_q, dt)]
    for d in (5, -1):
        lhs, rhs = D.remark_identity_check(_FIELDS[d], 2.0, 3.0, _CTX[d])
        rel = abs(lhs - rhs) / abs(rhs)
        ok = ok and rel <= 1e-7
        detail.append("d=%d rel=%.1e" % (d, rel))
    _report("2 volume", ok, "; ".join(detail))


def test_criterion_3_residue():
    fd, ctx = _FIELDS[0], _CTX[0]
    closed = E.residue_at_one(fd, ctx)
    ok = abs(closed - 3 / math.pi) < 1e-12
    eps = 1e-4
    probes = []
    for x, y in ((0.1, 1.2), (0.3, 1.7)):
        z = G.make_point(fd, (x, y))
        probes.append((eps * E.eisenstein_fourier(fd, z, 1 + eps, ctx=ctx)).real)
    rels = [abs(p - closed) / closed for p in probes]
    ok = ok and all(r <= 1e-3 for r in rels) \
        and abs(probes[0] - probes[1]) <= 1e-3 * closed
    _report("3 residue", ok, "3/pi, probes rel=%.1e,%.1e" % tuple(rels))


def test_criterion_4_maass_selberg():
    fd, ctx = _FIELDS[0], _CTX[0]
    t0 = time.time()
    numeric = D.maass_selberg_numeric(fd, 1.5, 1.25, 3.0, ctx=ctx)
    closed = E.maass_selberg_closed_form(fd, 1.5, 1.25, 3.0, ctx)
    rel = abs(numeric - closed) / abs(closed)
    dt = time.time() - t0
    ok = rel <= 1e-3 and dt <= 120.0
    _report("4 maass-selberg", ok, "rel=%.2e t=%.0fs" % (rel, dt))


def test_criterion_5_rankin_selberg():
    detail = []
    ok = True
    for d, tol in ((0, 1e-4), (5, 1e-3)):
        fd, ctx = _FIELDS[d], _CTX[d]
        f = Q.make_test_function(fd, 2.0, 4.0)
        lhs, rhs = Q.rankin_selberg_check(fd, f, 2.0, ctx)
        rel = abs(lhs - rhs) / abs(rhs)
        ok = ok and rel <= tol
        detail.append("d=%d rel=%.2e" % (d, rel))
    _report("5 rankin-selberg", ok, "; ".join(detail))


def test_criterion_6_special_functions():
    # symmetry <= 1e-10; K_{1/2} closed form <= 1e-8; ODE residual <= 1e-4;
    # Fourier identity <= 1e-6
    sym = 0.0
    for s in (0.3, 0.5 + 0.5j, 1.2 - 2j):
        for y in (0.1, 1.0, 5.0):
            a, b = bessel_k(s, y), bessel_k(-s, y)
            sym = max(sym, abs(a - b) / abs(a))
    half = abs(bessel_k(0.5, 1.0) - math.sqrt(math.pi / 2) * math.exp(-1)) \
        / (math.sqrt(math.pi / 2) * math.exp(-1))
    h = 1e-4
    ode = 0.0
    for s in (0.3, 0.5 + 0.5j, 1.2 - 2j):
        for y in (0.1, 1.0, 5.0):
            k0 = bessel_k(s, y)
            kp = (bessel_k(s, y + h) - bessel_k(s, y - h)) / (2 * h)
            kpp = (bessel_k(s, y + h) - 2 * k0 + bessel_k(s, y - h)) / h ** 2
            resid = abs(y * y * kpp + y * kp - (y * y + s * s) * k0) / (abs(k0) + 1)
            ode = max(ode, resid)
    from scipy.integrate import quad
    s, l, y = 1.3, 1.0, 1.0
    halfint, _ = quad(lambda t: (t * t + y * y) ** (-s), 0, 600,
                      weight="cos", wvar=2 * math.pi * l, limit=2000)
    lhs = y ** s * math.pi ** (-s) * gamma(s).real * 2 * halfint
    rhs = 2 * math.sqrt(y) * bessel_k(s - 0.5, 2 * math.pi * y).real
    four = abs(lhs - rhs) / abs(rhs)
    ok = sym <= 1e-10 and half <= 1e-8 and ode <= 1e-4 and four <= 1e-6
    _report("6 special-functions", ok,
            "sym=%.1e half=%.1e ode=%.1e fourier=%.1e" % (sym, half, ode, four))


def test_criterion_7_zeta():
    # functional equation <= 1e-6 on a 20-point strip grid; dual-method
    # <= 1e-8 on Re(s) in [1.5, 3]
    fe = 0.0
    grid = [complex(sig, t) for sig in (0.2, 0.35, 0.65, 0.8)
            for t in (1.0, 3.0, 6.0, 9.0, 12.0)]
    for d in (0, 5, -1):
        ctx = _CTX[d]
        for s in grid:
            a = Z.completed_zeta(ctx, s)
            b = Z.completed_zeta(ctx, 1 - s)
            fe = max(fe, abs(a - b) / abs(a))
    dual = 0.0
    for d in (5, -1):
        ctx = _CTX[d]
        for sig in (1.5, 2.0, 3.0):
            for t in (0.0, 5.0, 10.0):
                s = complex(sig, t)
                a = dedekind_zeta_series(ctx, s)
                b = Z.dedekind_zeta(ctx, s)
                dual = max(dual, abs(a - b) / abs(b))
    ok = fe <= 1e-6 and dual <= 1e-8
    _report("7 zeta", ok, "fe=%.1e dual=%.1e" % (fe, dual))


def test_criterion_8_geometry():
    # Lemma-2 shifts to 1e-9 for all generator types over all three fields;
    # height invariance to 1e-10 over 50 random triples; round trips to
    # 1e-10 over 200 fuzz points
    shift_err = 0.0
    for d, fd in _FIELDS.items():
        inf = G.cusp_infinity(fd)
        rng = random.Random(d + 9)
        z = random_point(fd, rng)
        lc = local_coords(inf, z, fd)
        # translations
        m = [1] * fd.n
        g = stabilizer_element(inf, None, 0, m, fd)
        lc2 = local_coords(inf, act(g, z, fd), fd)
        shift_err = max(shift_err, abs(lc2.q - lc.q),
                        *(abs(a - (b + mm)) for a, b, mm in
                          zip(lc2.X, lc.X, m + [0] * len(lc.X))))
        if fd.r > 1:  # fundamental unit
            g = stabilizer_element(inf, (1,), 0, None, fd)
            lc2 = local_coords(inf, act(g, z, fd), fd)
            shift_err = max(shift_err, abs(lc2.Y[0] - (lc.Y[0] + 1)))
            Em = unit_block_matrix(fd, fd.fundamental_unit)
            Om = x_basis_matrix(fd)
            pred = np.linalg.solve(Om, (Em @ Em) @ Om @ np.array(lc.X))
            shift_err = max(shift_err, float(np.abs(np.array(lc2.X) - pred).max()))
        if fd.omega > 2:  # root of unity twist
            g = stabilizer_element(inf, None, 1, None, fd)
            lc2 = local_coords(inf, act(g, z, fd), fd)
            w = F.roots_of_unity(fd)[1]
            Em = unit_block_matrix(fd, w)
            Om = x_basis_matrix(fd)
            pred = np.linalg.solve(Om, (Em @ Em) @ Om @ np.array(lc.X))
            shift_err = max(shift_err, float(np.abs(np.array(lc2.X) - pred).max()))
    inv_err = 0.0
    for d, fd in _FIELDS.items():
        rng = random.Random(d + 21)
        cusps = [G.cusp_infinity(fd), make_cusp(fd, 0, 1), make_cusp(fd, 1, 1)]
        for trial in range(50):
            g = random_group_element(fd, rng)
            lam = cusps[trial % 3]
            z = random_point(fd, rng)
            mu1 = height(lam, z, fd)
            rho = tuple(p + q for p, q in zip(mul(fd, g.a, lam.rho), mul(fd, g.b, lam.sigma)))
            sig = tuple(p + q for p, q in zip(mul(fd, g.c, lam.rho), mul(fd, g.d, lam.sigma)))
            mu2 = height(make_cusp(fd, rho, sig), act(g, z, fd), fd)
            inv_err = max(inv_err, abs(mu1 - mu2) / mu1)
    rt_err = 0.0
    for d, fd in _FIELDS.items():
        inf = G.cusp_infinity(fd)
        rng = random.Random(d + 33)
        for _ in range(200):
            z = random_point(fd, rng, 0.3, 3.0)
            lc = local_coords(inf, z, fd)
            w = from_local_coords(inf, lc, fd)
            for (x1, y1), (x2, y2) in zip(z.coords, w.coords):
                rt_err = max(rt_err, abs(complex(x1) - complex(x2)), abs(y1 - y2))
    ok = shift_err <= 1e-9 and inv_err <= 1e-10 and rt_err <= 1e-10
    _report("8 geometry", ok,
            "shift=%.1e invariance=%.1e roundtrip=%.1e" % (shift_err, inv_err, rt_err))


def test_criterion_9_equidistribution():
    t0 = time.time()
    fd = _FIELDS[0]
    f = Q.make_test_function(fd)
    rep_q = Q.decay_exponent_fit(f, fd, 3, 12)
    fd5 = _FIELDS[5]
    f5 = Q.make_test_function(fd5)
    rep_5 = Q.decay_exponent_fit(f5, fd5, 2, 8)
    dt = time.time() - t0
    ok = 0.5 <= rep_q.fitted_slope <= 1.1 and rep_5.fitted_slope >= 0.45 \
        and dt <= 600.0
    _report("9 equidistribution", ok,
            "Q slope=%.3f (markers 0.5/0.75), Q(sqrt5) slope=%.3f, t=%.0fs"
            % (rep_q.fitted_slope, rep_5.fitted_slope, dt))


def test_criterion_10_vertical_scan():
    fd, ctx = _FIELDS[0], _CTX[0]
    f = Q.TestFunction(*SCAN_BUMP, 1.0)
    scan = vertical_line_scan(f, 0.8, 20.0, fd, ctx)
    ok = scan["envelope_exponent"] <= 0.1
    _report("10 vertical-scan", ok,
            "envelope exponent=%.3f (O(t^eps) prediction)" % scan["envelope_exponent"])
