import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hilmod import fields as F
from hilmod.errors import UnsupportedField
from oracles import elements_of_norm, exact_divide, ideal_count_coeffs, pair_ideal_norm, unit_power


def brute_fundamental_unit(d):
    """Oracle: smallest unit > 1 by direct search over basis coordinates
    (u, v), 1 <= v < 200, |u| <= 400, in v-major order.  The norm of
    u + v omega is the integer form u^2 + uv - ((d-1)/4) v^2 when
    d = 1 (mod 4), where omega = (1 + sqrt d) / 2, and u^2 - d v^2 otherwise."""
    fd = F.make_field(d)
    v, u = (g.ravel() for g in np.meshgrid(np.arange(1, 200), np.arange(-400, 401),
                                            indexing="ij"))
    if d % 4 == 1:
        norm = u * u + u * v - (d - 1) // 4 * v * v
    else:
        norm = u * u - d * v * v
    unit = np.abs(norm) == 1
    best = None
    for uu, vv in zip(u[unit], v[unit]):
        el = fd.from_ring_coords(int(uu), int(vv))
        assert abs(el.norm()) == 1
        e1 = abs(F.embed(el, fd)[0])
        if e1 > 1 and (best is None or e1 < best[0]):
            best = (e1, el)
    return best[1]


def test_make_field_rational():
    fd = F.make_field(0)
    assert (fd.r1, fd.r2, fd.D, fd.omega) == (1, 0, 1, 2)
    assert fd.regulator == 1.0
    assert fd.fundamental_unit is None


def test_make_field_q5_unit_and_regulator():
    fd = F.make_field(5)
    assert fd.D == 5
    u = fd.fundamental_unit
    assert (u.a, u.b) == (Fraction(1, 2), Fraction(1, 2))  # (1+sqrt5)/2
    assert abs(fd.regulator - math.log((1 + math.sqrt(5)) / 2)) < 1e-12
    assert abs(fd.regulator - 0.481212) < 1e-6


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 13, 29, 41])
def test_fundamental_unit_matches_brute_oracle(d):
    fd = F.make_field(d)
    oracle = brute_fundamental_unit(d)
    q = fd.fundamental_unit / oracle
    assert q.is_integral() and abs(q.norm()) == 1
    # same absolute embedding means same unit up to sign
    assert abs(abs(F.embed(fd.fundamental_unit, fd)[0]) - abs(F.embed(oracle, fd)[0])) < 1e-12


def test_make_field_gaussian():
    fd = F.make_field(-1)
    assert (fd.r1, fd.r2, fd.D, fd.omega) == (0, 1, 4, 4)
    assert fd.regulator == 1.0
    # exactly four units of norm 1
    units = [u for u in elements_of_norm(fd, 1)]
    assert len(units) == 4


def test_make_field_eisenstein_omega6():
    fd = F.make_field(-3)
    assert fd.omega == 6 and fd.D == 3
    assert len(F.roots_of_unity(fd)) == 6


_ALL_FIELDS = (0,) + F.REAL_H1 + F.IMAG_H1


def _hand_roots_of_unity(fd):
    """The roots of unity as they were written out by hand: 1, i, -1, -i on
    Q(i), the powers of (1 + sqrt -3) / 2 on Q(sqrt -3), else 1 and -1."""
    one = F.fe_one(fd.d)
    if fd.d == -1:
        i = F.fe_sqrt_d(-1)
        return (one, i, -one, -i)
    if fd.d == -3:
        z = F.FieldElement.make(Fraction(1, 2), Fraction(1, 2), -3)
        out, cur = [one], z
        for _ in range(5):
            out.append(cur)
            cur = cur * z
        return tuple(out)
    return (one, -one)


@pytest.mark.parametrize("d", _ALL_FIELDS)
def test_roots_of_unity_match_hand_tuples(d):
    fd = F.make_field(d)
    assert F.roots_of_unity(fd) == _hand_roots_of_unity(fd)
    assert fd.omega == {-1: 4, -3: 6}.get(d, 2)


@pytest.mark.parametrize("d", [10, 15, -5, -6, 12, 1])
def test_unsupported_fields_rejected(d):
    with pytest.raises(UnsupportedField):
        F.make_field(d)


def test_embed_golden_ratio(field_q5):
    x = field_q5.fundamental_unit
    e1, e2 = F.embed(x, field_q5)
    assert abs(e1 - 1.618033988749895) < 1e-12
    assert abs(e2 + 0.618033988749895) < 1e-12
    assert abs(e1 * e2 - float(x.norm())) < 1e-12  # product = N = -1


def test_embed_identity_and_gaussian(field_q5, field_qi):
    one = field_q5.element(1)
    assert F.embed(one, field_q5) == (1.0, 1.0)
    i = field_qi.element(0, 1)
    assert F.embed(i, field_qi)[0] == 1j


@given(a1=st.integers(-9, 9), b1=st.integers(-9, 9),
       a2=st.integers(-9, 9), b2=st.integers(-9, 9))
@settings(max_examples=60, deadline=None)
def test_embed_multiplicative_q5(a1, b1, a2, b2):
    fd = F.make_field(5)
    x = fd.element(a1, b1)
    y = fd.element(a2, b2)
    ex, ey = F.embed(x, fd), F.embed(y, fd)
    exy = F.embed(x * y, fd)
    for i in range(2):
        assert abs(exy[i] - ex[i] * ey[i]) <= 1e-12 * (1 + abs(exy[i]))


def test_norm_trace_against_embeddings(field_q5, field_qi):
    x = field_q5.element(Fraction(3, 2), Fraction(-1, 2))
    e1, e2 = F.embed(x, field_q5)
    assert abs(e1 * e2 - float(x.norm())) < 1e-12
    assert abs(e1 + e2 - float(x.trace())) < 1e-12
    z = field_qi.element(2, 3)
    (e,) = F.embed(z, field_qi)
    assert abs(abs(e) ** 2 - float(z.norm())) < 1e-12


def test_unit_power_exact(field_q5):
    u2 = unit_power(field_q5, 2)
    assert (u2.a, u2.b) == (Fraction(3, 2), Fraction(1, 2))  # (3+sqrt5)/2
    assert unit_power(field_q5, 0) == F.fe_one(5)
    inv = unit_power(field_q5, -1)
    assert (inv * field_q5.fundamental_unit) == F.fe_one(5)
    for k in range(-6, 7):
        assert abs(unit_power(field_q5, k).norm()) == 1


def _orbit_key(fd, el):
    """Canonical unit-orbit representative: balance the embeddings by the
    right fundamental-unit power, then order size-first so the minimum sits
    strictly inside the scanned power window (orbit-intrinsic)."""
    sized = lambda c: (max(abs(c[0]), abs(c[1])), c)
    cands = []
    if fd.d > 0:
        e1, e2 = (abs(v) for v in F.embed(el, fd))
        k0 = round(-math.log(e1 / e2) / (2 * fd.regulator))
        for k in range(k0 - 5, k0 + 6):
            m = el * unit_power(fd, k)
            cands.extend([sized(m.ring_coords()), sized((-m).ring_coords())])
    else:
        for w in F.roots_of_unity(fd):
            cands.append(sized((el * w).ring_coords()))
    return min(cands)


def brute_ideal_counts_quadratic(fd, N):
    """Oracle: count elements of each norm up to N, one per unit orbit."""
    counts = [0] * (N + 1)
    seen = set()
    bound = N
    for v in range(-4 * bound, 4 * bound + 1):
        for u in range(-4 * bound, 4 * bound + 1):
            el = fd.from_ring_coords(u, v)
            n = el.norm()
            if n == 0 or abs(n) > N:
                continue
            key = _orbit_key(fd, el)
            if key in seen:
                continue
            seen.add(key)
            counts[abs(int(n))] += 1
    return counts[1:]


def test_ideal_counts_rational(field_q):
    assert ideal_count_coeffs(field_q, 10) == [1] * 10


def test_ideal_counts_gaussian_examples(field_qi):
    a = ideal_count_coeffs(field_qi, 12)
    assert a[4] == 2 and a[2] == 0 and a[1] == 1  # a_5, a_3, a_2
    brute = brute_ideal_counts_quadratic(field_qi, 12)
    assert a == brute


def test_ideal_counts_q5_examples(field_q5):
    a = ideal_count_coeffs(field_q5, 12)
    assert a[3] == 1 and a[4] == 1 and a[10] == 2  # a_4, a_5, a_11
    brute = brute_ideal_counts_quadratic(field_q5, 12)
    assert a == brute


@given(m=st.integers(2, 40), n=st.integers(2, 40))
@settings(max_examples=60, deadline=None)
def test_ideal_counts_multiplicative(m, n):
    if math.gcd(m, n) != 1:
        return
    fd = F.make_field(-7)
    a = ideal_count_coeffs(fd, m * n)
    assert a[m * n - 1] == a[m - 1] * a[n - 1]
    assert all(v >= 0 for v in a)


def test_pair_ideal_norm_and_gcd(field_q, field_qi, field_q5):
    six, four = field_q.element(6), field_q.element(4)
    assert pair_ideal_norm(six, four, field_q) == 2
    g = F.ideal_gcd_generator(six, four, field_q)
    assert abs(g.a) == 2
    # <1+i, 2> = (1+i) in Z[i]
    opi = field_qi.element(1, 1)
    two = field_qi.element(2)
    assert pair_ideal_norm(opi, two, field_qi) == 2
    g = F.ideal_gcd_generator(opi, two, field_qi)
    assert abs(g.norm()) == 2
    # coprime pair
    assert pair_ideal_norm(field_q5.element(2), field_q5.ring_gen, field_q5) == 1


@pytest.mark.parametrize("d,rho,sigma", [
    (0, 3, 5), (5, (1, 1), (2, 0)), (-1, (2, 1), (1, 1)), (-7, (3, 0), (1, 1)),
])
def test_bezout(d, rho, sigma):
    fd = F.make_field(d)
    conv = lambda v: fd.from_ring_coords(*v) if isinstance(v, tuple) else fd.element(v)
    r, s = conv(rho), conv(sigma)
    assert pair_ideal_norm(r, s, fd) == 1
    xi, eta = F.solve_bezout(r, s, fd)
    assert (r * eta - s * xi) == F.fe_one(d)
    assert xi.is_integral() and eta.is_integral()


_BEZOUT_FIELDS = {d: F.make_field(d) for d in (0, 5, -1, -3, 13, 41, -163)}
_BIG = st.integers(-10 ** 6, 10 ** 6)


@given(d=st.sampled_from(sorted(_BEZOUT_FIELDS)), c=st.tuples(_BIG, _BIG, _BIG, _BIG))
@settings(max_examples=200, deadline=None)
def test_bezout_exact_and_reduced(d, c):
    # exact for large entries, and eta / sigma reduced into the unit box
    fd = _BEZOUT_FIELDS[d]
    u1, v1, u2, v2 = c if fd.n == 2 else (c[0], 0, c[2], 0)
    rho, sigma = fd.from_ring_coords(u1, v1), fd.from_ring_coords(u2, v2)
    assume(not sigma.is_zero() and pair_ideal_norm(rho, sigma, fd) == 1)
    xi, eta = F.solve_bezout(rho, sigma, fd)
    assert rho * eta - sigma * xi == F.fe_one(d)
    assert xi.is_integral() and eta.is_integral()
    assert all(-Fraction(1, 2) <= w < Fraction(1, 2) for w in (eta / sigma).coords())


def _minor_gcd(fd, x, y):
    """Index of <x, y> in o from the gcd of the 2x2 minors of the rows
    x, x omega, y, y omega, built by field-element arithmetic."""
    rows = [el.ring_coords() for a in (x, y) for el in (a, a * fd.ring_gen)]
    if fd.n == 1:
        return math.gcd(*(r[0] for r in rows))
    return math.gcd(*(p[0] * q[1] - p[1] * q[0] for p, q in itertools.combinations(rows, 2)))


@pytest.mark.parametrize("d", [0, 5, -1, -7])
def test_pair_ideal_norm_matches_minors_and_mask(d):
    fd = F.make_field(d)
    box, vbox = range(-4, 5), range(-4, 5) if d else [0]
    coords = np.array([c for c in itertools.product(box, vbox, box, vbox) if any(c)])
    norms = []
    for c1, c2, d1, d2 in coords.tolist():
        x, y = fd.from_ring_coords(c1, c2), fd.from_ring_coords(d1, d2)
        norms.append(pair_ideal_norm(x, y, fd))
        assert norms[-1] == _minor_gcd(fd, x, y)
    norms = np.array(norms)
    assert (norms == 1).any() and (norms > 1).any()
    np.testing.assert_array_equal(F._coprime_mask(fd, *coords.T), norms == 1)


@pytest.mark.parametrize("d", [0, 5, -1, -7])
def test_gcd_generator_generates_the_pair_ideal(d):
    # same ideal: the integral modules <s g> and <s x, s y> have one HNF
    fd = F.make_field(d)
    rng = random.Random(17 + d)
    elem = lambda lo, hi: fd.from_ring_coords(rng.randint(lo, hi), rng.randint(lo, hi) if d else 0)
    hnf = lambda *els: F._hnf(F._ideal_rows(fd, *els))[0][:fd.n]
    for trial in range(24):
        k = elem(1, 5)
        x, y = k * elem(-3, 3), k * elem(-3, 3)
        if x.is_zero() and y.is_zero():
            continue
        if d == 5 and trial % 2:
            x, y = x * fd.element(Fraction(1, 2)), y / fd.from_ring_coords(2, 1)  # norm 5
        g = F.ideal_gcd_generator(x, y, fd)
        s = fd.element(math.lcm(*(w.denominator for el in (x, y) for w in el.coords())))
        assert hnf(g * s) == hnf(x * s, y * s)
        assert exact_divide(x, g, fd) is not None and exact_divide(y, g, fd) is not None
        # the box search's common divisors of norm N: g s is the one in canonical form
        divs = [e for e in elements_of_norm(fd, pair_ideal_norm(x * s, y * s, fd))
                if exact_divide(x * s, e, fd) is not None and exact_divide(y * s, e, fd) is not None]
        cu, cv = (np.array([e.ring_coords()[i] for e in divs]) for i in (0, 1))
        canonical = F._canonical_c(fd, cu, cv) & F._unit_balanced(fd, cu, cv)
        assert [e for e, c in zip(divs, canonical) if c] == [g * s]


@pytest.mark.parametrize("d", [0, 5, -1, -3, -7, 13])
def test_canonical_c_one_per_torsion_orbit(d):
    # of the w c, w over the roots of unity, exactly one is torsion-canonical
    # for every c != 0 of the box [-40, 40]^2
    fd = F.make_field(d)
    r = np.arange(-40, 41)
    u, v = (a.ravel() for a in np.meshgrid(r, r if fd.n == 2 else [0]))
    u, v = u[(u != 0) | (v != 0)], v[(u != 0) | (v != 0)]
    hits = sum(F._canonical_c(fd, *F._coord_mul(fd, *w.ring_coords(), u, v)).astype(int)
               for w in F.roots_of_unity(fd))
    assert np.all(hits == 1)


_GCD_FIELDS = {d: F.make_field(d) for d in (0, 5, -1, -3, 13, 19, 41, -163)}
_ENTRY = st.integers(-10 ** 3, 10 ** 3)
_ball_points = F._ball_points


@given(d=st.sampled_from(sorted(_GCD_FIELDS)), c=st.tuples(*[_ENTRY] * 6))
@settings(max_examples=200, deadline=None)
def test_gcd_generator_exact_and_canonical(d, c):
    # x = k a and y = k b, entries up to about 10^6, k not a unit: g generates
    # <x, y> (one HNF), is in canonical form, does not move when x is
    # multiplied by a unit, and its ball holds a few hundred points at most
    fd = _GCD_FIELDS[d]
    k, a, b = (fd.from_ring_coords(c[i], c[i + 1] if fd.n == 2 else 0) for i in (0, 2, 4))
    assume(abs(k.norm()) > 1 and not (a.is_zero() and b.is_zero()))
    x, y = k * a, k * b
    sizes = []

    def counted(*args):
        out = _ball_points(*args)
        sizes.append(out[0].size)
        return out
    with mock.patch.object(F, "_ball_points", counted):
        g = F.ideal_gcd_generator(x, y, fd)
    hnf = lambda *els: F._hnf(F._ideal_rows(fd, *els))[0][:fd.n]
    assert hnf(g) == hnf(x, y)
    gu, gv = (np.array([v]) for v in g.ring_coords())
    assert F._canonical_c(fd, gu, gv)[0] and F._unit_balanced(fd, gu, gv)[0]
    unit = F.roots_of_unity(fd)[1] * (fd.fundamental_unit if fd.r == 2 else F.fe_one(d))
    assert F.ideal_gcd_generator(unit * x, y, fd) == g
    assert sizes == [sizes[0]] and sizes[0] <= 300


@pytest.mark.parametrize("d", [0, 5, -3, 19])
def test_gcd_generator_beyond_int64(d):
    # coordinates past 2^63: the norm test and the masks run on Python ints
    fd = _GCD_FIELDS[d]
    k, a, b = (fd.from_ring_coords(u, v if fd.n == 2 else 0)
               for u, v in ((10 ** 12 + 39, 7 * 10 ** 11), (3 * 10 ** 9, 5), (11, 10 ** 10)))
    g = F.ideal_gcd_generator(k * a, k * b, fd)
    assert max(abs(c) for c in (k * a).ring_coords()) > 2 ** 63
    assert F._hnf(F._ideal_rows(fd, g))[0][:fd.n] == F._hnf(F._ideal_rows(fd, k * a, k * b))[0][:fd.n]


def test_divisor_norms(field_q, field_qi):
    assert sorted(F.ideal_divisor_norms(field_q, field_q.element(6))) == [1, 2, 3, 6]
    five = field_qi.element(5)
    assert sorted(F.ideal_divisor_norms(field_qi, five)) == [1, 5, 5, 25]


def test_totient_sums_rational(field_q):
    T = F.ideal_totient_sums(field_q, 30)
    euler = [sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
             for n in range(1, 31)]
    assert T == euler


def test_totient_sums_gaussian_brute(field_qi):
    T = F.ideal_totient_sums(field_qi, 25)
    # oracle: enumerate ideals by generators mod units, totient by divisors
    for n in range(1, 26):
        total = 0
        seen = set()
        for el in elements_of_norm(field_qi, n):
            orbit = min((el * w).ring_coords() for w in F.roots_of_unity(field_qi))
            if orbit in seen:
                continue
            seen.add(orbit)
            fact = F.ideal_factorization(field_qi, el)
            phi = 1
            for p, e in fact:
                phi *= (p ** e - p ** (e - 1))
            total += phi
        assert T[n - 1] == total, n


def test_kronecker_against_quadratic_residues():
    for p in (3, 5, 7, 11, 13):
        residues = {(x * x) % p for x in range(1, p)}
        for a in range(1, p):
            expect = 1 if a in residues else -1
            assert F.kronecker(a, p) == expect


def _valuation_search_divisor_norms(fd, x, gens):
    """Reference for ideal_divisor_norms: the exponent of each prime ideal
    above a split or ramified p | N(x) found by repeated exact division by
    a generator of norm p (gens caches one per p); inert and rational p
    read the exponent off N(x)."""
    fact = []
    for p, e in F.factor_int(int(x.norm())):
        ty = F.split_type(fd, p)
        if ty in ("rational", "inert"):
            fact.append((p, e) if ty == "rational" else (p * p, e // 2))
            continue
        if p not in gens:
            gens[p] = elements_of_norm(fd, p)[0]
        for pi in [gens[p]] if ty == "ramified" else [gens[p], gens[p].conjugate()]:
            v, cur = 0, exact_divide(x, pi, fd)
            while cur is not None:
                v, cur = v + 1, exact_divide(cur, pi, fd)
            fact.append((p, v))
    norms = [1]
    for q, k in fact:
        norms = [m * q ** j for m in norms for j in range(k + 1)]
    return sorted(norms)


@pytest.mark.parametrize("d", [0, 5, -1, 2, -3, 13, -7])
def test_divisor_norms_match_valuation_search(d):
    fd = F.make_field(d)
    gens = {}
    for u in range(-9, 10):
        for v in range(-9, 10) if d else [0]:
            if u or v:
                x = fd.from_ring_coords(u, v)
                assert sorted(F.ideal_divisor_norms(fd, x)) \
                    == _valuation_search_divisor_norms(fd, x, gens), (u, v)


@pytest.mark.parametrize("d", [0, 5, -1, 2, -3, 13, -7])
def test_from_ring_coords_matches_product_form(d):
    fd = F.make_field(d)
    for u in range(-12, 13):
        for v in range(-12, 13):
            want = fd.integral_basis[0] * fd.element(u) + fd.ring_gen * fd.element(v)
            assert fd.from_ring_coords(u, v) == want
