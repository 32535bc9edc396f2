import itertools
import math
import random
import time
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.numberfields.basis import round_two
from sympy.polys.numberfields.modules import to_col
from sympy.polys.numberfields.primes import prime_decomp

import oracles
from hilmod import fields as F
from hilmod.errors import UnsupportedField
from oracles import (_adjugate, elements_of_norm, embed, exact_divide, ideal_count_coeffs,
                     ideal_gcd_generator, ideal_hnf, mul, pair_ideal_norm, solve_bezout,
                     unit_inverse, unit_power)


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
        el = (int(uu), int(vv))
        assert abs(F._coord_norm(fd, *el)) == 1
        e1 = abs(embed(fd, el)[0])
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
    assert fd.fundamental_unit == (0, 1)  # omega = (1+sqrt5)/2
    assert abs(fd.regulator - math.log((1 + math.sqrt(5)) / 2)) < 1e-12
    assert abs(fd.regulator - 0.481212) < 1e-6


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 13, 29, 41])
def test_fundamental_unit_matches_brute_oracle(d):
    fd = F.make_field(d)
    oracle = brute_fundamental_unit(d)
    q = exact_divide(fd.fundamental_unit, oracle, fd)
    assert q is not None and abs(F._coord_norm(fd, *q)) == 1
    # same absolute embedding means same unit up to sign
    assert abs(abs(embed(fd, fd.fundamental_unit)[0]) - abs(embed(fd, oracle)[0])) < 1e-12


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
    """The roots of unity written out by hand in ring coordinates: 1, i, -1,
    -i on Q(i) (omega = i), the powers 1, omega, omega - 1, -1, -omega,
    1 - omega of omega = (1 + sqrt -3) / 2 on Q(sqrt -3), else 1 and -1."""
    if fd.d == -1:
        return ((1, 0), (0, 1), (-1, 0), (0, -1))
    if fd.d == -3:
        return ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
    return ((1, 0), (-1, 0))


@pytest.mark.parametrize("d", _ALL_FIELDS)
def test_roots_of_unity_match_hand_tuples(d):
    fd = F.make_field(d)
    assert F.roots_of_unity(fd) == _hand_roots_of_unity(fd)
    assert fd.omega == {-1: 4, -3: 6}.get(d, 2)


@pytest.mark.parametrize("d", [10, 15, -5, -6, 12, 1])
def test_unsupported_fields_rejected(d):
    with pytest.raises(UnsupportedField):
        F.make_field(d)


def test_make_field_refuses_a_large_d_at_once():
    # a squarefree test by trial division ran before the allow lists were
    # read: 0.16 s at this d, growing like sqrt(d)
    d = sympy.nextprime(10 ** 12)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        with pytest.raises(UnsupportedField):
            F.make_field(d)
        times.append(time.perf_counter() - t0)
    assert min(times) < 1e-3, times


def test_embed_golden_ratio(field_q5):
    # the unit's place values, as the field keeps them
    x = field_q5.fundamental_unit
    e1, e2 = embed(field_q5, x)
    assert (e1, e2) == tuple(v.real for v in field_q5.unit_places)
    assert abs(e1 - 1.618033988749895) < 1e-12
    assert abs(e2 + 0.618033988749895) < 1e-12
    assert abs(e1 * e2 - F._coord_norm(field_q5, *x)) < 1e-12  # product = N = -1


def test_embed_identity_and_gaussian(field_q5, field_qi):
    assert embed(field_q5, (1, 0)) == (1.0, 1.0)
    assert embed(field_qi, (0, 1))[0] == 1j  # omega = i
    assert field_qi.omega_places == (1j,)


@given(a1=st.integers(-9, 9), b1=st.integers(-9, 9),
       a2=st.integers(-9, 9), b2=st.integers(-9, 9))
@settings(max_examples=60, deadline=None)
def test_embed_multiplicative_q5(a1, b1, a2, b2):
    fd = F.make_field(5)
    x, y = (a1, b1), (a2, b2)
    ex, ey = embed(fd, x), embed(fd, y)
    exy = embed(fd, mul(fd, x, y))
    for i in range(2):
        assert abs(exy[i] - ex[i] * ey[i]) <= 1e-12 * (1 + abs(exy[i]))


def test_norm_trace_against_embeddings(field_q5, field_qi):
    x = (2, -1)  # 3/2 - sqrt(5)/2
    e1, e2 = embed(field_q5, x)
    assert abs(e1 * e2 - F._coord_norm(field_q5, *x)) < 1e-12
    trace = x[0] + F._coord_conj(field_q5, *x)[0]  # x + sigma(x) = (2u + s v) + 0 omega
    assert abs(e1 + e2 - trace) < 1e-12
    z = (2, 3)  # 2 + 3i
    (e,) = embed(field_qi, z)
    assert abs(abs(e) ** 2 - F._coord_norm(field_qi, *z)) < 1e-12


def test_unit_power_exact(field_q5):
    assert unit_power(field_q5, 2) == (1, 1)  # (3+sqrt5)/2 = 1 + omega
    assert unit_power(field_q5, 0) == (1, 0)
    inv = unit_power(field_q5, -1)
    assert mul(field_q5, inv, field_q5.fundamental_unit) == (1, 0)
    for k in range(-6, 7):
        assert abs(F._coord_norm(field_q5, *unit_power(field_q5, k))) == 1


def _orbit_key(fd, el):
    """Canonical unit-orbit representative: balance the embeddings by the
    right fundamental-unit power, then order size-first so the minimum sits
    strictly inside the scanned power window (orbit-intrinsic)."""
    sized = lambda c: (max(abs(c[0]), abs(c[1])), c)
    cands = []
    if fd.d > 0:
        e1, e2 = (abs(v) for v in embed(fd, el))
        k0 = round(-math.log(e1 / e2) / (2 * fd.regulator))
        for k in range(k0 - 5, k0 + 6):
            m = mul(fd, el, unit_power(fd, k))
            cands.extend([sized(m), sized((-m[0], -m[1]))])
    else:
        for w in F.roots_of_unity(fd):
            cands.append(sized(mul(fd, el, w)))
    return min(cands)


def brute_ideal_counts_quadratic(fd, N):
    """Oracle: count elements of each norm up to N, one per unit orbit."""
    counts = [0] * (N + 1)
    seen = set()
    bound = N
    for v in range(-4 * bound, 4 * bound + 1):
        for u in range(-4 * bound, 4 * bound + 1):
            el = (u, v)
            n = F._coord_norm(fd, u, v)
            if n == 0 or abs(n) > N:
                continue
            key = _orbit_key(fd, el)
            if key in seen:
                continue
            seen.add(key)
            counts[abs(n)] += 1
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


@pytest.mark.parametrize("d", _ALL_FIELDS)
def test_sieved_mobius_inverts_the_ideals_off_two(d):
    # mu_S convolved with the count of ideals of norm n that (2) does not
    # divide, a(n) - a(n / N(2)), is delta(n = 1), exactly, for n <= 2000
    fd = F.make_field(d)
    N, q = 2000, 2 ** fd.n
    a = np.array([0] + ideal_count_coeffs(fd, N), dtype=np.int64)
    a[q::q] -= a[1:N // q + 1].copy()
    mu = F.sieved_mobius_sums(fd, N)
    assert mu.shape == (N + 1,) and mu[0] == 0
    conv = np.zeros(N + 1, dtype=np.int64)
    for m in np.flatnonzero(mu):
        conv[m::m] += mu[m] * a[1:N // m + 1]
    assert conv[1] == 1 and not conv[2:].any()


@pytest.mark.parametrize("d", _ALL_FIELDS)
def test_totient_sums_convolve_to_n_times_the_ideal_counts(d):
    # sum T(n) n^-s = zeta_K(s - 1) / zeta_K(s), so T * a = n a(n) exactly,
    # with a(n) the ideal counts of the oracle, which uses no sieve
    fd = F.make_field(d)
    N = 2000
    T = np.array([0] + F.ideal_totient_sums(fd, N), dtype=np.int64)
    a = np.array([0] + ideal_count_coeffs(fd, N), dtype=np.int64)
    conv = np.zeros(N + 1, dtype=np.int64)
    for m in range(1, N + 1):
        conv[m::m] += T[m] * a[1:N // m + 1]
    assert np.array_equal(conv, np.arange(N + 1) * a)


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
    six, four = (6, 0), (4, 0)
    assert pair_ideal_norm(six, four, field_q) == 2
    g = ideal_gcd_generator(six, four, field_q)
    assert abs(g[0]) == 2
    # <1+i, 2> = (1+i) in Z[i]
    opi = (1, 1)
    two = (2, 0)
    assert pair_ideal_norm(opi, two, field_qi) == 2
    g = ideal_gcd_generator(opi, two, field_qi)
    assert abs(F._coord_norm(field_qi, *g)) == 2
    # coprime pair: 2 and omega
    assert pair_ideal_norm((2, 0), (0, 1), field_q5) == 1


@pytest.mark.parametrize("d,rho,sigma", [
    (0, 3, 5), (5, (1, 1), (2, 0)), (-1, (2, 1), (1, 1)), (-7, (3, 0), (1, 1)),
])
def test_bezout(d, rho, sigma):
    fd = F.make_field(d)
    r, s = ((v, 0) if isinstance(v, int) else v for v in (rho, sigma))
    assert pair_ideal_norm(r, s, fd) == 1
    xi, eta = solve_bezout(r, s, fd)
    assert _det(fd, r, xi, s, eta) == (1, 0)
    assert all(isinstance(c, int) for c in xi + eta)  # in o


_BEZOUT_FIELDS = {d: F.make_field(d) for d in (0, 5, -1, -3, 13, 41, -163)}
_BIG = st.integers(-10 ** 6, 10 ** 6)


@given(d=st.sampled_from(sorted(_BEZOUT_FIELDS)), c=st.tuples(_BIG, _BIG, _BIG, _BIG))
@settings(max_examples=200, deadline=None)
def test_bezout_exact_and_reduced(d, c):
    # exact for large entries, and eta / sigma reduced into the unit box
    fd = _BEZOUT_FIELDS[d]
    u1, v1, u2, v2 = c if fd.n == 2 else (c[0], 0, c[2], 0)
    rho, sigma = (u1, v1), (u2, v2)
    assume(sigma != (0, 0) and pair_ideal_norm(rho, sigma, fd) == 1)
    xi, eta = solve_bezout(rho, sigma, fd)
    assert _det(fd, rho, xi, sigma, eta) == (1, 0)
    assert all(isinstance(c, int) for c in xi + eta)  # in o
    # eta / sigma = eta sigma' / N(sigma): each coordinate w / N in [-1/2, 1/2)
    N = F._coord_norm(fd, *sigma)
    assert all(-N * N <= 2 * w * N < N * N for w in mul(fd, eta, _adjugate(fd, sigma)))


def _det(fd, a, b, c, d):
    """a d - b c in ring coordinates."""
    return tuple(p - q for p, q in zip(mul(fd, a, d), mul(fd, b, c)))


def _minor_gcd(fd, x, y):
    """Index of <x, y> in o from the gcd of the 2x2 minors of the rows
    x, x omega, y, y omega, built by ring-coordinate products."""
    rows = [el for a in (x, y) for el in (a, mul(fd, a, (0, 1) if fd.n == 2 else (1, 0)))]
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
        x, y = (c1, c2), (d1, d2)
        norms.append(pair_ideal_norm(x, y, fd))
        assert norms[-1] == _minor_gcd(fd, x, y)
    norms = np.array(norms)
    assert (norms == 1).any() and (norms > 1).any()
    np.testing.assert_array_equal(F._coprime_mask(fd, *coords.T), norms == 1)


@pytest.mark.parametrize("d", [0, 5, -1, -7])
def test_gcd_generator_generates_the_pair_ideal(d):
    # same ideal: <g> and <x, y> have one HNF
    fd = F.make_field(d)
    rng = random.Random(17 + d)
    elem = lambda lo, hi: (rng.randint(lo, hi), rng.randint(lo, hi) if d else 0)
    for trial in range(24):
        k = elem(1, 5)
        x, y = mul(fd, k, elem(-3, 3)), mul(fd, k, elem(-3, 3))
        if x == y == (0, 0):
            continue
        if d == 5 and trial % 2:
            # 10 (x / 2, y / (2 + omega)), with 5 / (2 + omega) = 3 - omega
            x, y = mul(fd, (5, 0), x), mul(fd, (2, 0), y, (3, -1))
        g = ideal_gcd_generator(x, y, fd)
        assert ideal_hnf(fd, g) == ideal_hnf(fd, x, y)
        assert exact_divide(x, g, fd) is not None and exact_divide(y, g, fd) is not None
        # the box search's common divisors of norm N: g is the one in canonical form
        divs = [e for e in elements_of_norm(fd, pair_ideal_norm(x, y, fd))
                if exact_divide(x, e, fd) is not None and exact_divide(y, e, fd) is not None]
        cu, cv = (np.array([e[i] for e in divs]) for i in (0, 1))
        canonical = F._canonical_c(fd, cu, cv) & F._unit_balanced(fd, cu, cv)
        assert [e for e, c in zip(divs, canonical) if c] == [g]


@pytest.mark.parametrize("d", [0, 5, -1, -3, -7, 13])
def test_canonical_c_one_per_torsion_orbit(d):
    # of the w c, w over the roots of unity, exactly one is torsion-canonical
    # for every c != 0 of the box [-40, 40]^2
    fd = F.make_field(d)
    r = np.arange(-40, 41)
    u, v = (a.ravel() for a in np.meshgrid(r, r if fd.n == 2 else [0]))
    u, v = u[(u != 0) | (v != 0)], v[(u != 0) | (v != 0)]
    hits = sum(F._canonical_c(fd, *F._coord_mul(fd, *w, u, v)).astype(int)
               for w in F.roots_of_unity(fd))
    assert np.all(hits == 1)


@given(ranges=st.lists(st.tuples(st.integers(-50, 50), st.integers(-3, 40)), max_size=30),
       block=st.integers(1, 50))
@settings(max_examples=200, deadline=None)
def test_ragged_blocks_lay_the_ranges_end_to_end(ranges, block):
    # against the ranges listed value by value: the blocks hold every value
    # once, in order, each block full but the last, and no piece is empty
    lo = np.array([a for a, _ in ranges], dtype=np.int64)
    hi = np.array([a + w for a, w in ranges], dtype=np.int64)
    want = [(j, v) for j, (a, w) in enumerate(ranges) for v in range(a, a + w + 1)]
    with mock.patch.object(F, "_PAIR_BLOCK", block):
        blocks = list(F._ragged_blocks(lo, hi))
    got = [(j, v) for rows, v0, n in blocks
           for j, a, k in zip(rows.tolist(), v0.tolist(), n.tolist()) for v in range(a, a + k)]
    assert got == want
    assert all(n.min() > 0 for _, _, n in blocks)
    assert [int(n.sum()) for _, _, n in blocks[:-1]] == [block] * (len(blocks) - 1)


_GCD_FIELDS = {d: F.make_field(d) for d in (0, 5, -1, -3, 13, 19, 41, -163)}
_ENTRY = st.integers(-10 ** 3, 10 ** 3)
_ball_points = oracles._ball_points


@given(d=st.sampled_from(sorted(_GCD_FIELDS)), c=st.tuples(*[_ENTRY] * 6))
@settings(max_examples=200, deadline=None)
def test_gcd_generator_exact_and_canonical(d, c):
    # x = k a and y = k b, entries up to about 10^6, k not a unit: g generates
    # <x, y> (one HNF), is in canonical form, does not move when x is
    # multiplied by a unit, and its ball holds a few hundred points at most
    fd = _GCD_FIELDS[d]
    k, a, b = ((c[i], c[i + 1] if fd.n == 2 else 0) for i in (0, 2, 4))
    assume(abs(F._coord_norm(fd, *k)) > 1 and not a == b == (0, 0))
    x, y = mul(fd, k, a), mul(fd, k, b)
    sizes = []

    def counted(*args):
        out = _ball_points(*args)
        sizes.append(out[0].size)
        return out
    with mock.patch.object(oracles, "_ball_points", counted):
        g = ideal_gcd_generator(x, y, fd)
    assert ideal_hnf(fd, g) == ideal_hnf(fd, x, y)
    gu, gv = (np.array([v]) for v in g)
    assert F._canonical_c(fd, gu, gv)[0] and F._unit_balanced(fd, gu, gv)[0]
    unit = mul(fd, F.roots_of_unity(fd)[1], fd.fundamental_unit if fd.r == 2 else (1, 0))
    assert ideal_gcd_generator(mul(fd, unit, x), y, fd) == g
    assert sizes == [sizes[0]] and sizes[0] <= 300


@pytest.mark.parametrize("d", [0, 5, -3, 19])
def test_gcd_generator_beyond_int64(d):
    # coordinates past 2^63: the norm test and the masks run on Python ints
    fd = _GCD_FIELDS[d]
    k, a, b = ((u, v if fd.n == 2 else 0)
               for u, v in ((10 ** 12 + 39, 7 * 10 ** 11), (3 * 10 ** 9, 5), (11, 10 ** 10)))
    g = ideal_gcd_generator(mul(fd, k, a), mul(fd, k, b), fd)
    assert max(abs(c) for c in mul(fd, k, a)) > 2 ** 63
    assert ideal_hnf(fd, g) == ideal_hnf(fd, mul(fd, k, a), mul(fd, k, b))


def test_divisor_norms(field_q, field_qi):
    assert sorted(F.ideal_divisor_norms(field_q, 6, 0)) == [1, 2, 3, 6]
    assert sorted(F.ideal_divisor_norms(field_qi, 5, 0)) == [1, 5, 5, 25]


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
            orbit = min(mul(field_qi, el, w) for w in F.roots_of_unity(field_qi))
            if orbit in seen:
                continue
            seen.add(orbit)
            fact = F.ideal_factorization(field_qi, *el)
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
    a generator of norm p (gens caches one per p), and at a split p by its
    conjugate too; an inert p reads the exponent off N(x)."""
    fact = []
    for p, e in F.factor_int(F._coord_norm(fd, *x)):
        norms = F._prime_norms(fd, p)
        if norms == (p * p,):
            fact.append((p * p, e // 2))
            continue
        if p not in gens:
            gens[p] = elements_of_norm(fd, p)[0]
        for pi in [gens[p], F._coord_conj(fd, *gens[p])][:len(norms)]:
            v, cur = 0, exact_divide(x, pi, fd)
            while cur is not None:
                v, cur = v + 1, exact_divide(cur, pi, fd)
            fact.append((p, v))
    norms = [1]
    for q, k in fact:
        norms = [m * q ** j for m in norms for j in range(k + 1)]
    return sorted(norms)


@pytest.mark.parametrize("d", [5, -1, 2, -3, 13, -7, 41, -163])
def test_prime_norms_match_sympy(d):
    for p in sympy.primerange(2, 60):
        assert F._prime_norms(F.make_field(d), p) == tuple(
            sorted(int(P.p) ** P.f for P in _sympy_primes(d, p))), p


@pytest.mark.parametrize("d", [0, 5, -1, 2, -3, 13, -7])
def test_divisor_norms_match_valuation_search(d):
    fd = F.make_field(d)
    gens = {}
    for u in range(-9, 10):
        for v in range(-9, 10) if d else [0]:
            if u or v:
                assert sorted(F.ideal_divisor_norms(fd, u, v)) \
                    == _valuation_search_divisor_norms(fd, (u, v), gens), (u, v)


# sympy's exact arithmetic in Q(sqrt d): r stands for sqrt d, and numbers
# are polynomials in r reduced mod r^2 - d
_R = sympy.Symbol("r")


def _sym(d, x):
    """x = (u, v), u + v omega with omega = (1 + r) / 2 or r (v = 0 on Q)."""
    return x[0] + x[1] * ((1 + _R) / 2 if d % 4 == 1 else _R)


def _reduced(d, e):
    return sympy.rem(sympy.expand(e), _R ** 2 - d, _R)


@pytest.mark.parametrize("d", [0, 5, -1, 2, -3, 13, -7])
def test_from_ring_coords_matches_product_form(d):
    # the rational coordinates (a, b) of u + v omega = a + b sqrt d, which
    # field-info prints and the place values of the constants take
    fd = F.make_field(d)
    for u in range(-12, 13):
        for v in range(-12, 13) if d else [0]:
            a, b = F._sqrt_d_coords(d, u, v)
            assert _reduced(d, (a + b * _R) / 2 - _sym(d, (u, v))) == 0
            want = [complex(sympy.N((a + sign * b * sympy.sqrt(d)) / 2, 30))
                    for sign in ((1, -1) if d > 0 else (1,))]
            tol = 1e-15 * (abs(a) + abs(b) * math.sqrt(abs(d)))
            assert all(abs(g - w) <= tol for g, w in zip(embed(fd, (u, v)), want))


@lru_cache(maxsize=None)
def _sympy_ring(d):
    """sympy's maximal order of Q(omega) from the minimal polynomial of omega."""
    omega = (1 + sympy.sqrt(d)) / 2 if d % 4 == 1 else sympy.sqrt(d)
    T = sympy.Poly(sympy.minimal_polynomial(omega, _R), _R)
    ZK, dK = round_two(T)
    assert ZK.matrix == sympy.polys.matrices.DomainMatrix.eye(2, sympy.ZZ)  # o = Z[omega]
    return T, ZK, dK


@lru_cache(maxsize=None)
def _sympy_primes(d, p):
    T, ZK, dK = _sympy_ring(d)
    return prime_decomp(p, T, ZK=ZK, dK=dK)


def _valuation(ideal, P):
    """The largest k with ideal in P^k, by lattice containment (sympy's own
    prime_valuation fails on some inputs, such as (1 - sqrt 7) at (3, r - 1))."""
    k = 0
    while True:
        power = P.as_submodule() ** (k + 1)
        c = power.matrix.to_Matrix().inv() * ideal.matrix.to_Matrix()
        if not all(e.is_integer for e in c):
            return k
        k += 1


def _sympy_divisor_norms(d, x):
    """Norms of the ideal divisors of (x), from sympy's prime decomposition
    and the valuations of the ideal x o."""
    norm = int(_reduced(d, _sym(d, x) * _sym(d, x).subs(_R, -_R)))
    if d == 0:
        return sorted(sympy.divisors(abs(x[0])))
    T, ZK, dK = _sympy_ring(d)
    A = ZK.parent
    gen = A(to_col(list(x)))
    ideal = ZK.submodule_from_gens([ZK(to_col([int(c) for c in (gen * A(to_col(b))).coeffs]))
                                    for b in ([1, 0], [0, 1])])
    norms = [1]
    for p in sympy.factorint(abs(norm)):
        for P in _sympy_primes(d, p):
            q = P.p ** P.f
            norms = [m * q ** j for m in norms for j in range(_valuation(ideal, P) + 1)]
    return sorted(norms)


_COORD = st.integers(-300, 300)


@given(d=st.sampled_from(_ALL_FIELDS), x=st.tuples(_COORD, _COORD), y=st.tuples(_COORD, _COORD))
@settings(max_examples=100, deadline=None)
def test_ring_arithmetic_matches_sympy(d, x, y):
    # products, conjugates and norms in ring coordinates, the unit and its
    # inverse, and the ideal divisor norms, against exact arithmetic in Q(sqrt d)
    fd = F.make_field(d)
    if fd.n == 1:
        x, y = (x[0], 0), (y[0], 0)
    assume(x != (0, 0))
    X, Y = _sym(d, x), _sym(d, y)
    assert _reduced(d, _sym(d, F._coord_mul(fd, *x, *y)) - X * Y) == 0
    conj = X.subs(_R, -_R)
    if fd.n == 2:
        assert _reduced(d, _sym(d, F._coord_conj(fd, *x)) - conj) == 0
    assert _reduced(d, X * conj) == (F._coord_norm(fd, *x) if fd.n == 2 else x[0] ** 2)
    if fd.r == 2:
        eps = fd.fundamental_unit
        E = _sym(d, eps)
        assert abs(_reduced(d, E * E.subs(_R, -_R))) == 1
        assert _reduced(d, E * _sym(d, unit_inverse(fd, eps))) == 1
        assert float(E.subs(_R, sympy.sqrt(d))) > 1 and fd.regulator > 0
    assert sorted(F.ideal_divisor_norms(fd, *x)) == _sympy_divisor_norms(d, x)


