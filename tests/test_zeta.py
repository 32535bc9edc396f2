import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from hilmod import eisenstein as E
from hilmod import fields as F
from hilmod import specfun as S
from hilmod import zeta as Z
from hilmod.errors import DomainError, PoleAtOne, PoleAtZeroOrOne, ScatteringPole, ZeroFrequency
from oracles import dedekind_zeta_series, ideal_count_coeffs


def test_hurwitz_against_mpmath():
    mp.mp.dps = 30
    for s in (2.0, 0.3 + 2j, -1.5 + 7j, 3.2 - 11j):
        for a in (1.0, 0.25, 0.8):
            got = Z.hurwitz_zeta(s, a)
            expect = complex(mp.zeta(s, a))
            assert abs(got - expect) <= 1e-11 * (abs(expect) + 1e-6)


def _hurwitz_matches_or_raises(s, a, rtol=1e-10):
    """The documented contract: within rtol of mpmath, or DomainError."""
    with mp.workdps(50):
        expect = complex(mp.zeta(s, a))
    try:
        got = Z.hurwitz_zeta(s, a)
    except DomainError:
        return False
    assert abs(got - expect) <= rtol * abs(expect), (s, a)
    return True


def test_hurwitz_negative_real_part_against_mpmath():
    # N = 18 gave relative errors 5.9e-8 here: the summed terms cancel
    assert _hurwitz_matches_or_raises(-5 + 3j, 0.3)
    assert _hurwitz_matches_or_raises(-3 + 40j, 0.5)


@pytest.mark.parametrize("s, a", [(-9 + 0.5j, 0.3), (-20 + 1j, 0.5)])
def test_hurwitz_far_left_never_silently_wrong(s, a):
    # N = 18 returned relative errors 3.1e-2 and 3.3e7 here, without error
    _hurwitz_matches_or_raises(s, a)


def test_hurwitz_left_half_plane_sweep():
    rng = np.random.default_rng(11)
    returned = 0
    for _ in range(60):
        s = complex(rng.uniform(-12.0, 0.0), rng.uniform(-100.0, 100.0))
        returned += _hurwitz_matches_or_raises(s, float(rng.uniform(0.05, 1.0)))
    assert returned >= 30


def test_riemann_classical():
    assert abs(Z.riemann_zeta(2.0) - math.pi ** 2 / 6) < 1e-12
    assert abs(Z.riemann_zeta(-1.0) + 1.0 / 12) < 1e-12


def test_dedekind_rational(ctx_q):
    assert abs(Z.dedekind_zeta(ctx_q, 2.0) - math.pi ** 2 / 6) < 1e-12


def test_dedekind_gaussian_catalan(ctx_qi):
    # Dirichlet series with N = 10^6 and documented tail bound, per the
    # stated oracle; chi_{-4} L-value at 2 is Catalan's constant.
    N = 1_000_000
    a = np.asarray(ideal_count_coeffs(ctx_qi.field, N), dtype=float)
    n = np.arange(1, N + 1, dtype=float)
    partial = float(np.sum(a / n ** 2))
    catalan = 0.9159655941772190
    expect = math.pi ** 2 / 6 * catalan
    assert abs(partial - expect) < 4.0 / N
    got = Z.dedekind_zeta(ctx_qi, 2.0)
    assert abs(got - expect) <= 1e-10 * expect
    assert abs(got - 1.5067030099229851) < 1e-12


def test_dedekind_dual_method_q5(ctx_q5):
    a = dedekind_zeta_series(ctx_q5, 2.0)
    b = Z.dedekind_zeta(ctx_q5, 2.0)
    assert abs(a - b) <= 1e-8 * abs(b)


@pytest.mark.parametrize("d", [2, 3, 5, -1, -3, -7])
def test_dual_method_strip_grid(d):
    ctx = Z.make_context(F.make_field(d))
    for sigma in (1.5, 2.0, 3.0):
        for t in (0.0, 4.0, 10.0):
            s = complex(sigma, t)
            a = dedekind_zeta_series(ctx, s)
            b = Z.dedekind_zeta(ctx, s)
            assert abs(a - b) <= 1e-8 * abs(b), (d, s)


def functional_equation_grid():
    sigmas = (0.2, 0.35, 0.65, 0.8)
    ts = (1.0, 3.0, 6.0, 9.0, 12.0)
    return [complex(sig, t) for sig in sigmas for t in ts]


@pytest.mark.parametrize("d", [0, 5, -1])
def test_functional_equation(d):
    ctx = Z.make_context(F.make_field(d))
    for s in functional_equation_grid():
        a = Z.completed_zeta(ctx, s)
        b = Z.completed_zeta(ctx, 1 - s)
        assert abs(a - b) <= 1e-6 * abs(a), (d, s)


def test_completed_zeta_values(ctx_q):
    # Lambda(2) zeta(2) = pi/6 for Q
    assert abs(Z.completed_zeta(ctx_q, 2.0) - math.pi / 6) < 1e-12
    # fixed point of s -> 1-s
    v = Z.completed_zeta(ctx_q, 0.5)
    assert abs(v - Z.completed_zeta(ctx_q, 0.5)) == 0


def test_completed_zeta_poles(ctx_q):
    with pytest.raises(PoleAtZeroOrOne):
        Z.completed_zeta(ctx_q, 1.0)
    with pytest.raises(PoleAtZeroOrOne):
        Z.completed_zeta(ctx_q, 0.0)
    with pytest.raises(PoleAtOne):
        Z.dedekind_zeta(ctx_q, 1.0)


def test_phi_functional_relation(ctx_q5):
    s = 0.5 + 0.7j
    prod = Z.phi(ctx_q5, s) * Z.phi(ctx_q5, 1 - s)
    assert abs(prod - 1) < 1e-8


def test_phi_pole_and_value(ctx_q):
    with pytest.raises(ScatteringPole):
        Z.phi(ctx_q, 1.0)
    # (pi^{-3/2} Gamma(3/2) zeta(3)) / (pi^{-2} Gamma(2) zeta(4))
    expect = (math.pi ** -1.5 * math.gamma(1.5) * 1.2020569031595943) / \
             (math.pi ** -2 * 1.0823232337111382)
    got = Z.phi(ctx_q, 2.0)
    assert abs(got - expect) < 1e-10
    assert abs(got - 1.7445680821312562) < 1e-10


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan, complex(1.5, math.nan),
                               complex(math.nan, 1.0), complex(1.5, math.inf)])
@pytest.mark.parametrize("d", [0, 5, -1])
def test_zeta_and_phi_reject_non_finite_s(d, s):
    # zeta_K(inf) was nan on Q(sqrt 5), and phi(nan), phi(inf) raised a bare
    # ValueError from an integer conversion
    ctx = Z.make_context(F.make_field(d))
    for fn in (Z.dedekind_zeta, Z.completed_zeta, Z.phi):
        with pytest.raises(DomainError):
            fn(ctx, s)


@pytest.mark.parametrize("d", [0, 5, -1])
def test_phi_raises_outside_double_range(d):
    # phi(0.8 + 250i) was nan on all three fields (a Gamma reflection
    # overflows), and phi(1.5 + 230i) on Q(sqrt 5) (its Lambda factors at
    # 2 + 460i and 3 + 460i underflow); at t = 200 phi is still a value
    ctx = Z.make_context(F.make_field(d))
    with pytest.raises(DomainError):
        Z.phi(ctx, 0.8 + 250j)
    if d == 5:
        with pytest.raises(DomainError):
            Z.phi(ctx, 1.5 + 230j)
    assert cmath.isfinite(Z.phi(ctx, 0.8 + 200j))


def test_lambda_factor_calls_gamma_per_place_kind(field_qi, monkeypatch):
    # no real place on Q(i): only Gamma(s) is taken, not a discarded
    # Gamma(s/2)^0 that could raise by itself
    calls = []

    def counted(s):
        calls.append(s)
        return S.gamma(s)
    monkeypatch.setattr(Z, "gamma", counted)
    Z.lambda_factor(field_qi, 1.5 + 2j)
    assert calls == [1.5 + 2j]


@pytest.mark.parametrize("s", [1.5, 0.3 + 4j, 2.5 - 30j])
def test_lambda_factor_imaginary_field_against_mpmath(field_qi, s):
    # 2^{-s} D^{s/2} pi^{-s} Gamma(s) with D = 4
    with mp.workdps(30):
        s_mp = mp.mpc(s)
        exact = complex(2 ** -s_mp * mp.mpf(4) ** (s_mp / 2) * mp.pi ** -s_mp * mp.gamma(s_mp))
    assert abs(Z.lambda_factor(field_qi, s) - exact) <= 1e-13 * abs(exact)


def brute_tau(ctx, l_int, s):
    divisors = [d for d in range(1, abs(l_int) + 1) if l_int % d == 0]
    return abs(l_int) ** (-s / 2) * sum(d ** s for d in divisors)


def tau(ctx, nu, s):
    """tau_s(l) for the frequency l = nu / dg, nu in o in ring coordinates."""
    return E.tau_divisor_sums(ctx.field, [nu], s)[0]


def test_tau_examples(ctx_q):
    one = (1, 0)
    assert tau(ctx_q, one, 0.37) == 1
    six = (6, 0)
    got = tau(ctx_q, six, -1.0)
    assert abs(got - 2 * math.sqrt(6)) < 1e-12
    assert abs(got - brute_tau(ctx_q, 6, -1.0)) < 1e-12


def test_tau_symmetry(ctx_q):
    twelve = (12, 0)
    a = tau(ctx_q, twelve, 0.8)
    b = tau(ctx_q, twelve, -0.8)
    assert abs(a - b) <= 1e-12 * abs(a)
    assert abs(a - brute_tau(ctx_q, 12, 0.8)) < 1e-12


def test_tau_quadratic_frequency(ctx_qi):
    # l = nu / dg with nu = 2+i: ideal (nu) has norm 5, divisors 1, p, (nu)
    nu = (2, 1)  # omega = i
    got = tau(ctx_qi, nu, 1.0)
    expect = 5 ** -0.5 * (1 + 5)  # divisors of a prime ideal: 1 and itself
    assert abs(got - expect) < 1e-12


def test_tau_zero_frequency(ctx_q):
    with pytest.raises(ZeroFrequency):
        tau(ctx_q, (0, 0), 1.0)


@pytest.mark.parametrize("d", [0, 5, -1])
def test_nonvanishing_scan(d):
    ctx = Z.make_context(F.make_field(d))
    for sigma in (1.0, 1.2, 1.5):
        for t in np.linspace(0.5, 30.0, 25):
            v = Z.dedekind_zeta(ctx, complex(sigma, t))
            assert abs(v) >= 1e-3


def test_residue_phi_class_number_consistency(ctx_q, ctx_qi, ctx_q5):
    # residue of phi at 1 equals 2^{r1-1} h R / (omega zeta*_K(2)); probe it
    for ctx in (ctx_q, ctx_qi, ctx_q5):
        eps = 1e-7
        probe = (eps * Z.phi(ctx, 1 + eps)).real
        assert abs(probe - Z.residue_phi(ctx)) <= 2e-6 * Z.residue_phi(ctx)


def test_series_route_requires_convergence(ctx_q5):
    with pytest.raises(PoleAtOne):
        dedekind_zeta_series(ctx_q5, 0.9)


@pytest.mark.parametrize("d, s", [(5, 1000), (-1, 1000), (5, 300), (13, 300)])
def test_lambda_factor_past_double_range_is_domain_error(d, s):
    # D^(s/2) raised OverflowError (complex exponentiation) at s = 1000, and
    # Gamma(s/2)^2 warned of an overflow at s = 300, before the DomainError
    ctx = Z.make_context(F.make_field(d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: Z.lambda_factor(ctx.field, s), lambda: Z.completed_zeta(ctx, s),
                     lambda: Z.phi(ctx, s)):
            with pytest.raises(DomainError):
                call()


def _mp_dedekind_zeta(d, s):
    """zeta_K(s) = zeta(s) L(s, chi_D) at 40 digits, L as a periodic Dirichlet series."""
    fd = F.make_field(d)
    with mp.workdps(40):
        if d == 0:
            return mp.zeta(s)
        chi = [F.kronecker(fd.disc_signed, n) for n in range(fd.D)]
        return mp.zeta(s) * mp.dirichlet(s, chi)


@pytest.mark.parametrize("d, s", [(5, 1000), (-1, 1000), (13, 300), (-163, 60), (2, 75 + 3j)])
def test_dedekind_zeta_finite_at_large_re_s(d, s):
    # each Hurwitz term of L(s, chi_D) overflowed, and inf - inf gave NaN
    ctx = Z.make_context(F.make_field(d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = Z.dedekind_zeta(ctx, s)
    want = complex(_mp_dedekind_zeta(d, s))
    assert abs(got - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("s", [300, 1000, 2 + 1e4j])
def test_hurwitz_zeta_not_finite_is_domain_error(s):
    # it returned inf at s = 300 and 1000, and -inf+inf*i at 2 + 1e4 i
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            Z.hurwitz_zeta(s, 1e-300)


def _mp_l_at_one(D):
    """L(1, chi_D) from the finite sums: -pi |D|^(-3/2) sum_a a chi(a) for
    D < 0, -D^(-1/2) sum_a chi(a) log sin(pi a / D) for D > 0."""
    chi = [(a, F.kronecker(D, a)) for a in range(1, abs(D))]
    if D < 0:
        return -mp.pi * mp.mpf(-D) ** -1.5 * sum(a * c for a, c in chi)
    return -sum(c * mp.log(mp.sin(mp.pi * a / D)) for a, c in chi) / mp.sqrt(D)


@pytest.mark.parametrize("d", F.REAL_H1 + F.IMAG_H1)
def test_dirichlet_l_at_and_near_one(d):
    # dirichlet_l(1, D) raised PoleAtOne, and near s = 1 the two Hurwitz
    # poles cancelled to 2e-7 at s = 1 + 1e-10
    D = F.make_field(d).disc_signed
    chi = [F.kronecker(D, a) for a in range(abs(D))]
    with mp.workdps(20):
        points = [(1.0, _mp_l_at_one(D))] + [
            (s, mp.dirichlet(s, chi)) for s in (1 + 1e-2, 1 + 1e-4, 1 + 1e-6, 1 + 1e-8, 1 + 1e-10,
                                              1 - 1e-3, 1 + 0.05j)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s, want in points:
            want = complex(want)
            assert abs(Z.dirichlet_l(s, D) - want) <= 1e-14 * abs(want)


def test_dirichlet_l_keeps_the_hurwitz_route_away_from_one():
    # outside |s - 1| < _L_NEAR_ONE the value is the Hurwitz sum, bit for bit
    for D in (5, -4, 13, -163):
        for s in (1.101, 0.899, 1.5, 2 + 0.3j, 1 + 0.101j):
            q = abs(D)
            acc = 0j
            for a in range(1, q + 1):
                if F.kronecker(D, a):
                    acc += F.kronecker(D, a) * Z.hurwitz_zeta(s, a / q)
            assert Z.dirichlet_l(s, D) == q ** (-complex(s)) * acc
