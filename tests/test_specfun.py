import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from hilmod import specfun as S
from hilmod.errors import DomainError, PoleAtNonPositiveInteger


def bessel_oracle(s, y, upper=40.0):
    """Independent quadrature of K_s(y) = int_0^inf e^{-y cosh u} cosh(su) du."""
    def re(u):
        return (math.exp(-y * math.cosh(u)) * np.cosh(complex(s) * u)).real
    def im(u):
        return (math.exp(-y * math.cosh(u)) * np.cosh(complex(s) * u)).imag
    hi = math.asinh(upper / y) + 4.0
    r, _ = quad(re, 0, hi, limit=300)
    i, _ = quad(im, 0, hi, limit=300)
    return complex(r, i)


def test_gamma_classical_values():
    assert abs(S.gamma(1) - 1) < 1e-12
    assert abs(S.gamma(4) - 6) < 1e-11
    assert abs(S.gamma(0.5) - math.sqrt(math.pi)) < 1e-12


def test_gamma_recurrence_complex():
    for s in (0.3 + 2j, 1.7 - 0.4j, -0.8 + 1.1j, 2.5 + 10j):
        lhs = S.gamma(s + 1)
        rhs = s * S.gamma(s)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_gamma_pole():
    with pytest.raises(PoleAtNonPositiveInteger):
        S.gamma(0)
    with pytest.raises(PoleAtNonPositiveInteger):
        S.gamma(-3)


@pytest.mark.parametrize("s", [0.25 + 270j, 0.5 + 540j, -0.5 - 300j, -171.5, 171.7, 400.0])
def test_gamma_raises_outside_double_range(s):
    # sin(pi s) of the reflection overflows at 0.25 + 270i and -0.5 - 300i
    # (the value was nan), and |Gamma(0.5 + 540i)| ~ 1e-368 underflows (it
    # was 0); Gamma(-171.5) ~ 1.9e-310 is subnormal, and Gamma(171.7) and
    # Gamma(400) overflow (the Lanczos power raised OverflowError)
    with pytest.raises(DomainError):
        S.gamma(s)


def test_gamma_near_the_overflow_edge():
    # Gamma(171) = 170! ~ 7.3e306 and Gamma(171.5) ~ 9.5e307 are doubles;
    # t^(z + 1/2) alone overflowed before e^-t brought it back
    exact = math.factorial(170)
    assert abs(S.gamma(171.0) - exact) <= 1e-13 * exact
    for s in (171.5, 171.6 + 1j):
        exact = complex(mp.gamma(s))
        assert abs(S.gamma(s) - exact) <= 2e-13 * abs(exact)


@pytest.mark.parametrize("s", [0.25 + 200j, 0.5 + 200j, 0.75 - 270j, 2.0 - 220j])
def test_gamma_large_imaginary_part_against_mpmath(s):
    # the values next to those points are still returned, to 3.1e-13
    exact = complex(mp.gamma(s))
    assert abs(S.gamma(s) - exact) <= 1e-12 * abs(exact)


def _exp_real_times(p, L):
    """exp_real_times on a copy of L, into buffers of its own."""
    return S.exp_real_times(p, L.copy(), np.empty(L.size, dtype=complex), np.empty((4, L.size)),
                            np.empty(L.size, dtype=np.intp))


def _exp_errors(p, L):
    """Largest relative errors of exp_real_times and of np.exp(p * L)
    against mpmath, at the same doubles p and L."""
    got = _exp_real_times(p, L)
    ref = np.exp(p * L)
    with mp.workprec(120):
        exact = [mp.exp(mp.mpc(p.real, p.imag) * mp.mpf(x)) for x in L]
        return [max(float(abs(mp.mpc(v) - e) / abs(e)) for v, e in zip(vals, exact))
                for vals in (got, ref)]


@pytest.mark.parametrize("t", [0.5, 9.8, 50.0, 1000.0])
def test_exp_real_times_against_mpmath(t):
    # the phase table and its Taylor terms add nothing to the rounding of
    # t L and of exp(Re(p) L) that np.exp(p L) already has
    L = np.random.default_rng(23).uniform(-15.0, 0.0, 400)
    err, err_np = _exp_errors(complex(1.3, t), L)
    assert err <= 2 * err_np


def test_exp_real_times_reduction_edge():
    # the reduction is exact up to |t L| = 1e5 (k 2 pi / 2^12 with |k| < 2^26)
    # and refused beyond; the scratch buffers give the same bits
    L = np.array([-10.0, -7.3, -1e-3, 0.0, 3.1, 10.0])
    p = complex(1.3, 1e4)
    err, err_np = _exp_errors(p, L)
    assert err <= 2 * err_np
    out = np.empty(L.size, dtype=complex)
    scratch = S.exp_real_times(p, L.copy(), out, np.empty((4, 9)), np.empty(9, dtype=np.intp)[:6])
    assert scratch is out and np.array_equal(out, _exp_real_times(p, L))
    for edge in (np.nextafter(-10.0, -11.0), np.nextafter(10.0, 11.0)):
        with pytest.raises(DomainError):
            _exp_real_times(p, np.array([-1.0, edge]))


def test_exp_real_times_allocates_nothing_per_block():
    # on a block of 2^14 values (128 KiB of doubles) into the caller's
    # buffers, the tracemalloc peak is a few array views, not a block
    n = 1 << 14
    L = np.random.default_rng(29).uniform(-15.0, 0.0, n)
    out, work, index = np.empty(n, dtype=complex), np.empty((4, n)), np.empty(n, dtype=np.intp)
    S.exp_real_times(1.3 + 0.5j, L.copy(), out, work, index)
    tracemalloc.start()
    try:
        S.exp_real_times(1.3 + 0.5j, L, out, work, index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4096


def test_bessel_half_order_closed_form():
    # K_{1/2}(y) = sqrt(pi/(2y)) e^{-y}
    for y in (0.3, 1.0, 4.0):
        expect = math.sqrt(math.pi / (2 * y)) * math.exp(-y)
        got = S.bessel_k(0.5, y)
        assert abs(got - expect) <= 1e-10 * expect


def test_bessel_frozen_values():
    # quadrature-oracle values (bessel_oracle above, cross-checked by mpmath)
    assert abs(S.bessel_k(0.0, 2.0) - 0.11389387274953343) < 1e-11
    assert abs(S.bessel_k(1.0, 2 * math.pi) - 9.869960576810451e-4) < 1e-13


def test_bessel_matches_defining_integral():
    for s, y in ((0.3, 0.6), (0.7 + 0.3j, 2.0), (1.2 - 2j, 5.0), (2.5, 0.05)):
        got = S.bessel_k(s, y)
        expect = bessel_oracle(s, y)
        assert abs(got - expect) <= 1e-10 * abs(expect)


def test_bessel_symmetry_grid():
    for s in (0.3, 0.5 + 0.5j, 1.2 - 2j):
        for y in (0.1, 1.0, 5.0):
            a, b = S.bessel_k(s, y), S.bessel_k(-s, y)
            assert abs(a - b) <= 1e-10 * abs(a)


def test_bessel_ode_residual():
    h = 1e-4
    for s in (0.3, 0.5 + 0.5j, 1.2 - 2j):
        for y in (0.1, 1.0, 5.0):
            k0 = S.bessel_k(s, y)
            kp = (S.bessel_k(s, y + h) - S.bessel_k(s, y - h)) / (2 * h)
            kpp = (S.bessel_k(s, y + h) - 2 * k0 + S.bessel_k(s, y - h)) / h ** 2
            resid = y * y * kpp + y * kp - (y * y + s * s) * k0
            assert abs(resid) <= 1e-4 * (abs(k0) + 1)


def test_bessel_fourier_transform_identity():
    # y^s pi^{-s} Gamma(s) int e^{2 pi i l t} (t^2+y^2)^{-s} dt
    #   = 2 |l|^{s-1/2} sqrt(y) K_{s-1/2}(2 pi |l| y)
    s, l, y = 1.3, 1.0, 1.0
    half, _ = quad(lambda t: (t * t + y * y) ** (-s), 0, 600,
                   weight="cos", wvar=2 * math.pi * l, limit=2000)
    lhs = y ** s * math.pi ** (-s) * S.gamma(s).real * 2 * half
    rhs = 2 * abs(l) ** (s - 0.5) * math.sqrt(y) * S.bessel_k(s - 0.5, 2 * math.pi * abs(l) * y).real
    assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


def test_bessel_rapid_decay_bound():
    # |K_s(y)| <= K_{Re s}(2) e^{-y/2} for y > 2
    for s in (0.5 + 3j, 1.5):
        bound = abs(S.bessel_k(complex(s).real, 2.0)) * math.exp(-30.0)
        assert abs(S.bessel_k(s, 60.0)) <= bound


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        S.bessel_k(0.5, -1.0)
    with pytest.raises(DomainError):
        S.bessel_k(11.0, 1.0)
    with pytest.raises(DomainError):
        S.bessel_k(0.5 + 101j, 1.0)


# Validated region of bessel_k and the relative tolerance its docstring states.
_GRID_RE = (-10.0, -6.5, -2.2, -0.7, 0.0, 0.3, 1.0, 2.5, 5.0, 10.0)
_GRID_IM = (-100.0, -55.0, -20.0, -3.3, 0.0, 0.9, 1.5, 2.7, 8.0, 13.0, 33.0, 61.0, 100.0)
_GRID_Y = (0.05, 0.13, 0.6, 1.0, 3.7, 9.5, 24.0, 50.0)
_BESSEL_DOC_RTOL = 1e-10


def test_bessel_mpmath_grid():
    ys = np.array(_GRID_Y)
    worst = 0.0
    with mp.workdps(40):
        for sig in _GRID_RE:
            for t in _GRID_IM:
                s = complex(sig, t)
                got = S.bessel_k_grid(s, ys)
                for y, g in zip(_GRID_Y, got):
                    expect = complex(mp.besselk(s, y))
                    worst = max(worst, abs(g - expect) / abs(expect))
    assert worst <= _BESSEL_DOC_RTOL


@pytest.mark.parametrize("s, y", [(0.2 + 20j, 0.3), (0.2 + 30j, 2.0), (0.2 + 100j, 2.0),
                                  (1 + 9.7j, 2.5), (2 + 19.9j, 7.0), (0.5 - 77j, 0.05)])
def test_bessel_high_order_against_mpmath(s, y):
    # the real-line rule was off by 1.7e-3, 8.9e3 and 1.4e51 at the first three
    with mp.workdps(40):
        expect = complex(mp.besselk(s, y))
    assert abs(S.bessel_k(s, y) - expect) <= _BESSEL_DOC_RTOL * abs(expect)


def test_bessel_grid_matches_scalar_calls():
    # one shared call per order agrees with argument-by-argument calls
    ys = np.array([0.07, 0.9, 3.0, 14.0, 48.0])
    for s in (0.4, 1.5 + 12j, -3 - 40j):
        grid = S.bessel_k_grid(s, ys)
        for y, g in zip(ys, grid):
            assert abs(g - S.bessel_k(s, y)) <= 1e-12 * abs(g)


def test_bessel_node_cap_raises(monkeypatch):
    # an order that needs thousands of nodes raises rather than returning
    # the last, unconverged level
    assert abs(S.bessel_k(0.5 + 90j, 0.3)) > 0
    monkeypatch.setattr(S, "_BESSEL_MAX_NODES", 128)
    with pytest.raises(DomainError):
        S.bessel_k(0.5 + 90j, 0.3)
    with pytest.raises(DomainError):
        S.bessel_k_grid(0.5 + 90j, np.array([0.3, 1.0]))


def test_bessel_near_zero_of_real_order_k():
    # K_{it}(y) is real with zeros for y < t; at a zero only the floor
    # relative to the integrand applies, and no DomainError is raised
    t = 10.0
    with mp.workdps(40):
        y0 = float(mp.findroot(lambda y: mp.besselk(1j * t, y).real, 0.3437))
        envelope = abs(complex(mp.besselk(1j * t, 0.97 * y0)))
        expect = complex(mp.besselk(1j * t, y0))
    assert abs(S.bessel_k(1j * t, y0) - expect) <= 1e-12 * envelope
