"""Dedekind zeta, completed zeta and the scattering quotient.

Continuation strategy: the Dedekind zeta of a quadratic field factors as
zeta(s) * L(s, chi_D); both factors are expressed through the Hurwitz zeta,
which an Euler-Maclaurin tail continues to the plane (s != 1) as far as
Re s ~ -7; past that its terms cancel below double precision and it raises
DomainError.  This gives every value the package needs without approximate
functional equations, and the Hecke functional equation becomes a genuine
test.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleAtOne, PoleAtZeroOrOne, ScatteringPole
from .fields import FieldData, kronecker
from .specfun import _TINY, gamma


def _em_coefficients(count: int) -> tuple[float, ...]:
    """B_2j / (2j)! for j = 1..count: the coefficients b_n of
    t / (e^t - 1) = sum b_n t^n satisfy sum_{k <= n} b_k / (n + 1 - k)! = 0."""
    inv_fact = [1.0 / math.factorial(i) for i in range(2 * count + 2)]
    b = [1.0]
    for n in range(1, 2 * count + 1):
        b.append(-sum(b[k] * inv_fact[n + 1 - k] for k in range(n)))
    return tuple(b[2 * j] for j in range(1, count + 1))


_EM_COEFFS = _em_coefficients(30)
_EPS = np.finfo(float).eps
_HURWITZ_RTOL = 1e-10
_LOG_MAX = math.log(np.finfo(float).max)
_L_NEAR_ONE = 0.1  # |s - 1| below which dirichlet_l cancels the Hurwitz poles: at 0.1
                   # both routes are within 2.5e-15 of mpmath on the 23 quadratic fields


def hurwitz_zeta(s: complex, a: float) -> complex:
    """Hurwitz zeta(s, a) for complex s != 1, real a > 0 (Euler-Maclaurin).

    The first N = max(18, 1.3 |Im s| + 8) terms are summed and the rest is
    the integral plus Bernoulli corrections, added up to the smallest one.
    For Re s < 0 the summed terms grow like k^{-Re s} and cancel against
    the integral, so there the N up to that count with the smallest
    estimated error is used, the error being the rounding of the sum plus
    the last correction.
    ``DomainError`` is raised when that estimate exceeds 1e-10 of the
    value, which happens from about Re s < -7 on and near zeros of
    zeta(s, a) with Re s < 0, and, for Re s >= 0, when N times the first
    and largest term a^(-Re s) passes the largest double, so that every
    value returned is finite.
    """
    s = complex(s)
    if s == 1.0:
        raise PoleAtOne("hurwitz zeta pole at s=1")
    n_max = max(18, int(1.3 * abs(s.imag)) + 8)
    if s.real >= 0 and math.log(n_max) - s.real * math.log(a) >= _LOG_MAX:
        raise DomainError("hurwitz_zeta(%r, %r) is outside the double range" % (s, a))
    ks = np.arange(n_max) + a
    powers = ks ** (-s)
    if s.real >= 0:
        return complex(np.sum(powers)) + _em_tail(s, n_max + a)[0]
    partial = np.cumsum(powers)
    # each power carries a relative rounding error of about |s log k|
    rounding = _EPS * np.cumsum(np.abs(powers) * (1.0 + abs(s) * np.abs(np.log(ks))))
    best, best_err = 0j, math.inf
    for n in range(1, n_max + 1):
        if rounding[n - 1] >= best_err:
            break
        tail, last = _em_tail(s, n + a)
        err = rounding[n - 1] + last + _EPS * abs(tail) * (1.0 + abs(s) * math.log(n + a))
        if err < best_err:
            best, best_err = complex(partial[n - 1]) + tail, err
    if best_err > _HURWITZ_RTOL * abs(best):
        raise DomainError("hurwitz_zeta(%r, %r): estimated error %.1e at |value| %.1e"
                          % (s, a, best_err, abs(best)))
    return best


def _em_tail(s: complex, base: float, integral=None) -> tuple[complex, float]:
    """sum_{k >= N} (k + a)^(-s) for base = N + a: the integral, the half
    end term and the Bernoulli corrections up to the smallest one, whose
    size is returned with the value.  A given integral replaces
    base^(1-s) / (s - 1)."""
    if integral is None:
        integral = base ** (1.0 - s) / (s - 1.0)
    acc = integral + 0.5 * base ** (-s)
    term_pow = base ** (-s - 1.0)
    poch = s
    last = math.inf
    for j, c in enumerate(_EM_COEFFS, start=1):
        term = c * poch * term_pow
        if abs(term) >= last:   # the series is asymptotic
            break
        acc += term
        last = abs(term)
        if last <= _EPS * abs(acc):
            break
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        term_pow /= base * base
    return acc, last


def _hurwitz_less_pole(s: complex, a: float) -> complex:
    """zeta(s, a) - 1 / (s - 1), which is regular at s = 1, for s near 1:
    the Euler-Maclaurin sum of `hurwitz_zeta` at its N = 18 terms (its
    count for |Im s| < 8), with the integral's pole taken out,
    ((N + a)^(1-s) - 1) / (s - 1) = -log(N + a) (e^w - 1) / w at
    w = (1 - s) log(N + a), the last factor by its Taylor series."""
    base = 18 + a
    w = (1 - s) * math.log(base)
    factor, term, k = 0j, 1 + 0j, 1
    while abs(term) > _EPS * abs(factor):
        factor += term
        k += 1
        term *= w / k
    head = complex(np.sum((np.arange(18) + a) ** (-s)))
    return head + _em_tail(s, base, -math.log(base) * factor)[0]


def riemann_zeta(s: complex) -> complex:
    return hurwitz_zeta(s, 1.0)


def dirichlet_l(s: complex, disc_signed: int) -> complex:
    """L(s, chi_D) for the quadratic character of fundamental discriminant D.

    Through the Hurwitz zeta at a / D for a = 1..D, except at Re s >= 60,
    where the terms n >= 2 of sum chi(n) n^-s are below 2^-60 of the first
    and the Hurwitz values (D / a)^s pass the double range: there the series
    over n = 1..D is summed directly; and at |s - 1| < `_L_NEAR_ONE`, where
    the Hurwitz poles 1 / (s - 1) cancel in the sum, as sum_a chi(a) = 0:
    there each term is zeta(s, a / D) - 1 / (s - 1) (`_hurwitz_less_pole`),
    which is also the value at s = 1."""
    q = abs(disc_signed)
    if q == 1:
        return riemann_zeta(s)
    s = complex(s)
    chis = [(a, kronecker(disc_signed, a)) for a in range(1, q + 1)]
    if s.real >= 60:
        return complex(sum(chi * a ** -s for a, chi in chis if chi))
    hurwitz = _hurwitz_less_pole if abs(s - 1) < _L_NEAR_ONE else hurwitz_zeta
    acc = 0.0 + 0.0j
    for a, chi in chis:
        if chi:
            acc += chi * hurwitz(s, a / q)
    return q ** (-s) * acc


@dataclass
class ZetaContext:
    """The field whose zeta functions are evaluated."""

    field: FieldData


def make_context(field: FieldData) -> ZetaContext:
    return ZetaContext(field=field)


def _finite_s(s) -> complex:
    """complex(s), or DomainError for an s that is not finite."""
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError("s must be finite, got %r" % (s,))
    return s


def dedekind_zeta(ctx: ZetaContext, s: complex) -> complex:
    """zeta_K(s) off the pole at s = 1 (via zeta * L); DomainError at an s not finite."""
    s = _finite_s(s)
    if s == 1.0:
        raise PoleAtOne("dedekind zeta pole at s=1")
    z = riemann_zeta(s)
    if ctx.field.d == 0:
        return z
    return z * dirichlet_l(s, ctx.field.disc_signed)


def lambda_factor(field: FieldData, s: complex) -> complex:
    """Archimedean factor 2^{-r2 s} D^{s/2} pi^{-ns/2} Gamma(s/2)^{r1} Gamma(s)^{r2};
    ``DomainError`` where it or a factor leaves the normal double range (so
    in `phi`), with no warning."""
    s = complex(s)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = 2.0 ** (-field.r2 * s) * field.D ** (s / 2.0)
            out *= cmath.exp(-(field.n * s / 2.0) * math.log(math.pi))
            if field.r1:
                out *= gamma(s / 2.0) ** field.r1
            if field.r2:
                out *= gamma(s) ** field.r2
    except OverflowError:  # a Python power or exponential past the double range
        out = math.inf
    if not _TINY <= abs(out) < math.inf:
        raise DomainError("Lambda factor at s=%r is outside the double range" % (s,))
    return out


def completed_zeta(ctx: ZetaContext, s: complex) -> complex:
    """zeta*_K(s) = Lambda(s) zeta_K(s), regular off s = 0, 1; DomainError at an s not finite."""
    s = _finite_s(s)
    if s == 0.0 or s == 1.0:
        raise PoleAtZeroOrOne("completed zeta pole at s=%s" % (s,))
    return lambda_factor(ctx.field, s) * dedekind_zeta(ctx, s)


def phi(ctx: ZetaContext, s: complex) -> complex:
    """Scattering quotient zeta*_K(2s-1) / zeta*_K(2s).

    Computed as a ratio of archimedean factors times a ratio of Dedekind
    values; only a genuine zero of zeta_K(2s) raises (the gamma factors
    make |zeta*| exponentially small along vertical lines without any
    pole of phi).  DomainError for an s that is not finite."""
    s = _finite_s(s)
    for pole in (0.0, 1.0):
        if 2 * s - 1 == pole or 2 * s == pole:
            raise ScatteringPole("phi pole at s=%s" % (s,))
    zk_den = dedekind_zeta(ctx, 2 * s)
    if abs(zk_den) < 1e-10:
        raise ScatteringPole("zeta_K(2s) vanishes near s=%s" % (s,))
    ratio = lambda_factor(ctx.field, 2 * s - 1) / lambda_factor(ctx.field, 2 * s)
    return ratio * dedekind_zeta(ctx, 2 * s - 1) / zk_den


def residue_phi(ctx: ZetaContext) -> float:
    """Residue of phi at s = 1: 2^{r1-1} h R / (omega zeta*_K(2))."""
    f = ctx.field
    num = 2.0 ** (f.r1 - 1) * f.h * f.regulator / f.omega
    return num / completed_zeta(ctx, 2.0).real

