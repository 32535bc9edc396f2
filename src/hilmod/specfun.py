"""Complex gamma and complex-order MacDonald Bessel functions.

The Bessel function comes straight from its integral representation

    K_s(y) = 1/2 * integral over R of exp(-y*cosh(w) + s*w) dw,

taken on the horizontal line w = u + i*theta, |theta| < pi/2, where the
integrand still decays double exponentially.  On the real line (theta = 0)
and for y < |Im s| the integrand is about exp(pi |Im s| / 2) times larger
than K_s(y), so from |Im s| ~ 8 on the sum cancels below double
precision.  Raising the line towards the saddle of the exponent (Gil,
Segura & Temme, ACM TOMS 30, 2004) removes that cancellation: theta is the
line whose largest integrand is smallest, capped at pi/2 - 3/|Im s| (so
theta = 0 for |Im s| <= 6/pi).  Each argument gets its own line and
window.

The trapezoid rule on such a line converges geometrically in the node
density, at a rate set by the width of the strip of analyticity around the
line (Trefethen & Weideman, SIAM Review 56, 2014).  The step is halved,
evaluating only the new midpoints, until two levels agree to 1e-12
relative to |K_s(y)| (or, near a zero of K_s, to the rounding floor of the
sum).  Past the node cap ``DomainError`` is raised rather than an
unconverged value returned.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, PoleAtNonPositiveInteger

# Godfrey's 15-term Lanczos coefficients for g = 607/128, good to ~1e-15
# relative on the right half-plane.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_BESSEL_RE_MAX = 10.0
_BESSEL_IM_MAX = 100.0
_BESSEL_DECAY = 45.0          # window: integrand above exp(-45) of its peak
_BESSEL_MIN_NODES = 32        # first level; levels are compared from 64 on
_BESSEL_MAX_NODES = 1 << 16
_BESSEL_RTOL = 1e-12
_BESSEL_FLOOR = 1e-14         # rounding floor, relative to sum |integrand|
_BESSEL_SHIFT_GAP = 3.0       # theta <= pi/2 - gap / |Im s|
_BESSEL_BLOCK = 1 << 18       # integrand values evaluated per block
_TINY = np.finfo(float).tiny  # the smallest normal double

# exp(i theta) = exp(2 pi i k / 2^12) exp(i r): the step 2 pi / 2^12 split
# Cody-Waite style into _PHASE_HI, 27 significant bits, so k _PHASE_HI is
# exact for |k| < 2^26, that is |theta| < 1.029e5, and _PHASE_LO, the rest.
_PHASE_SIZE = 1 << 12
_PHASE_MAX = 1e5
_PHASE_HI = math.ldexp(round(math.ldexp(math.pi / 2048, 36)), -36)
_PHASE_LO = ((math.pi - 2048 * _PHASE_HI) + 1.2246467991473532e-16) / 2048  # pi - fl(pi)
_a, _d = np.arange(_PHASE_SIZE) * _PHASE_HI, np.arange(_PHASE_SIZE) * _PHASE_LO  # d < 5e-8
_PHASE_TABLE = np.empty(_PHASE_SIZE, dtype=complex)  # exp(2 pi i k / 2^12), to order d^2
_PHASE_TABLE.real = np.cos(_a) - (_d * np.sin(_a) + 0.5 * _d * _d * np.cos(_a))
_PHASE_TABLE.imag = np.sin(_a) + (_d * np.cos(_a) - 0.5 * _d * _d * np.sin(_a))
del _a, _d


def gamma(s: complex) -> complex:
    """Gamma(s) by the Lanczos approximation with reflection; ``DomainError`` where the
    value leaves the normal double range or sin(pi s) overflows (Re s < 1/2, |Im s| > 225)."""
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0.0 and s.real == int(s.real):
        raise PoleAtNonPositiveInteger("gamma pole at s=%g" % s.real)
    if s.real < 0.5:
        # reflection: Gamma(s) Gamma(1-s) = pi / sin(pi s)
        with np.errstate(over="ignore", invalid="ignore"):
            out = math.pi / (_sinpi(s) * gamma(1.0 - s))
    else:
        z = s - 1.0
        acc = _LANCZOS_C[0]
        for k in range(1, len(_LANCZOS_C)):
            acc += _LANCZOS_C[k] / (z + k)
        t = z + _LANCZOS_G + 0.5
        # t^(z + 1/2) e^-t as one exponential: finite wherever Gamma is
        with np.errstate(over="ignore", invalid="ignore"):
            out = math.sqrt(2.0 * math.pi) * np.exp((z + 0.5) * np.log(t) - t) * acc
    if not _TINY <= abs(out) < math.inf:
        raise DomainError("gamma(%r) is outside the double range" % (s,))
    return out


def _sinpi(s: complex) -> complex:
    # sin(pi s) computed via numpy for complex support
    return complex(np.sin(np.pi * np.complex128(s)))


def exp_real_times(p: complex, L: np.ndarray, out: np.ndarray, work: np.ndarray,
                   index: np.ndarray) -> np.ndarray:
    """exp(p L) for a complex p and real L into `out` (complex): the real
    exp(Re(p) L) times exp(i theta), theta = Im(p) L rounded as in
    np.exp(p * L), from one complex table of 2^12 phases and the Taylor
    terms of exp(i r), |r| <= pi / 2^12, to degree 4 (cos) and 5 (sin).
    The amplitude scales those terms, 1 + (cos r - 1) and sin r, into `out`,
    which one complex product with the gathered phases completes.  The
    reduction theta = k 2 pi / 2^12 + r is exact to the rounding of r for
    |theta| <= 1e5; ``DomainError`` beyond.  L is overwritten; the caller's
    buffers `work` (C-contiguous, at least 4 rows of at least L's size) and
    `index` (intp, L's size) are scratch, and the gathered phases go into
    the first two rows of `work`, so that a loop over blocks allocates
    nothing per block."""
    n = L.size
    theta, k, cs, sn = work[:4, :n]
    np.multiply(L, p.imag, out=theta)
    if n and not max(-theta.min(), theta.max()) <= _PHASE_MAX:
        raise DomainError("phase |Im(p) L| past %g, where its reduction is inexact" % _PHASE_MAX)
    amp = np.exp(np.multiply(L, p.real, out=L), out=L)
    np.multiply(theta, _PHASE_SIZE / (2 * math.pi), out=k)
    np.rint(k, out=k)
    np.copyto(index, k, casting="unsafe")
    np.bitwise_and(index, _PHASE_SIZE - 1, out=index)
    r, r2 = theta, k                      # theta becomes r, k becomes r^2
    np.subtract(theta, np.multiply(k, _PHASE_HI, out=cs), out=r)
    np.subtract(r, np.multiply(k, _PHASE_LO, out=cs), out=r)
    np.multiply(r, r, out=r2)
    np.multiply(r2, 1 / 24, out=cs)       # cos r
    cs -= 0.5
    cs *= r2
    cs += 1
    np.multiply(r2, 1 / 120, out=sn)      # sin r
    sn -= 1 / 6
    sn *= r2
    sn *= r
    sn += r
    np.multiply(cs, amp, out=out.real)
    np.multiply(sn, amp, out=out.imag)
    # rows 0 and 1, spent with r and r^2, as n complex values
    phase = work[:2].reshape(-1)[:2 * n].view(complex)
    return np.multiply(out, np.take(_PHASE_TABLE, index, out=phase, mode="clip"), out=out)


def bessel_k(s: complex, y: float) -> complex:
    """MacDonald K_s(y) for complex order s and y > 0.

    Validated against mpmath for |Re s| <= 10, |Im s| <= 100 and
    0.05 <= y <= 50: the relative error is below 1e-10.  The exception is
    the neighbourhood of a zero of K_s(y), which exists only for Re s near
    0 and y < |Im s|; there the error is about 1e-14 of the integrand's
    size on the contour, the rounding floor of the sum, rather than of
    |K_s(y)|.  Orders outside the validated region raise ``DomainError``,
    and so does an integral that does not converge within the node cap.
    """
    s = complex(s)
    if not (y > 0.0):
        raise DomainError("bessel_k requires y > 0, got %r" % (y,))
    if abs(s.real) > _BESSEL_RE_MAX or abs(s.imag) > _BESSEL_IM_MAX:
        raise DomainError("order outside validated region: %r" % (s,))
    return complex(bessel_k_grid(s, np.asarray([y]))[0])


def bessel_k_grid(s: complex, ys: np.ndarray) -> np.ndarray:
    """K_s over an array of positive arguments, to the accuracy of ``bessel_k``.

    Each argument gets its own contour height and window.  Starting from
    32 intervals, the step is halved, evaluating only the new midpoints,
    until two levels agree to 1e-12 relative to |K_s(y)|, or to 1e-14 of
    the summed |integrand| (the rounding floor, reached first only near a
    zero of K_s).  ``DomainError`` is raised if some argument has not
    converged when the next level would pass 2^16 intervals.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.size == 0:
        return np.zeros(0, dtype=complex)
    if not np.all(ys > 0):
        raise DomainError("bessel_k requires positive arguments")
    s = complex(s)
    sig, t = s.real, s.imag
    theta = _contour_height(s, ys)
    yc, ysn = ys * np.cos(theta), ys * np.sin(theta)
    # on the line, log|integrand| = sig u - yc cosh u - t theta, largest at um
    um = np.arcsinh(sig / yc)
    peak = sig * um - np.hypot(yc, sig)
    a, b = _window_edges(yc, sig, um, peak)
    n = _BESSEL_MIN_NODES
    h = (b - a) / n
    # the end values are below exp(-_BESSEL_DECAY) of the peak, so every
    # node gets the weight h
    total, modulus = _line_sums(a, h, np.arange(n + 1), yc, ysn, sig, t, peak)
    level, size = h * total, h * modulus
    out = np.empty(ys.size, dtype=complex)
    live = np.arange(ys.size)
    while live.size:
        if 2 * n > _BESSEL_MAX_NODES:
            raise DomainError(
                "K_s(y) not converged within %d intervals at s=%r, y=%r"
                % (n, s, float(ys[live[0]])))
        h = h / 2
        total, modulus = _line_sums(a[live], h, np.arange(1, 2 * n, 2),
                                    yc[live], ysn[live], sig, t, peak[live])
        new = 0.5 * level + h * total
        size = 0.5 * size + h * modulus
        change = np.abs(new - level)
        done = (change <= _BESSEL_RTOL * np.abs(new)) | (change <= _BESSEL_FLOOR * size)
        out[live[done]] = new[done]
        live, level, size, h = live[~done], new[~done], size[~done], h[~done]
        n *= 2
    return 0.5 * out * np.exp(peak - t * theta + 1j * sig * theta)


def _contour_height(s: complex, ys: np.ndarray) -> np.ndarray:
    """Height theta of the integration line for each argument.

    max_u log|integrand| on the line Im w = theta is stationary in theta
    where y^2 sin^2(theta) + (Re s)^2 tan^2(theta) = (Im s)^2; the smaller
    root in sin^2(theta) gives the line with the smallest peak.  For
    Re s = 0 and |Im s| < y that line passes through the saddle of the
    exponent; for Re s = 0 and |Im s| >= y the root is pi/2, where the
    integrand stops decaying, hence the cap.
    """
    t = abs(s.imag)
    if t * math.pi / 2 <= _BESSEL_SHIFT_GAP:   # the cap is at or below 0
        return np.zeros_like(ys)
    a = ys * ys + s.real ** 2 + t * t
    sin2 = 2 * t * t / (a + np.sqrt(np.maximum(a * a - 4 * (ys * t) ** 2, 0.0)))
    theta = np.arcsin(np.sqrt(np.minimum(sin2, 1.0)))
    theta = np.clip(theta, 0.0, math.pi / 2 - _BESSEL_SHIFT_GAP / t)
    return math.copysign(1.0, s.imag) * theta


def _window_edges(yc, sig, um, peak):
    """Points either side of um where sig u - yc cosh u has fallen
    _BESSEL_DECAY below its peak: bracketed by doubling, then bisected."""
    def outside(u):
        return sig * u - yc * np.cosh(u) < peak - _BESSEL_DECAY

    edges = []
    with np.errstate(over="ignore"):
        for side in (-1.0, 1.0):
            lo, hi = np.zeros_like(um), np.ones_like(um)
            while True:
                out = outside(um + side * hi)
                if out.all():
                    break
                lo, hi = np.where(out, lo, hi), np.where(out, hi, 2 * hi)
            for _ in range(12):
                mid = 0.5 * (lo + hi)
                out = outside(um + side * mid)
                lo, hi = np.where(out, lo, mid), np.where(out, mid, hi)
            edges.append(um + side * hi)
    return edges


def _line_sums(a, h, k, yc, ysn, sig, t, peak):
    """Sums over the nodes u = a + k h of the integrand divided by its
    peak, and of its modulus, in blocks of rows to bound memory."""
    total = np.empty(a.size, dtype=complex)
    modulus = np.empty(a.size)
    rows = max(1, _BESSEL_BLOCK // k.size)
    for i in range(0, a.size, rows):
        j = slice(i, i + rows)
        u = a[j, None] + h[j, None] * k
        mod = np.exp(sig * u - yc[j, None] * np.cosh(u) - peak[j, None])
        total[j] = (mod * np.exp(1j * (t * u - ysn[j, None] * np.sinh(u)))).sum(axis=1)
        modulus[j] = mod.sum(axis=1)
    return total, modulus
