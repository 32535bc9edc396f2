"""Cusp-section measures, the Mellin transform, the Rankin-Selberg
unfolding identity, and the decay-exponent experiment."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domains import _cusp_classes, eisenstein_box_average
from .eisenstein import orbifold_volume
from .errors import DomainError, PoleAtOne, QuadratureBudgetExceeded
from .fields import _CANDIDATE_BUDGET, FieldData, ideal_totient_sums, make_field
from .geometry import _PLACE_WEIGHTS, unfold_constant
from .quadrature import gl_panel_nodes
from .zeta import ZetaContext, make_context


# ---------------------------------------------------------------------------
# Test functions (incomplete Eisenstein series over a plateau bump)
# ---------------------------------------------------------------------------

def _ramp(t: np.ndarray) -> np.ndarray:
    """C-infinity ramp e0 / (e0 + e1), e0 = exp(-1 / t), e1 = exp(-1 / (1 - t)),
    on t clamped to [+0, 1], with both exponentials taken at every point:
    exp(-1 / +0) = 0 makes it exactly 0 for t <= 0 and 1 for t >= 1."""
    t = np.clip(t, 0.0, 1.0) + 0.0  # + 0.0 turns -0.0 into +0.0
    with np.errstate(divide="ignore", over="ignore"):
        e0 = np.exp(-1.0 / t)
        e1 = np.exp(-1.0 / (1.0 - t))
    return e0 / (e0 + e1)


@dataclass(frozen=True)
class TestFunction:
    """Gamma-invariant compactly supported function built from a plateau
    bump psi on [t0, t1] applied to the height of the cusp at infinity.

    The support floor t0 must exceed the field's horoball-separation
    constant so at most one group translate contributes at any point.
    """

    t0: float
    t1: float
    shoulder: float
    amplitude: float

    def rise(self, q) -> np.ndarray:
        return _ramp((q - self.t0) / self.shoulder)

    def fall(self, q) -> np.ndarray:
        return _ramp((self.t1 - q) / self.shoulder)

    def profile(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return self.amplitude * self.rise(q) * self.fall(q)


# Standard bump for the equidistribution experiments.  Fitted slopes over a
# finite dyadic window are phase-sensitive (the error term oscillates with
# the lowest zeta zero); this support keeps the window measurement close to
# the asymptotic rate for all three acceptance fields.
DEFAULT_BUMP = (1.8, 2.8)


def make_test_function(field: FieldData, t0: float = DEFAULT_BUMP[0],
                       t1: float = DEFAULT_BUMP[1],
                       amplitude: float = 1.0) -> TestFunction:
    """The plateau bump on [t0, t1] with shoulders of a quarter of the
    support, so the plateau covers half of it.  t0, t1 and the amplitude are
    taken as floats: `DomainError` unless l1 < t0 < t1 < inf and the
    amplitude is finite."""
    try:
        t0, t1, amplitude = float(t0), float(t1), float(amplitude)
    except OverflowError:
        raise DomainError("t0, t1 and the amplitude must lie in the double range") from None
    if not (field.l1_estimate < t0 < t1 < math.inf and math.isfinite(amplitude)):
        raise DomainError("support [%g, %g] must lie above l1 ~ %g, amplitude %g be finite"
                          % (t0, t1, field.l1_estimate, amplitude))
    return TestFunction(t0, t1, (t1 - t0) / 4.0, amplitude)


# ---------------------------------------------------------------------------
# Slice averages
# ---------------------------------------------------------------------------

def cusp_section_average(f: TestFunction, q, field: FieldData,
                         nodes: int = 16, method: str = "unfolded",
                         order: int = 24):
    """m_i(f, q): box average of f over the cross section at height q.

    q is one height, giving a float, or a 1-D array of heights, giving an
    array of the same length with the same values as one call per height;
    every height must be positive and finite (else `DomainError`).

    Horoballs above the support floor t0 > l1 are pairwise disjoint, so
    the average decomposes into psi(q) plus one term per cusp reaching
    the support.  Two routes:

    "unfolded"  collapses the translation classes exactly: every ideal
                (c) of norm n contributes its totient times a universal
                kernel K(1/(n^2 q)), one psi-integral in x with a closed-form
                weight per place-degree signature, split at the shoulder
                junctions (`_unfolded_kernel`).  Against order 96 the sum
                is within 1.2e-9 relative at the default order 24 and 2.5e-11
                at 32, on seven fields and q = 2^-2 .. 2^-16.  An array of
                heights takes one kernel call for all of them.

    "horoball"  the geometric cross-check: the same kernel summed over the
                cusps' own classes, psi(q) + (q 2^r2 / sqrt D) sum_N count_N
                K(1/(N^2 q)) (`_horoball_sum`).  The change of variables
                a_i = |c_i x_i + d_i| / (|c_i| y_i), dx_i = y_i^deg_i da_i
                turns psi integrated over one cusp's shadow into
                (q / covol) K(1/(N(c)^2 q)); the classes (c, d mod c) and
                their counts per |N(c)| come from the cusp geometry
                (`domains._cusp_classes`, floor t0), not from the ideal
                sieve.  Within 4.0e-16 relative of the unfolded route on
                nine fields, two bumps and 40 q in [0.004, 0.3]
                (scripts/horoball_accuracy.py).  An array of heights is
                taken one height at a time.  `QuadratureBudgetExceeded`
                where the class enumeration would pass its budget
                (`domains.slice_candidates`).

    `nodes` has no reader.  The benchmark's horoball operation passes it, so
    it is dropped with the benchmark's tolerances, in a change that claims
    no gain (ROADMAP item 5).
    """
    qs = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(qs) & (qs > 0)):
        raise DomainError("heights must be positive and finite, got %r" % (q,))
    heights = np.atleast_1d(qs)
    total = f.profile(heights)
    if method == "unfolded":
        total = total + _unfolded_sum(f, heights, field, order)
    elif method == "horoball":
        total = total + _horoball_sum(f, heights, field, order)
    else:
        raise ValueError("unknown method %r" % (method,))
    return float(total[0]) if qs.ndim == 0 else total


# --- unfolded route: arithmetic kernels -----------------------------------

@lru_cache(maxsize=16)
def _totient_table(d: int, capacity: int) -> np.ndarray:
    return np.array(ideal_totient_sums(make_field(d), capacity), dtype=float)


def _totients(field: FieldData, N: int) -> np.ndarray:
    """The ideal totient sums of norms 1..N, from a cached table whose
    capacity is the next power of two >= max(N, 64)."""
    return _totient_table(field.d, 1 << (max(N, 64) - 1).bit_length())[:N]


_KERNEL_BLOCK = 1 << 13  # integrand values evaluated per block


def _break_edges(breaks: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """Edges x(b) = sqrt(max(kappa / b - 1, 0)) of the breaks b, given in
    descending order, one row per kappa.  Division, max and sqrt are
    monotone, so each row ascends, exactly, without a sort.  A break above
    kappa gives a zero-length piece, and kappa <= t0 gives only those."""
    return np.sqrt(np.maximum(kappa[:, None] / breaks - 1.0, 0.0))


def _unfolded_kernel(f: TestFunction, kappa, degrees: tuple[int, ...],
                     order: int) -> np.ndarray:
    """K(kappa) = int_0^inf psi(kappa / (1 + x^2)) w(x) dx for an array of
    kappa, with the weight of the place degrees (`geometry._PLACE_WEIGHTS`):
    one GL rule of `order` nodes on each of the 3 pieces between the shoulder
    breaks; [0, x(t1)], where psi is 0, takes none.  psi is the amplitude
    times the one ramp that varies on a shoulder piece (the other is exactly
    1.0 there), and the amplitude on the plateau (`profile` where the
    shoulders overlap).  Rows go in blocks of about _KERNEL_BLOCK nodes."""
    kappa = np.asarray(kappa, dtype=float).ravel()
    weight = _PLACE_WEIGHTS[degrees]
    gx, gw = gl_panel_nodes(-1.0, 1.0, 1, order)
    breaks = np.array(sorted([f.t1, f.t1 - f.shoulder, f.t0 + f.shoulder, f.t0], reverse=True))
    # piece j holds the heights [b_j+1, b_j]: which of its ramps vary there
    rises, falls = breaks[1:] < f.t0 + f.shoulder, breaks[:-1] > f.t1 - f.shoulder
    out = np.empty(kappa.size)
    step = max(1, _KERNEL_BLOCK // (3 * order))  # 3 pieces per row
    for lo in range(0, kappa.size, step):
        k = kappa[lo:lo + step]
        edges = _break_edges(breaks, k)
        half = 0.5 * (edges[:, 1:] - edges[:, :-1])
        x = 0.5 * (edges[:, 1:, None] + edges[:, :-1, None]) + half[:, :, None] * gx
        t = x * x + 1.0
        psi = np.full_like(t, f.amplitude)
        for j in np.flatnonzero(rises | falls):
            q = k[:, None] / t[:, j]
            psi[:, j] = f.profile(q) if rises[j] and falls[j] else \
                f.amplitude * (f.rise(q) if rises[j] else f.fall(q))
        out[lo:lo + step] = np.einsum("kpo,kp,o->k", psi * weight(x, t), half, gw)
    return out


def _unfolded_sum(f: TestFunction, q, field: FieldData, order: int) -> np.ndarray:
    """The cusp terms of m_q for a height or a 1-D array of heights, as an
    array: the rows n = nmax(q) .. 1 of every height, laid end to end, take
    one kernel call on their distinct kappa (kappa(2n, q/4) = kappa(n, q)
    exactly on the dyadic grid), and each height's rows are summed in that
    order (ascending kernel size)."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    nmax = np.floor(1.0 / np.sqrt(q * f.t0))
    if not nmax.sum() <= _CANDIDATE_BUDGET:
        raise QuadratureBudgetExceeded("the unfolded sums at heights down to %g lay out %.3g "
                                       "rows, past the budget of %d"
                                       % (q.min(), nmax.sum(), _CANDIDATE_BUDGET))
    nmax = nmax.astype(np.int64)
    ends = np.cumsum(nmax)
    n = np.repeat(ends, nmax) - np.arange(int(nmax.sum()))
    T = _totients(field, int(nmax.max(initial=0)))[n - 1]
    kappa, row = np.unique(1.0 / (n * n * np.repeat(q, nmax)), return_inverse=True)
    K = _unfolded_kernel(f, kappa, field.place_degrees, order)[row]
    acc = np.array([np.dot(T[e - c:e], K[e - c:e]) for e, c in zip(ends, nmax)])
    scale = 2.0 ** field.r2 / math.sqrt(field.D)
    return scale * q * acc


def _horoball_sum(f: TestFunction, q: np.ndarray, field: FieldData, order: int) -> np.ndarray:
    """The cusp terms of m_q over the cusps' own classes, height by height:
    the classes (c, d mod c) of `domains._cusp_classes(field, q, t0)`, counted
    per |N(c)|, each adding the kernel of `_unfolded_sum` at its norm."""
    acc = []
    for h in q:
        _, norms, counts = _cusp_classes(field, float(h), f.t0)
        K = _unfolded_kernel(f, 1.0 / (norms ** 2.0 * h), field.place_degrees, order)
        acc.append(float(counts @ K))
    return 2.0 ** field.r2 / math.sqrt(field.D) * q * np.array(acc)


# ---------------------------------------------------------------------------
# Haar average and Mellin transform
# ---------------------------------------------------------------------------

def profile_integral(f: TestFunction, power: complex) -> complex:
    """integral of psi(q) q^{power} dq over the support, with panel edges
    at the shoulder junctions where psi is only piecewise analytic: 24
    panels of order 12 on each piece."""
    total = 0.0 + 0.0j
    edges = (f.t0, f.t0 + f.shoulder, f.t1 - f.shoulder, f.t1)
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a < 1e-15:
            continue
        x, w = gl_panel_nodes(a, b, 24, 12)
        total += complex(np.sum(w * f.profile(x) * np.exp(power * np.log(x))))
    return total


def haar_average(f: TestFunction, field: FieldData,
                 ctx: ZetaContext | None = None) -> float:
    """m(f) by unfolding: vol(M)^{-1} C1 int psi(q) q^{-2} dq."""
    ctx = ctx or make_context(field)
    c1 = unfold_constant(field)
    return c1 * profile_integral(f, -2.0).real / orbifold_volume(field, ctx)


def mellin_transform(f: TestFunction, s: complex, field: FieldData,
                     ctx: ZetaContext | None = None):
    """Mellin transform M(f, s) of the cusp-section averages by its defining
    integral (Re(s) > 1, else `PoleAtOne`): m_q(f) q^{s-2} dq integrated
    numerically on [1e-3, t1], with the q < 1e-3 part replaced by the m(f)
    limit.  Zagier's closed form Psi1(s) + phi(s) Psi2(s), which the tests
    compare it against, is `tests/oracles.mellin_zero_mode`.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise PoleAtOne("the Mellin transform's defining integral needs Re(s) > 1")
    ctx = ctx or make_context(field)
    qmin = 1e-3
    mf = haar_average(f, field, ctx)
    # exact contribution of the constant limit over (0, T1]
    total = mf * f.t1 ** (s - 1.0) / (s - 1.0)
    # m_q - m oscillates with the lowest zeta zero (~0.9 rad period in
    # log q); resolve it with a dozen nodes per period
    panels = max(16, int(12 * math.log(f.t1 / qmin)))
    us, wu = gl_panel_nodes(math.log(qmin), math.log(f.t1), panels, 8)
    # math.exp: np.exp differs from it in the last bit at some nodes
    mqs = cusp_section_average(f, np.array([math.exp(u) for u in us]), field)
    for u, w, mq in zip(us, wu, mqs):
        total += w * (mq - mf) * np.exp((s - 1.0) * u)
    return total


def rankin_selberg_check(field: FieldData, f: TestFunction, s: complex,
                         ctx: ZetaContext | None = None):
    """Both sides of the unfolding identity
    omega^{-1} 2^{r1-r2} R sqrt(D) M_i(f, s) = int_M E(z, s) f(z) dv.

    The Mellin side integrates the cross-section averages in q (defining
    route); the integral side unfolds over the stabiliser and integrates
    E pointwise over the cusp box in local coordinates.  The two sides
    share no quadrature.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise PoleAtOne("Rankin-Selberg check needs Re(s) > 1")
    ctx = ctx or make_context(field)
    c1 = unfold_constant(field)
    lhs = c1 * mellin_transform(f, s, field, ctx)
    rhs = _unfolded_ef_integral(field, f, s, ctx)
    return lhs, rhs


def _unfolded_ef_integral(field: FieldData, f: TestFunction, s: complex,
                          ctx: ZetaContext) -> complex:
    """C1 * int psi(q) q^{-2} [box average of E at height q] dq with the
    box average done by tensor quadrature on Fourier values (2 panels of
    order 7 per box coordinate), summed over the box in factored form
    (`eisenstein_box_average`)."""
    xs, wx = gl_panel_nodes(-0.5, 0.5, 2, 7)
    # q nodes over the shoulder pieces
    qs_all, qw_all = [], []
    edges = (f.t0, f.t0 + f.shoulder, f.t1 - f.shoulder, f.t1)
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a < 1e-15:
            continue
        qq, ww = gl_panel_nodes(a, b, 6, 8)
        qs_all.append(qq)
        qw_all.append(ww)
    qs_all = np.concatenate(qs_all)
    qw_all = np.concatenate(qw_all)
    box_avg = eisenstein_box_average(field, s, qs_all, xs, wx, ctx)
    total = complex(np.sum(qw_all * f.profile(qs_all) * box_avg / qs_all ** 2))
    return unfold_constant(field) * total


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    q_grid: list[float]
    m_values: list[float]
    m_limit: float
    errors: list[float]
    nodes_used: list[int]
    quad_errors: list[float]
    fitted_slope: float
    slope_ci: tuple[float, float]
    runtime: float
    degenerate: bool
    k_min: int

    def rows(self):
        for j, (q, mq, e, n, qe) in enumerate(zip(self.q_grid, self.m_values, self.errors,
                                                  self.nodes_used, self.quad_errors)):
            yield {"k": self.k_min + j, "q": q, "m_q": mq, "m": self.m_limit,
                   "e": e, "nodes": n, "quad_err": qe}


def decay_exponent_fit(f: TestFunction, field: FieldData, k_min: int,
                       k_max: int, ctx: ZetaContext | None = None) -> ExperimentReport:
    """Least-squares slope of log |m_q(f) - m(f)| against log q on the
    dyadic grid q_k = 2^{-k}; the first two grid points are dropped from
    the fit as pre-asymptotic.  Each m_q is the unfolded route at kernel
    order 32, and its quadrature error is measured against order 20; an
    error above max(0.1 |m_q - m|, 1e-12 scale) raises."""
    if k_max <= k_min:
        raise DomainError("the fit needs two heights or more, got k = %d .. %d" % (k_min, k_max))
    if k_min < -1022:
        raise DomainError("heights 2^-k must be normal doubles, got k_min = %d" % k_min)
    # the unfolded sums lay out floor(2^(k/2) / sqrt(t0)) rows at height 2^-k,
    # fewer than 2^(k_max/2) / (sqrt(t0) (1 - 2^-1/2)) in all: predicted
    # before any height is listed
    k_top = 2 * math.log2(_CANDIDATE_BUDGET * math.sqrt(f.t0) * (1 - 2 ** -0.5))
    if k_max > k_top:
        shown = str(k_max) if k_max < 10 ** 6 else "a %d-digit number" % len(str(k_max))
        raise QuadratureBudgetExceeded(
            "k_max = %s: the heights 2^-k lay out more rows of the unfolded sums than the "
            "budget of %d allows (k_max <= %d at t0 = %g)"
            % (shown, _CANDIDATE_BUDGET, int(k_top), f.t0))
    t_start = time.perf_counter()
    ctx = ctx or make_context(field)
    mf = haar_average(f, field, ctx)
    scale = abs(mf) + abs(f.amplitude)
    qs = [2.0 ** (-k) for k in range(k_min, k_max + 1)]
    ms, coarse = (cusp_section_average(f, np.array(qs), field, order=order) for order in (32, 20))
    errs, quad_errs = np.abs(ms - mf), np.abs(ms - coarse)
    for k, e, quad_err in zip(range(k_min, k_max + 1), errs, quad_errs):
        if quad_err > max(0.1 * e, 1e-12 * scale):
            raise QuadratureBudgetExceeded("slice at q=2^-%d: error %.2e vs target %.2e"
                                           % (k, quad_err, 0.1 * e))
    drop = 2 if len(qs) > 4 else 0
    lq = np.log(np.array(qs[drop:]))
    le_raw = errs[drop:]
    degenerate = bool(np.all(le_raw <= 1e-13 * scale))
    if degenerate:
        slope, ci = float("nan"), (float("nan"), float("nan"))
    else:
        le = np.log(np.maximum(le_raw, 1e-300))
        n = lq.size
        A = np.stack([lq, np.ones(n)], axis=1)
        coef, res, *_ = np.linalg.lstsq(A, le, rcond=None)
        slope = float(coef[0])
        resid = le - A @ coef
        dof = max(n - 2, 1)
        se = math.sqrt(float(resid @ resid) / dof / float(((lq - lq.mean()) ** 2).sum()))
        ci = (slope - 1.96 * se, slope + 1.96 * se)
    return ExperimentReport(qs, ms.tolist(), mf, errs.tolist(), [32] * len(qs),
                            quad_errs.tolist(), slope, ci,
                            time.perf_counter() - t_start, degenerate, k_min)
