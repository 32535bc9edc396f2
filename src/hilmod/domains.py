"""Fundamental-domain and cusp-slice numerics: vectorised Eisenstein grids,
the Maass-Selberg double integral for Q, the truncated-orbifold integral
identity for quadratic fields, and the cusps that rise above a floor on a
cusp cross section, one per class (c, d mod c) with its |N(c)|.  The
horoball route of `equidist.cusp_section_average` and the shadow share
`shadow_fraction` sum closed forms over those classes."""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .eisenstein import FrequencyTable, _bessel_order, frequency_table, maass_selberg_constant
from .errors import DomainError, QuadratureBudgetExceeded
from .fields import (FieldData, _ball_points, _ball_size, _canonical_c, _coord_conj,
                     _coord_mul, _coord_norm, _coprime_mask, _embed_coords, _unit_balanced)
from .geometry import _PLACE_WEIGHTS, slice_embeddings, unfold_constant
from .quadrature import gl_panel_nodes
from .specfun import bessel_k_grid
from .zeta import ZetaContext, completed_zeta, make_context, phi


# ---------------------------------------------------------------------------
# Fast Bessel evaluation over argument arrays (log-grid interpolation)
# ---------------------------------------------------------------------------

class _BesselTable:
    """6-point Lagrange interpolant of exp(x) K_order(x) in u = log x on a uniform grid: sum_j
    coef[j] p^j at position p in an interval.  K varies at rate <= |order| in u, so the error
    is about (|order| du)^6 / 200 relative, 4.7e-12 at du = 1 / (32 max(|order|, 1))."""

    def __init__(self, order: complex, lo: float, hi: float):
        self.u0, span = math.log(lo), math.log(hi / lo)
        self.m = math.ceil(32 * max(abs(order), 1.0) * span)
        self.du = span / self.m
        x = np.exp(self.u0 + self.du * np.arange(-2, self.m + 3))  # interval k: nodes k-2..k+3
        vals = bessel_k_grid(order, x) * np.exp(x)  # real at real order: real coefficients
        vals = np.lib.stride_tricks.sliding_window_view(vals if order.imag else vals.real, 6)
        self.coef = np.linalg.inv(np.vander(np.arange(-2.0, 4.0), increasing=True)) @ vals.T

    def __call__(self, x: np.ndarray) -> np.ndarray:
        t = np.clip((np.log(x) - self.u0) / self.du, 0.0, self.m)
        k = np.minimum(t.astype(np.intp), self.m - 1)
        g, p = self.coef[5][k], t - k
        for c in self.coef[4::-1]:
            g = g * p + c[k]
        return g * np.exp(-x)


def _point_arrays(field: FieldData, xs, ys):
    xs = [np.asarray(a) for a in xs]
    ys = [np.asarray(a, dtype=float) for a in ys]
    q = np.ones_like(ys[0])
    for y, deg in zip(ys, field.place_degrees):
        q = q * y ** deg
    return xs, ys, q


_BOX_BLOCK = 1 << 16  # Bessel table values evaluated per block


def _bessel_blocks(field: FieldData, s: complex, table: FrequencyTable, ys):
    """The Bessel products prod_i K(factors[i] y_i |l_i|) over rows of
    heights ys (one array per place) and the frequencies of `table`, as
    (frequency slice, flat indices of the entries whose total argument is at
    most the cut, rows x frequencies block) of at most _BOX_BLOCK values (one
    frequency at least).  Only those entries are interpolated; the rest are
    0 (38% of the entries are kept over the identity checks: 44% on the
    Maass-Selberg grids, 25% on the Q(sqrt 5) Rankin-Selberg box).  The
    places share one degree, so one order: K is one `_BesselTable` over the
    arguments at every place, up to the cut, real at real order."""
    lo = float(min(f * y.min() * l.min() for f, y, l in zip(table.factors, ys, table.l_abs)))
    hi = float(max(f * y.max() * l.max() for f, y, l in zip(table.factors, ys, table.l_abs)))
    hi = max(min(hi, table.cut), 2 * lo)
    interp = _BesselTable(_bessel_order(s, field.place_degrees[0]), lo, hi)
    step = max(1, _BOX_BLOCK // ys[0].size)
    for a in range(0, table.taus.size, step):
        b = slice(a, a + step)
        args = [f * y[:, None] * l[None, b] for f, y, l in zip(table.factors, ys, table.l_abs)]
        keep = np.flatnonzero(sum(args) <= table.cut)
        k = interp(args[0].ravel()[keep])
        for arg in args[1:]:  # not *= or *: numpy's in-place complex products may round apart
            k = np.multiply(k, interp(arg.ravel()[keep]))
        K = np.zeros(args[0].shape, dtype=k.dtype)
        K.ravel()[keep] = k
        del args, k  # freed before the caller works on K: keeps the peak memory down
        yield b, keep, K


def eisenstein_fourier_grid(field: FieldData, s: complex, xs, ys,
                            ctx: ZetaContext | None = None,
                            zero_mode: bool = True) -> np.ndarray:
    """Fourier-expansion values over arrays of coordinates (infinity cusp).

    xs, ys: lists over places of per-point coordinate arrays (complex x at
    half-space places).  All points share one frequency table computed from
    the smallest heights, and the Bessel factors come from one 6-point
    `_BesselTable`: the non-constant part is 2^(r+1) sqrt(N(y)) / xi(2s)
    sum_{+-l} tau_l prod_i K_i cos(2 pi Tr(l x)), the cosine taken below the
    cut only.  Against `eisenstein_fourier` on 12 reduced points per field
    (Q, Q(sqrt 5), Q(i), heights 0.85 to 1.7) the relative error was at most
    1.0e-13 at s = 1.5, 2 and 1.3+0.5i (Q(sqrt 5) at s = 2),
    3.6e-13 at 1.5+5i, 3.0e-12 at 1.5+10i, 3.7e-12 at 1.5+20i, 3.0e-12 at
    1.5+35i and 1.2e-11 at 1.5+50i (Q)."""
    s = complex(s)
    ctx = ctx or make_context(field)
    xs, ys, q = _point_arrays(field, xs, ys)
    out = np.zeros(q.size, dtype=complex)
    if zero_mode:  # at real s the powers are float64: the imaginary parts are 0 anyway
        e = s.real if s.imag == 0 else s
        out += q ** e + phi(ctx, s) * q ** (1 - e)
    table = frequency_table(field, s, [float(y.min()) for y in ys])
    if table.taus.size == 0:
        return out
    tail = np.zeros(q.size, dtype=complex)
    for b, keep, K in _bessel_blocks(field, s, table, ys):
        row, col = np.divmod(keep, K.shape[1])  # e(Tr(l x)) at the kept entries only
        phase = sum(deg * (table.l_val[i][b][col] * xs[i][row]).real
                    for i, deg in enumerate(field.place_degrees))
        del row, col  # as in _bessel_blocks: keeps the peak memory down
        K.ravel()[keep] = np.multiply(K.ravel()[keep], np.cos(2 * math.pi * phase))
        tail += K @ table.taus[b]
    zs2 = completed_zeta(ctx, 2 * s)
    return out + 2 ** (field.r + 1) * np.sqrt(q) / zs2 * tail


def _y_rows(field: FieldData, q: float, nodes, weights):
    """Heights (one array per place) on the slice at height q at the tensor rule
    (nodes, weights) on the r - 1 Y axes, and its weights; one row when r = 1."""
    Y = np.array(list(itertools.product(nodes, repeat=field.r - 1)))
    wy = np.prod(list(itertools.product(weights, repeat=field.r - 1)), axis=1)
    return slice_embeddings(field, q, np.zeros((wy.size, field.n)), Y)[1], wy


def eisenstein_box_average(field: FieldData, s: complex, qs, nodes, weights,
                           ctx: ZetaContext | None = None) -> np.ndarray:
    """Box averages of E(z, s) over the cusp cross sections at heights qs.

    The box [-1/2, 1/2]^(n + r - 1) of local coordinates (X, Y) carries the
    tensor product of the 1-D rule (nodes, weights) on every axis.  The value
    is that quadrature of `eisenstein_fourier_grid` over the box points,
    summed in another order: the heights depend only on (q, Y), and since
    x = O X the phase e(Tr(l x)) splits into one 1-D sum per X axis,
    Phi_k(m) = sum_j w_j e(m X_j) with m = Tr(l alpha_k).  So each q costs
    one Bessel row per Y node and frequency, not one per box point, and as
    Phi_k(-m) = conj Phi_k(m) each pair +-l adds twice the real part:

        zero mode * sum w + 2^(r+1) sqrt(q) / xi(2s)
            * sum_{+-l} tau_l [sum_Y w_Y K_l(y(q, Y))] Re prod_k Phi_k(Tr(l alpha_k)).

    The frequency table and the Bessel blocks are those of the grid over the
    same points, and so is the accuracy of the Fourier values: relative
    error at most 1.0e-13 at real s, growing with |Im s| (3.0e-12 at
    s = 1.5+10i)."""
    s = complex(s)
    ctx = ctx or make_context(field)
    qs = np.asarray(qs, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    # one height row per (q, Y node)
    per_q = [_y_rows(field, float(qv), nodes, weights) for qv in qs]
    wy = per_q[0][1]
    ys = [np.concatenate(v) for v in zip(*(yq for yq, _ in per_q))]
    box_weight = float(weights.sum()) ** field.n * float(wy.sum())
    out = (qs ** s + phi(ctx, s) * qs ** (1 - s)) * box_weight
    table = frequency_table(field, s, [float(y.min()) for y in ys])
    if table.taus.size == 0:
        return out
    # prod_k Phi_k(Tr(l alpha_k)), one 1-D sum per X axis
    phases = np.ones(table.taus.size, dtype=complex)
    for k in range(field.n):
        phases *= np.exp(2j * math.pi * table.traces[:, k, None] * nodes[None, :]) @ weights
    coef = table.taus * phases.real
    tail = np.zeros(qs.size, dtype=complex)
    for b, _, K in _bessel_blocks(field, s, table, ys):
        Kq = np.einsum("qyl,y->ql", K.reshape(qs.size, wy.size, -1), wy)
        tail += Kq @ coef[b]
    zs2 = completed_zeta(ctx, 2 * s)
    return out + 2 ** (field.r + 1) * np.sqrt(qs) / zs2 * tail


# ---------------------------------------------------------------------------
# Classical fundamental domain of PSL(2, Z)
# ---------------------------------------------------------------------------

def modular_domain_volume_numeric() -> float:
    """Numeric dx dy / y^2 volume of {|x| <= 1/2, |z| >= 1}.

    The substitution t = 1/y maps each fibre to (0, 1/sqrt(1-x^2)] with unit
    density, so the volume is the Gauss-Legendre rule in x of 1/sqrt(1-x^2),
    64 panels of order 10.
    """
    xs, wx = gl_panel_nodes(-0.5, 0.5, 64, 10)
    return math.fsum(wx / np.sqrt(1.0 - xs * xs))


def _modular_domain_grid(T: float, panels: int):
    """Tensor nodes over {|x| <= 1/2, sqrt(1-x^2) <= y <= T} (for Q), by
    `panels` panels of order 8 on each axis."""
    xs, wx = gl_panel_nodes(-0.5, 0.5, panels, 8)
    X, Y, W = [], [], []
    for x, w in zip(xs, wx):
        y0 = math.sqrt(1.0 - x * x)
        ys, wy = gl_panel_nodes(y0, T, panels, 8)
        X.append(np.full(ys.shape, x))
        Y.append(ys)
        W.append(w * wy)
    return np.concatenate(X), np.concatenate(Y), np.concatenate(W)


_MS_MAX_PANELS = 96  # panel cap per axis of the Maass-Selberg grid
_MS_RTOL = 3e-4  # relative change between panel counts that ends the doubling


def maass_selberg_numeric(field: FieldData, s: complex, sp: complex, T: float,
                          ctx: ZetaContext | None = None):
    """Numeric integral of E^T(z,s) E^T(z,s') over the modular surface (Q only).

    Splits the classical domain at y = T; below, E^T = E via the Fourier
    grid; above, both truncated series are bare frequency tails and the
    contribution is exponentially negligible (still integrated).  The panel
    count doubles from 12 until two values agree to _MS_RTOL, and raises
    QuadratureBudgetExceeded if they do not by 96 panels per axis.
    """
    if field.d != 0:
        raise DomainError("numeric Maass-Selberg integral implemented for Q only")
    ctx = ctx or make_context(field)
    # strip above T: truncated tails only, the same at every panel count
    xs2, wx2 = gl_panel_nodes(-0.5, 0.5, 8, 8)
    ys2, wy2 = gl_panel_nodes(T, T + 6.0, 8, 8)
    X2, Y2 = np.meshgrid(xs2, ys2, indexing="ij")
    W2 = np.outer(wx2, wy2)
    t1 = eisenstein_fourier_grid(field, s, [X2.ravel()], [Y2.ravel()], ctx, zero_mode=False)
    t2 = eisenstein_fourier_grid(field, sp, [X2.ravel()], [Y2.ravel()], ctx, zero_mode=False)
    strip = complex(np.sum(W2.ravel() * t1 * t2 / Y2.ravel() ** 2))
    panels = 12
    prev = None
    while True:
        X, Y, W = _modular_domain_grid(T, panels)
        Es = eisenstein_fourier_grid(field, s, [X], [Y], ctx)
        Esp = eisenstein_fourier_grid(field, sp, [X], [Y], ctx)
        val = complex(np.sum(W * Es * Esp / Y ** 2)) + strip
        if prev is not None and abs(val - prev) <= _MS_RTOL * abs(val):
            return val
        if panels >= _MS_MAX_PANELS:
            raise QuadratureBudgetExceeded(
                "Maass-Selberg integral not converged at %d panels: last change %.3g, "
                "rtol %.3g" % (panels, abs(val - prev) / abs(val), _MS_RTOL))
        prev = val
        panels *= 2


# ---------------------------------------------------------------------------
# Cusp classes on a cross section
# ---------------------------------------------------------------------------

def slice_candidates(field: FieldData, q: float, floor: float) -> np.ndarray:
    """Pairs (c, d), c != 0, whose cusp may rise above height `floor` on the
    cross section at height q, one pair per cusp, as rows of ring
    coordinates (c1, c2, d1, d2).

    Reach bound: the slice has prod_i y_i^deg_i = q and |c_i z_i + d_i| >=
    |c_i| y_i, so V(c, d; z) = prod_i |c_i z_i + d_i|^(2 deg_i) >= N(c)^2 q^2
    and the cusp's height q / V is at most 1 / (N(c)^2 q); only c with
    N(c)^2 q floor < 1 are kept.  c is torsion-canonical and unit-balanced
    (`_unit_balanced`), so each coprime pair is a distinct cusp, and
    |c_i| < (q floor)^(-1/(2n)) e^(R/2) (no e^(R/2) when r = 1).  The cusp
    rises above `floor` only where |x_i + d_i / c_i| < h_i (`_half_widths`),
    so |d_i| < |c_i| (max |x_i| over the box + h_i).  The d count is
    predicted first (`fields._ball_size`, which refuses above its budget:
    the count grows like 1/(q floor))."""
    # e^(R/2) per unit of rank r - 1; 1 + 1e-9 guards rounding only
    radius = (q * floor) ** (-0.5 / field.n) * math.exp((field.r - 1) * field.regulator / 2) \
        * (1 + 1e-9)
    _, cu, cv = _ball_points(field, [np.zeros(1)] * field.r, [np.full(1, radius)] * field.r)
    keep = _canonical_c(field, cu, cv)
    cu, cv = cu[keep], cv[keep]
    reach = _reach(field, cu, cv, q, floor)
    keep = _unit_balanced(field, cu, cv) & (reach < 1.0)
    cu, cv, reach = cu[keep], cv[keep], reach[keep]
    corners = np.array(list(itertools.product((-0.5, 0.5), repeat=field.n + field.r - 1)))
    xs, ys = slice_embeddings(field, q, corners[:, :field.n], corners[:, field.n:])
    h = _half_widths(field, 1.0 / reach, [y.max() for y in ys])
    radii = [np.abs(c) * (np.abs(x).max() + hi)
             for c, x, hi in zip(_embed_coords(field, cu, cv), xs, h)]
    _ball_size(field, radii, "the d balls of the cusps at q = %g, floor %g" % (q, floor))
    k, du, dv = _ball_points(field, [np.zeros(cu.size)] * field.r, radii)
    coords = np.stack([cu[k], cv[k], du, dv], axis=1)
    return coords[_coprime_mask(field, *coords.T)]


def _half_widths(field: FieldData, rho: np.ndarray, ymax):
    """Per place i, the largest |x_i + d_i / c_i| at which the cusp -d/c can
    be above T on a slice whose heights are at most ymax[i], for
    rho = 1 / (N(c)^2 q T): since prod_i y_i^deg_i = q, V >= N(c)^2 q^2
    (1 + a_i^2)^deg_i with a_i = |c_i x_i + d_i| / (|c_i| y_i), so q / V > T
    needs a_i^2 < rho^(1/deg_i) - 1."""
    return [y * np.sqrt(rho ** (1.0 / deg) * (1 + 1e-9) - 1)
            for y, deg in zip(ymax, field.place_degrees)]


def _reach(field: FieldData, c1, c2, q: float, floor: float) -> np.ndarray:
    """N(c)^2 q floor: a cusp -d/c rises above `floor` somewhere on the
    slice at height q only if this is below 1."""
    n = np.asarray(_coord_norm(field, c1, c2), dtype=float)
    return n * n * (q * floor)


@lru_cache(maxsize=1)  # one entry: remark_identity_check and its shadow_fraction share it
def _cusp_classes(field: FieldData, q: float, T: float):
    """The cusps of `slice_candidates(field, q, T)` up to translation by o,
    one d per class mod c (d ~ d' when the integer c sigma(c) divides
    (d - d') sigma(c): exact), as rows (c1, c2, d1, d2), and the distinct
    |N(c)| with their class counts, from the cusps' geometry alone."""
    coords = slice_candidates(field, q, T)
    c1, c2, d1, d2 = coords.T
    s1, s2 = _coord_conj(field, c1, c2)
    m = np.abs(_coord_mul(field, c1, c2, s1, s2)[0])
    keys = np.stack([c1, c2, *(k % m for k in _coord_mul(field, d1, d2, s1, s2))])
    order = np.lexsort(keys[::-1])  # stable: each class's first candidate leads its run
    lead = np.ones(order.size, dtype=bool)
    lead[1:] = np.any(np.diff(keys[:, order], axis=1) != 0, axis=0)
    rows = coords[np.sort(order[lead])]
    norms, counts = np.unique(np.abs(_coord_norm(field, rows[:, 0], rows[:, 1])), return_counts=True)
    for a in (rows, norms, counts):  # every caller gets these arrays: read-only
        a.flags.writeable = False
    return rows, norms, counts


def _place_rule(field: FieldData, top: np.ndarray):
    """Nodes t = 1 + x^2 and weights of int_0^top w(x) dx per entry of top, w
    from `geometry._PLACE_WEIGHTS`: 2 GL panels of 16 nodes in tau = asinh x.
    At top = sqrt(rho - 1) the sums are within 6.7e-16 of 2 sqrt(rho - 1),
    pi (sqrt rho - 1) and, up to rho = 4e6, an mpmath quad at two real places
    (rho - 1 in [1e-12, 1e8]; 1.2e-13 at rho = 1e8, the AGM's error)."""
    tau = np.arcsinh(np.asarray(top, dtype=float))[:, None]
    g, gw = gl_panel_nodes(0.0, 1.0, 2, 16)
    ch = np.cosh(tau * g)
    return ch * ch, _PLACE_WEIGHTS[field.place_degrees](np.sinh(tau * g), ch * ch) * ch * (tau * gw)


def shadow_fraction(field: FieldData, q: float, T: float) -> float:
    """V_T(q), the share of the cross section at height q inside other cusps'
    horoballs of height > T: (q / covol(o)) sum A(1 / (N(c)^2 q T)) over
    `_cusp_classes`, exactly.  For T >= 1 those horoballs are disjoint, and
    -d/c is above T where prod_i (1 + a_i^2)^deg_i < 1 / (N(c)^2 q T), with
    a_i = |c_i x_i + d_i| / (|c_i| y_i) and dx_i = y_i^deg_i da_i; A is the
    volume of that set of a (`_place_rule`).  DomainError unless
    0 < q < inf and 1 <= T < inf."""
    if not (0.0 < q < math.inf and 1.0 <= T < math.inf):
        raise DomainError("need 0 < q < inf and 1 <= T < inf, got q = %r, T = %r" % (q, T))
    _, norms, counts = _cusp_classes(field, float(q), float(T))
    w = _place_rule(field, np.sqrt(1.0 / (norms ** 2.0 * (q * T)) - 1.0))[1]
    return q * 2 ** field.r2 / math.sqrt(field.D) * float(counts @ w.sum(axis=1))


_Q_LO = 1e-4  # q_lo / q_hi in remark_identity_check; its residual scales as q_lo^(s'-1)


def remark_identity_check(field: FieldData, sprime: float, T: float,
                          ctx: ZetaContext | None = None):
    """Both sides of int_{M_T} E(z, s') dv = C (T^{s'-1}/(s'-1) - phi(s')T^{-s'}/s').

    The left side unfolds to the cusp box, where the slice average of E's
    zero mode is exact; the numeric part is V_T(q) (`shadow_fraction`):

        lhs = C1 (T^{s'-1}/(s'-1) - int_0^T q^{s'-2} V_T(q) dq).

    V_T is 0 above q_hi = 1/T.  The classes are enumerated once, at
    q_lo = _Q_LO q_hi, and above q_lo each integrates in closed form, one
    `_place_rule` per distinct norm N:

        int_{q_lo} q^{s'-1} A(1/(N^2 q T)) dq = (N^2 T)^{-s'} G(N^2 T q_lo),
        G(a) = int_0^{sqrt(1/a - 1)} w(x) ((1 + x^2)^{-s'} - a^{s'}) / s' dx.

    Below q_lo, V_T (which tends to a constant: the phi term) is taken as
    V_T(q_lo), an error of order q_lo^(s'-1).  Over d = 0, 5, -1, 2, -3, 13
    the relative residual is at most 4.9e-9 at s' = 2, T = 3 (1.6e-6 at
    s' = 1.5, 3.8e-14 at s' = 3; 5.0e-7 at T = 1, 4.6e-8 at T = 1.5).
    DomainError unless 1 < s' < inf and 1 <= T < inf."""
    if not (1.0 < sprime < math.inf and 1.0 <= T < math.inf):
        raise DomainError("need 1 < s' < inf and 1 <= T < inf, got s' = %r, T = %r" % (sprime, T))
    ctx = ctx or make_context(field)
    q_lo = _Q_LO / T
    J = shadow_fraction(field, q_lo, T) * q_lo ** (sprime - 1.0) / (sprime - 1.0)
    _, norms, counts = _cusp_classes(field, q_lo, float(T))
    a = norms ** 2.0 * (T * q_lo)
    t, w = _place_rule(field, np.sqrt(1.0 / a - 1.0))
    G = ((t ** -sprime - a[:, None] ** sprime) * w).sum(axis=1) / sprime
    J += 2 ** field.r2 / math.sqrt(field.D) * float(counts @ ((norms ** 2.0 * T) ** -sprime * G))
    main = T ** (sprime - 1.0) / (sprime - 1.0)
    return (unfold_constant(field) * (main - J), maass_selberg_constant(field)
            * (main - phi(ctx, sprime).real * T ** (-sprime) / sprime))
