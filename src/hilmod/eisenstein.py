"""Eisenstein series by lattice sum and by Fourier expansion, and the
closed forms of the Maass-Selberg, volume and residue identities.

The two evaluation routes share nothing past the field invariants: the
direct route sums every lattice pair outside 2(o x o) once with the Moebius
weights of 1 / (zeta_K(2s) (1 - N(2)^-2s)), which leaves the coprime pairs
(with a calibrated continuum tail), and looks the weights up only for the
pairs with V <= BV / m0^2, the rest having weight 1, which on Q it sums
mostly by Euler-Maclaurin, a stretch of a row at a time; the Fourier route sums
MacDonald-Bessel terms against ideal divisor sums.  Their agreement is the
package's main self-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fields
from .errors import (DegenerateParameters, DomainError, NotConvergent,
                     QuadratureBudgetExceeded, ZeroFrequency)
from .fields import (FieldData, _ball_points, _ball_ranges, _ball_size, _canonical_c,
                     _coord_norm, _embed_coords, _ragged_blocks, _ragged_values,
                     ideal_divisor_norms, sieved_mobius_sums)
from .geometry import Cusp, Point
from .quadrature import _gl_nodes
from .specfun import _BESSEL_RTOL, bessel_k_grid, exp_real_times
from .zeta import (_LOG_MAX, ZetaContext, _finite_s, completed_zeta, dedekind_zeta,
                   make_context, phi, residue_phi)

_BESSEL_DECAY_CUT = 45.0   # Fourier terms kept: total Bessel argument up to this
                           # plus the |Im| of the Bessel orders (_frequency_cut)
_TARGET_TOL = 1e-8         # tail error the default norm bound of the direct route aims at
# lattice pairs one direct-route call may sum (`_lattice_pairs`): 11 times
# the 2.4e7 of Q at its largest default bound, 2e7
_PAIR_BUDGET = 1 << 28


@dataclass
class EisensteinParams:
    s: complex
    norm_bound: float | None = None


# ---------------------------------------------------------------------------
# Pair enumeration
# ---------------------------------------------------------------------------

def _pair_geometry(field: FieldData, z: Point, BV: float):
    """The c and d balls of the pair enumeration at z.

    A pair is kept when V = prod_i V_i^deg_i <= BV, with
    V_i = |c_i x_i + d_i|^2 + |c_i|^2 y_i^2, and, at two real places, when
    t = log(V_1 / V_2) lies in [-2R, 2R), which keeps one representative per
    orbit of the fundamental unit.  Then V_i <= B at every place, with
    B = BV^(1/n), times e^R at two real places.  Returns the torsion-canonical
    c != 0 with |c_i| y_i <= sqrt(B) as ring coordinates (cu, cv), their
    heights h_i = |c_i|^2 y_i^2, and per c the d ball: centres -c_i x_i and
    radii sqrt(B - h_i).  The c ball's size is predicted first
    (`fields._ball_size`), which refuses skewed heights at two real places
    (y = (1e-9, 1e9) on Q(sqrt 5): about 2e10 rows of c) before any row is
    built.
    """
    xs, ys = zip(*z.coords)
    B = BV if field.n == 1 else math.sqrt(BV)
    if field.r == 2:
        B = B * math.exp(field.regulator) * 1.0000001
    radii = [math.sqrt(B) / y for y in ys]
    _ball_size(field, radii, "the c ball at heights %s" % ", ".join("%g" % y for y in ys))
    _, cu, cv = _ball_points(field, [np.zeros(1)] * field.r, [np.full(1, R) for R in radii])
    ce = _embed_coords(field, cu, cv)
    h = [(np.abs(c) * y) ** 2 for c, y in zip(ce, ys)]
    keep = np.logical_and.reduce([_canonical_c(field, cu, cv)] + [hi <= B for hi in h])
    return (cu[keep], cv[keep], [hi[keep] for hi in h],
            [-c[keep] * x for c, x in zip(ce, xs)], [np.sqrt(B - hi[keep]) for hi in h])


def _pair_rows(field: FieldData, cu, cv, centres, radii, du_ranges=None):
    """The rows of the d balls of `_pair_geometry` that `_pair_blocks`
    enumerates, with no d in 2o for a c in 2o, in blocks of row pieces
    (k, dv, first du, count, q): the points of the row (c_k, dv) from the
    first du on, by a step of 1 in the first q pieces and of 2 in the rest.
    On Q, where each c has one row, du_ranges, a pair of arrays, gives the
    du range [lo_k, hi_k] of row k in place of its d ball's.

    The rows come in three runs, each in order of c, then dv: every row of
    each c outside 2o; the odd-dv rows of each c in 2o; the even-dv rows of
    each c in 2o, on which du is odd (d = 1 + 2 d', the coset 1 + 2o).  One
    ragged stream lays the rows end to end and another their points, and
    each block holds at most `fields._PAIR_BLOCK` rows or points; a row
    longer than that is split between blocks."""
    vlo, vhi, u_range = _ball_ranges(field, centres, radii)
    if du_ranges is not None:
        def u_range(k, dv):
            return du_ranges[0][k], du_ranges[1][k]
    even = (cu | cv) & 1 == 0
    ev = np.flatnonzero(even)
    k = np.concatenate([np.flatnonzero(~even), ev, ev])
    # dv = t on the first run, 2t + 1 on the second and 2t on the third
    ia, ib = k.size - 2 * ev.size, k.size - ev.size
    lo, hi = vlo[k], vhi[k]
    del vlo, vhi, even, ev  # the rows' arrays are of size sqrt(BV): keep few
    lo[ia:ib], hi[ia:ib] = lo[ia:ib] >> 1, (hi[ia:ib] - 1) >> 1
    lo[ib:], hi[ib:] = (lo[ib:] + 1) >> 1, hi[ib:] >> 1
    for g, dv in _ragged_values(lo, hi):
        ra, rb = np.searchsorted(g, (ia, ib))
        dv[ra:] <<= 1
        dv[ra:rb] += 1
        kg = k[g]
        del g
        ulo, uhi = (a.astype(np.int64) for a in u_range(kg, dv))
        # du = 1 + 2u' on the third run
        ulo[rb:] >>= 1
        uhi[rb:] -= 1
        uhi[rb:] >>= 1
        for j, u0, n in _ragged_blocks(ulo, uhi):
            q = j.size if j[-1] < rb else int(np.searchsorted(j, rb))
            if q < j.size:
                u0[q:] <<= 1
                u0[q:] += 1
            yield kg[j], dv[j], u0, n, q


def _pair_blocks(field: FieldData, z: Point, BV: float, trimmed=None):
    """Unit-orbit representatives (c, d) with c != 0 and V <= BV that do not
    lie in 2(o x o), coprime or not, where
    V = prod_i (|c^(i) x_i + d^(i)|^2 + |c^(i)|^2 y_i^2)^{N_i}, as a stream
    of (V, cols) blocks: the pairs' V, and cols(), which builds their ring
    coordinates (c1, c2, d1, d2) as four columns on demand.

    Torsion is fixed on c before any d is built, and the d balls of
    `_pair_geometry` are enumerated by `_pair_rows`, which builds no d in 2o
    for a c in 2o, in the order it states; each block examines at most
    `fields._PAIR_BLOCK` candidates, so memory is bounded by the block, not
    by BV.  V is built from the row pieces: along a piece only du moves, so
    the terms that do not (dv omega_i, the d-ball centre m_i, h_i, and
    (dv Im omega - Im m)^2 at a complex place) are formed once per piece.
    V_i is added up in the order of du + dv omega_i, so V keeps the bits of
    V from each pair's embeddings, with |w|^2 = (Re w)^2 + (Im w)^2.  du is
    built once per block, as floats.  Where every dv of a block is 0 (every
    block on Q), the sum skips dv omega_i: that term is +-0.0, and
    +-0.0 + du is du exactly, so V keeps its bits there too.

    V is the block's own array (on Q, du's, which it no longer needs), its
    kept pairs taken by boolean indexing.  The pass mask that cols() reads
    is a view of a workspace allocated once per call, valid until the next
    block is drawn, so a caller calls cols() before it draws the next block.  np.repeat spreads the piece terms:
    gathered into the workspace along a cumsum piece index they ran 6-30%
    slower.

    trimmed, on Q, is the geometry of `_pair_geometry` at (z, BV) and each
    c's du range (`_weight_one_stretches`), which the rows keep in place of
    the whole d balls.
    """
    cu, cv, h, centres, radii = trimmed[0] if trimmed else _pair_geometry(field, z, BV)
    R = field.regulator
    omegas = field.omega_places
    tmp = np.empty(fields._PAIR_BLOCK)
    keep, edge = np.empty((2, fields._PAIR_BLOCK), dtype=bool)
    ramps = np.arange(fields._PAIR_BLOCK, dtype=float) * np.array([[1], [2]])

    def du_values(du0, n, q):
        """du on the pieces, by a step of 1 in the first q, then of 2, as
        floats (exact: |du| < 2^53)."""
        starts = np.cumsum(n) - n
        p = int(starts[q]) if q < n.size else int(n.sum())
        starts[q:] <<= 1
        du = np.repeat((du0 - starts).astype(float), n)
        du[:p] += ramps[0, :p]
        du[p:] += ramps[1, p:du.size]
        return du

    for k, dv, du0, n, q in _pair_rows(field, cu, cv, centres, radii,
                                       trimmed[1] if trimmed else None):
        du = du_values(du0, n, q)
        N = du.size
        dv_zero = not dv.any()
        Vp = []
        for i, (o, m, hi, deg) in enumerate(zip(omegas, centres, h, field.place_degrees)):
            if dv_zero:  # at the last place into du's array, spent after it
                Vi = np.subtract(du, np.repeat(m.real[k], n), out=du if i == field.r - 1 else None)
            else:
                Vi = np.repeat(dv * o.real, n)
                Vi += du
                Vi -= np.repeat(m.real[k], n)
            Vi *= Vi
            if deg == 2:
                Vi += np.repeat((dv * o.imag - m.imag[k]) ** 2, n)
            Vi += np.repeat(hi[k], n)
            Vp.append(Vi)
        if field.r == 2:
            w = np.log(np.divide(Vp[0], Vp[1], out=tmp[:N]), out=tmp[:N])
        # n = 2: two real places, or one complex place squared
        V = Vp[0]
        if field.n == 2:
            V *= Vp[-1]
        kp = np.less_equal(V, BV, out=keep[:N])
        if field.r == 2:
            kp &= np.greater_equal(w, -2 * R, out=edge[:N])
            kp &= np.less(w, 2 * R, out=edge[:N])
        if not kp.all():
            V = V[kp]

        def cols(k=k, dv=dv, du0=du0, n=n, q=q, keep=kp):
            kq, dvp = np.repeat(k, n)[keep], np.repeat(dv, n)[keep]
            return cu[kq], cv[kq], du_values(du0, n, q)[keep].astype(np.int64), dvp
        yield V, cols


def _lattice_pairs(field: FieldData, B: float) -> float:
    """The lattice pairs that `_pair_blocks` yields at norm bound B, predicted:
    the volume 2^(n-1) R pi^n B / (omega D) of V <= B N(y) over the units,
    in units of covol(o x o), less its share 4^-n in 2(o x o).  Within
    0.21% of the pairs of every eisenstein benchmark operation, seeds 11-20
    (0.04% on Q at B = 2e6)."""
    return (2 ** (field.n - 1) * field.regulator * math.pi ** field.n
            * (1 - 4.0 ** -field.n) * B / (field.omega * field.D))


# ---------------------------------------------------------------------------
# Direct evaluation
# ---------------------------------------------------------------------------

def _weight_tables(field: FieldData, B: float, ny: float, p: complex):
    """The direct route's Moebius weights less 1, M(j) - 1 and W_p(j) - 1
    for j = 0..m-1, m = floor(sqrt(B / N(y))) + 2, and the cut above which
    a pair's weights are all 1: BV / m0^2 (`_weight_one_end`) a little
    raised, BV = B N(y).  QuadratureBudgetExceeded, before it builds them,
    for tables of more than `fields._CANDIDATE_BUDGET` entries."""
    # V >= N(c)^2 N(y)^2 >= N(y)^2 for c != 0, so the floors stay below
    # sqrt(B / N(y)) + 1; one more entry absorbs the rounding of V
    m = int(math.sqrt(B / ny)) + 2
    if m > fields._CANDIDATE_BUDGET:
        raise QuadratureBudgetExceeded(
            "a Moebius table of %.3g entries at bound %g and N(y) %g passes the budget of %d"
            % (m, B, ny, fields._CANDIDATE_BUDGET))
    mu = sieved_mobius_sums(field, m - 1)
    M1 = np.cumsum(mu) - 1
    W1 = np.cumsum(mu * np.exp(-2 * p * np.log(np.maximum(np.arange(m), 1)))) - 1
    # above the cut floor(sqrt(BV / V)) < m0: the margin of 2^-48 covers the
    # rounding of the cut, of BV / V and of the root
    return M1, W1, B * ny / _weight_one_end(mu) ** 2 * (1 + 2.0 ** -48)


def _weight_one_end(mu: np.ndarray) -> int:
    """m0, the least n >= 2 with mu[n] != 0, or the table's size if there
    is none: the Moebius sums W_s(j) and M(j) are 1 for 1 <= j < m0."""
    nonzero = np.flatnonzero(mu[2:])
    return 2 + int(nonzero[0]) if nonzero.size else mu.size


# Euler-Maclaurin sums of the weight-one stretches of the rows on Q
_EM_ORDER = 16             # Gauss-Legendre nodes per panel of a stretch's integral
_EM_TERMS = 12             # most Euler-Maclaurin correction terms a stretch takes
_EM_STRIP = math.pi / 4    # half-height of the panels' ellipses: half-way to the poles at +-i pi/2
_TWO_PI = 2 * np.longdouble("3.14159265358979323846264338327950288")


# B_2k / (2k)! for k = 1.._EM_TERMS, from the Bernoulli numbers B_2k as
# integer ratios, each quotient rounded once
_EM_BERNOULLI = np.array([num / (den * math.factorial(2 * k)) for k, (num, den) in enumerate(
    [(1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
     (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730)][:_EM_TERMS], 1)])


def _row_V(d, m, h):
    """V = (d - m)^2 + h of the pairs (c, d) of a row on Q (d ball centre m,
    height h), rounded as `_pair_blocks` rounds it: d - m, squared, plus h.
    Rounding is monotone, so V grows with |d - m| away from the row's least V."""
    w = d - m
    w *= w
    w += h
    return w


def _reach(m, h, dc, X, side):
    """Per row, the last d = dc + side j, j >= 0, with V(d) <= X, where V is
    `_row_V` and dc the row's least V, or dc - side where V(dc) > X: from
    the estimate m + side sqrt(X - h), steps of 1 on the rounded V."""
    j = np.floor(side * (m - dc) + np.sqrt(np.maximum(X - h, 0.0)))
    np.maximum(j, -1.0, out=j)
    while True:
        over = (j >= 0) & (_row_V(dc + side * j, m, h) > X)
        if not over.any():
            break
        j -= over
    while True:
        more = _row_V(dc + side * (j + 1), m, h) <= X
        if not more.any():
            break
        j += more
    return dc + side * j


def _weight_one_stretches(field: FieldData, geometry, BV: float, cut: float, s: complex,
                          ny: float):
    """On Q, the stretches of each row where every pair has weight one,
    cut < V <= BV, and which of them `_stretch_sums` sums by Euler-Maclaurin.

    Row c holds the d of its ball (`_ball_ranges`) with V <= BV, every d for
    an odd c and the odd d for an even c (step 2).  Its pairs with V <= cut
    form one range of d around the least V, so the rest form two stretches,
    one on each side, or one where no d has V <= cut.  The ends of the
    stretches and their BV / 2 crossings come from `_reach` on the V that
    `_pair_blocks` forms, so the counts are those of the pairs, ties
    included.

    A stretch is summed by Euler-Maclaurin where a computed bound allows.
    With f(d) = (y / V)^s and G = V, |f^(n)| <= (2|s|)_n y^sigma
    G^(-sigma - n/2), since |C_n^s| <= (2|s|)_n / n!; the remainder after K
    terms is at most 2 zeta(2K) (2 pi)^-2K step^(2K - 1) int |f^(2K)|, and
    that integral, over tau = asinh((d - m) / sqrt h), is bounded from G0,
    the V of the stretch's point nearest its row's least V (h if it holds
    that point), by the convexity of log cosh.  The Gauss-Legendre error of
    the integral is bounded on panel ellipses of half-height _EM_STRIP in
    tau, where |cosh^(1 - 2s)| <= (cosh^2 u - 1/2)^(1/2 - sigma)
    e^(2 |Im s| _EM_STRIP), by 64/15 M rho^(-2n) / (rho^2 - 1) per unit of
    half-width (Trefethen, SIAM Review 50, 2008, thm 4.5).  The least K up
    to _EM_TERMS whose remainder bound, and the panels whose Gauss bound,
    are each below 2^-54 of the stretch's sum of |f| (at least its points
    times |f| at the far end) are taken, where that evaluates fewer values
    than the stretch has points; else its pairs stay in the rows.

    Returns the rows' du ranges less the stretches taken, those stretches'
    count of pairs and of pairs with V <= BV / 2, and per stretch taken
    (row, K, first and last d, step, m, h, G0, tanh tau0, its tau from
    tau0 at its first d, its span of tau, panels, error bound)."""
    cu, _, (h,), (m,), _ = geometry
    rows = np.arange(cu.size)
    # each row's d ball as the pair stream takes it
    ulo, uhi = _ball_ranges(field, geometry[3], geometry[4])[2](rows, np.zeros(cu.size))
    step = (2 - (cu & 1)).astype(float)
    off = step - 1  # d = step i + off: the odd d for an even c
    dc = np.floor(m)  # each row's d of least V
    dc += _row_V(dc + 1, m, h) < _row_V(dc, m, h)
    ends = {X: (_reach(m, h, dc, X, -1), _reach(m, h, dc, X, 1)) for X in (BV, cut, BV / 2)}

    def first(d):  # the index i of a row's first point at or after d
        return -np.floor_divide(off - d, step)

    def last(d):   # and of its last at or before d
        return np.floor_divide(d - off, step)

    i0 = first(np.maximum(ends[BV][0], ulo))
    i3 = last(np.minimum(ends[BV][1], uhi))
    single = ends[cut][0] > ends[cut][1]
    i1 = np.where(single, i3, first(ends[cut][0]) - 1)
    i2 = np.where(single, i3 + 1, last(ends[cut][1]) + 1)
    k = np.concatenate([rows, rows])
    ia, ib = np.concatenate([i0, i2]), np.concatenate([i1, i3])
    n = ib - ia + 1
    # only a stretch of more points than one panel and its ends can qualify
    can = np.flatnonzero(n > _EM_ORDER + 2)
    k, ia, ib, n = k[can], ia[can], ib[can], n[can]
    st, mk, hk = step[k], m[k], h[k]
    a, b = st * ia + off[k], st * ib + off[k]
    wa, wb = a - mk, b - mk
    Va, Vb = _row_V(a, mk, hk), _row_V(b, mk, hk)
    # tau = asinh(w / sqrt h) from tau0, the stretch's tau nearest 0, where
    # G = G0 and tanh tau0 = t0: on a stretch to one side of its row's least
    # V its span is asinh of the difference of the ends' asinh arguments,
    # which keeps its bits where tau is large
    rh = np.sqrt(hk)
    straddle = (wa < 0) & (wb > 0)
    near_a = np.abs(wa) <= np.abs(wb)
    w0 = np.where(straddle, 0.0, np.where(near_a, wa, wb))
    G0 = np.where(straddle, hk, np.where(near_a, Va, Vb))
    t0 = w0 / np.sqrt(G0)
    span = np.arcsinh(wb / rh) - np.arcsinh(wa / rh)
    one_side = np.flatnonzero(~straddle)
    wa1, wb1 = wa[one_side], wb[one_side]
    span[one_side] = np.arcsinh((b - a)[one_side] * (wa1 + wb1)
                                / (wb1 * np.sqrt(Va[one_side]) + wa1 * np.sqrt(Vb[one_side])))
    ua = np.where(straddle, np.arcsinh(wa / rh), np.where(near_a, 0.0, -span))
    u0 = np.arcsinh(np.abs(w0) / rh)
    sigma, t = s.real, abs(s.imag)
    # log of 2^-54 sum |f| / y^sigma
    log_tol = np.log(n) - sigma * np.log(np.maximum(Va, Vb)) - 54 * math.log(2)
    log_G0, log_h, log_step = np.log(G0), np.log(hk), np.log(st)
    # the least K whose remainder bound is within the tolerance
    base = 0.5 * log_h - log_step + (0.5 - sigma) * log_G0
    slope, log_span = 2 * log_step - log_G0, np.log(span)
    log_t0 = np.log(np.maximum(np.abs(t0), 1e-300))
    K, log_r = np.zeros(can.size, dtype=np.intp), np.zeros(can.size)
    for kk in range(_EM_TERMS, 0, -1):
        bound = (math.log(math.pi ** 2 / 3) - 2 * kk * math.log(2 * math.pi)
                 + math.lgamma(2 * abs(s) + 2 * kk) - math.lgamma(2 * abs(s)) + base + kk * slope
                 + np.minimum(log_span, -math.log(2 * sigma + 2 * kk - 1) - log_t0))
        ok = bound <= log_tol
        K[ok], log_r[ok] = kk, bound[ok]
    um = np.maximum(u0 - _EM_STRIP, 0.0)
    # the Gauss bound less its rho terms
    log_gl = (math.log(64 / 15) + np.log(span / 2) - log_step + 2 * t * _EM_STRIP
              + (0.5 - sigma) * (log_h + np.log(np.cosh(um) ** 2 - math.sin(_EM_STRIP) ** 2)))
    rho = np.exp(np.clip((log_gl - log_tol) / (2 * _EM_ORDER), math.log(2), 40.0))
    panels = np.maximum(np.ceil(span * (rho * rho - 1) / (4 * rho * _EM_STRIP)), 1)
    take = np.flatnonzero((K > 0) & (panels * _EM_ORDER + 2 < n))
    k, ia, ib, n, panels, span = k[take], ia[take], ib[take], n[take], panels[take], span[take]
    # the bound of the panels taken: rho of their half-width
    half = span / (2 * panels)
    rho = (_EM_STRIP + np.sqrt(half * half + _EM_STRIP ** 2)) / half
    log_gl = log_gl[take] - 2 * _EM_ORDER * np.log(rho) - np.log(rho * rho - 1)
    bound = ny ** sigma * (np.exp(log_r[take]) + np.exp(log_gl))
    # the stretches taken leave their rows: a left one (or a row's single
    # stretch) from its row's first d, a right one to its last
    left = can[take] < rows.size
    lo, hi = ulo.copy(), uhi.copy()
    lo[k[left]] = b[take][left] + 1
    hi[k[~left]] = a[take][~left] - 1
    i_lo, i_hi = first(ends[BV / 2][0])[k], last(ends[BV / 2][1])[k]
    inner = np.maximum(np.minimum(ib, i_hi) - np.maximum(ia, i_lo) + 1, 0)
    return ((lo, hi), int(n.sum()), int(inner.sum()),
            (k, K[take], a[take], b[take], st[take], mk[take], hk[take], G0[take], t0[take],
             ua[take], span, panels.astype(np.intp), bound))


def _stretch_sums(stretches, p, ny: float, work, term, index) -> np.ndarray:
    """The sums of f(d) = (N(y) / V)^p over the stretches of
    `_weight_one_stretches`, each by Euler-Maclaurin with its K terms:

        int_a^b f / step + (f(a) + f(b)) / 2
        + sum_{k <= K} B_2k / (2k)! step^(2k - 1) (f^(2k-1)(b) - f^(2k-1)(a)),

    with f^(n) = f E_n, E_n = (-1)^n n! G^(-n/2) C_n^p((d - m) / sqrt G),
    G = (d - m)^2 + h, from the Gegenbauer recurrence.  The integral is
    y^p h^(1/2 - p) int cosh^(1 - 2p) tau dtau, tau = asinh((d - m) / sqrt h),
    taken as (y / G0)^p sqrt(G0) int (cosh tau / cosh tau0)^(1 - 2p) dtau
    about the stretch's point tau0 nearest its row's least V, where
    G = G0, so that the powers' logarithms stay small.  It runs on equal
    Gauss-Legendre panels of _EM_ORDER nodes, laid into the workspace of
    `eisenstein_direct` (`work`, `term`, `index`) in blocks of whole panels:
    at most `fields._PAIR_BLOCK` nodes, or one panel.  At complex p the node
    powers are `specfun.exp_real_times` at 1 - 2p."""
    _, K, a, b, step, m, h, G0, t0, ua, span, panels, _ = stretches
    if not K.size:
        return np.zeros(0)
    x, wt = _gl_nodes(_EM_ORDER)
    starts = np.cumsum(panels) - panels
    half = span / (2 * panels)
    integral = np.zeros(K.size, dtype=term.dtype)
    total, q = int(starts[-1] + panels[-1]), 1 - 2 * p
    size = max(fields._PAIR_BLOCK // _EM_ORDER, 1)  # panels per block
    for p0 in range(0, total, size):
        # the block's panels: per panel its stretch j, half-width and centre
        at = np.arange(p0, min(p0 + size, total))
        j = np.searchsorted(starts, at, side="right") - 1
        hj = half[j]
        # at u = tau - tau0, log(cosh tau / cosh tau0) = log(cosh u + t0 sinh u)
        L, sh = work[4, :at.size * _EM_ORDER], work[3, :at.size * _EM_ORDER]
        u = L.reshape(-1, _EM_ORDER)
        np.multiply(hj[:, None], x, out=u)
        u += (ua[j] + hj * (2 * (at - starts[j]) + 1))[:, None]
        np.sinh(L, out=sh)
        np.cosh(L, out=L)
        sh.reshape(u.shape)[:] *= t0[j][:, None]
        L += sh
        np.log(L, out=L)
        if isinstance(p, complex):
            values = exp_real_times(q, L, term[:L.size], work, index[:L.size])
        else:
            values = np.exp(np.multiply(L, q, out=L), out=L)
        sums = (values.reshape(-1, _EM_ORDER) @ wt) * hj
        head = np.flatnonzero(np.diff(j, prepend=-1))
        integral[j[head]] += np.add.reduceat(sums, head)
    # (y / G0)^p, common to the whole stretch where the pair sum rounds each
    # term's apart: its phase Im(p) log(y / G0) in extended precision, where
    # the platform has it
    integral *= np.power(ny / G0, p.real) * (np.sqrt(G0) / step)
    if isinstance(p, complex):
        phase = np.remainder(p.imag * np.log(np.longdouble(ny) / G0.astype(np.longdouble)),
                             _TWO_PI).astype(float)
        integral *= np.cos(phase) + 1j * np.sin(phase)
    # the ends a then b, their terms as the pair sum takes them (which
    # refuses a phase past exp_real_times' reach), with their odd
    # derivatives by the Gegenbauer recurrence
    w = np.concatenate([a - m, b - m])
    G = _row_V(np.concatenate([a, b]), np.tile(m, 2), np.tile(h, 2))
    L = np.subtract(math.log(ny), np.log(G))
    f = np.empty(L.size, dtype=term.dtype)
    for i in range(0, L.size, work.shape[1]):
        Li, fi = L[i:i + work.shape[1]], f[i:i + work.shape[1]]
        if isinstance(p, complex):
            exp_real_times(p, Li, fi, work, index[:Li.size])
        else:
            np.exp(np.multiply(Li, p, out=Li), out=fi)
    steps, terms = np.tile(step, 2), np.tile(K, 2)
    prev, cur = np.ones(w.size), -2 * p * w / G
    corr = np.zeros(w.size, dtype=cur.dtype)
    for n in range(1, 2 * int(K.max())):
        if n > 1:
            prev, cur = cur, -(2 * (n + p - 1) * w * cur + (n - 1) * (n + 2 * p - 2) * prev) / G
        if n % 2:
            corr += (terms > n // 2) * _EM_BERNOULLI[n // 2] * steps ** n * cur
    ends = f * (0.5 + np.concatenate([-corr[:K.size], corr[K.size:]]))
    return integral + ends[:K.size] + ends[K.size:]


def eisenstein_direct(field: FieldData, cusp: Cusp, z: Point,
                      params: EisensteinParams, return_parts: bool = False):
    """Lattice-sum Eisenstein value at Re(s) > 1 with a calibrated tail.

    Partial sum over the coprime orbit representatives with V <= BV plus the
    continuum tail A * N(y)^s * B^{1-s}/(s-1), where A is the empirical
    slope of the pair-counting function on the outer window [B/2, B].  The
    fluctuation of the counting function around its mean makes the residual
    error O(B^{1/3 - sigma}), documented in the tests that calibrate
    defaults.

    No pair is tested for coprimality.  Each orbit with c != 0 is g (c', d')
    for one ideal (g) and one coprime orbit (c', d'), with V = N(g)^2 V',
    and it lies in 2(o x o) exactly when (2) divides (g).  `_pair_blocks`
    skips those orbits (a quarter of the pairs on Q, 1/16 on a quadratic
    field), and Moebius inversion over the ideals (g) that (2) does not
    divide, whose Dirichlet series is zeta_K(w) (1 - N(2)^-w), gives the
    coprime sum as the sum over every other pair, once, of
    V^-s W_s(floor(sqrt(BV / V))), where W_s(m) = sum_{n <= m} mu_S(n) n^-2s
    sums the coefficients of 1 / (zeta_K(2s) (1 - N(2)^-2s))
    (`fields.sieved_mobius_sums`).  The pair and outer-window counts take
    the integer weights M(m) = sum_{n <= m} mu_S(n) at sqrt(BV / V) and
    sqrt(BV / 2V), so they are the exact coprime counts where no pair's V
    lies on BV or on BV / m^2 within rounding.  Where one does, the rounding
    of V can drop a multiple g (c', d') at V = BV while sqrt(BV / V') still
    reaches N(g), and the count is off: at integral points Q(i) at x = 0,
    y = 1, B = 100 counts 76 of the 86 coprime pairs, and Q(sqrt 5) at
    x = (0, 0), y = (1, 1), B = 100 counts 74 of 76.  The (0, 1) orbit,
    V = 1, is added apart.

    The weights are 1 below m0, the first n >= 2 with mu_S(n) != 0, read
    from the table (`_weight_one_end`: 3 on Q, where mu_S(2) = 0, 5 on
    Q(sqrt 5) and 2 on Q(i)), so every pair with V > BV / m0^2 has
    W_s = M = 1 at sqrt(BV / V) and M = [V <= BV / 2] at sqrt(BV / 2V).
    Each block takes (N(y) / V)^s for all its pairs, adds their count and
    those with V <= BV / 2; only the pairs at or below the cut, a few ulps
    above BV / m0^2 (about 1/9 of the pairs on Q, 1/25 on Q(sqrt 5), 1/4 on
    Q(i)), take the ratios, floors and gathers, and add their terms times
    W_s - 1 and their M - 1.  A pair near the cut lands on the table side,
    where its weights are exact either way.  The sum runs block by block
    (_pair_blocks), each block's terms, floors and gathers written into a
    workspace of this call's; the table side takes its pairs' V and terms
    whole where a block holds no other pair, and by boolean indexing, arrays
    of at most a block, where it does.  So memory is bounded by
    `fields._PAIR_BLOCK`, not by B; the block sums are added by math.fsum.
    At complex s, (N(y) / V)^s is `specfun.exp_real_times`.

    On Q (one real place) most weight-one pairs are not enumerated.  Each
    row c splits at the cut into its pairs with V <= cut, one range of d,
    and the weight-one stretches on either side of it, cut < V <= BV
    (`_weight_one_stretches`, whose ends and BV / 2 crossings come from the
    rounded V of `_pair_blocks`, so the counts are exactly those of the
    pairs).  A stretch whose Euler-Maclaurin sum, a Gauss-Legendre integral
    and K end corrections (`_stretch_sums`), has a computed bound on its
    error below 2^-53 of its sum of |f|, and evaluates fewer values than
    the stretch has points, is summed so and trimmed from its row; the
    rest of each row is summed pair by pair.  On the benchmark's Q calls
    (B = 2e6) this leaves about 2.6e5 of the 2.4e6 pairs.  Against summing
    every pair, the partial sum moves by at most 4.4e-16 relative at
    s = 1.5, 2 and 1.3+0.5i and 1.0e-15 at 1.5+9.5i, where the terms cancel
    to a tenth of their size and the two sums' orders differ by that much
    (twenty random points at each of the bounds 2e4, 2e5 and 2e6).  Two real
    places (V a product of two quadratics, cut by the unit window) and the
    complex place (a disc of d for each c) keep the pair sum.

    Against the coprime sum in ascending order of V, added by math.fsum, the
    value differs by at most 4.7e-16 relative at s = 1.5, 2 and 1.3+0.5i and
    1.7e-15 at s = 1.5+9.5i (320 values: ten random points on each of
    Q, Q(sqrt d) for d = 5, -1, 2, 13, -3, -7 and 17 at bound 2e4), and by
    at most 1.1e-15 at bound 2e5 (128 values, four points per field): the
    terms of pairs that are not coprime cancel to the rounding of their
    phases.  Weighing every pair gave 6.0e-16, 2.0e-15 and 1.1e-15 on the
    same points.  Those figures come from samples; where the terms cancel,
    the error is larger.  The worst known case is 3.9e-15 relative against a
    200-bit sum over the same V: d = -7, the tests' `random_point` at seed
    712, B = e^3, s = 1.5+9.5i, where the terms of 16 coprime pairs, of
    absolute sum 2.38, cancel to a value of 0.136.

    Raises DomainError for an s that is not finite, for a bound that
    is not positive and finite, or so small that no pair lies in the outer
    window, for |Im s log(N(y) / V)| past 1e5 (see exp_real_times), and for
    any cusp but infinity, the only one it sums at.  Raises
    QuadratureBudgetExceeded, before it builds anything, when the lattice
    pairs it predicts (`_lattice_pairs`) pass `_PAIR_BUDGET` (a bound past
    about 2.3e8 on Q), or when its Moebius table would pass
    `fields._CANDIDATE_BUDGET` entries (N(y) below about B / 2^42).
    """
    if cusp.sigma != (0, 0):
        raise DomainError("the direct route sums at the infinity cusp only")
    s = _finite_s(params.s)
    if s.real <= 1.0:
        raise NotConvergent("direct series requires Re(s) > 1")
    B = params.norm_bound
    if B is None:
        B = default_norm_bound(field, s)
    elif not 0 < B < math.inf:
        raise DomainError("norm_bound must be positive and finite, got %r" % (B,))
    pairs = _lattice_pairs(field, B)
    if pairs > _PAIR_BUDGET:
        raise QuadratureBudgetExceeded(
            "about %.3g lattice pairs at bound %g pass the budget of %d"
            % (pairs, B, _PAIR_BUDGET))
    ny = z.ny(field)
    BV = B * ny
    p = s if s.imag else s.real  # real arithmetic at real s
    M1, W1, cut = _weight_tables(field, B, ny, p)
    log_ny = math.log(ny)
    unit = BV >= 1.0  # the (0, 1) orbit, V = 1
    # block sums, added by math.fsum so that the value does not depend on the
    # block size beyond each block's own rounding
    parts, count, inner = [unit * np.exp(p * log_ny)], int(unit), int(BV >= 2.0)
    # one workspace for every block, and at least a panel of the stretches;
    # each j is in range, so clipped gathers
    size = max(fields._PAIR_BLOCK, _EM_ORDER)
    work = np.empty((5, size))
    j, Mj = np.empty((2, size), dtype=np.intp)
    term = np.empty(size, dtype=W1.dtype)
    low = np.empty(size, dtype=bool)
    # the pairs' weights, in rows 2 and 3 of work, free once the terms are taken
    weights = work[2:4].reshape(-1)[:size * W1.itemsize // 8].view(W1.dtype)
    trimmed = None
    if field.n == 1:
        geometry = _pair_geometry(field, z, BV)
        du_ranges, em_count, em_inner, stretches = _weight_one_stretches(
            field, geometry, BV, cut, s, ny)
        count, inner = count + em_count, inner + em_inner
        parts.append(np.sum(_stretch_sums(stretches, p, ny, work, term, j)))
        trimmed = geometry, du_ranges
        del stretches
    for V, _ in _pair_blocks(field, z, BV, trimmed):
        n = V.size
        eb, tb, lo = work[4, :n], term[:n], low[:n]
        # (N(y) / V)^p
        np.subtract(log_ny, np.log(V, out=eb), out=eb)
        if s.imag:
            exp_real_times(p, eb, tb, work, j[:n])
        else:
            np.exp(np.multiply(eb, p, out=eb), out=tb)
        parts.append(np.sum(tb))
        count += n
        inner += int(np.count_nonzero(np.less_equal(V, BV / 2, out=lo)))
        # the pairs at or below the cut, whose weights at floor(sqrt(BV / V))
        # and floor(sqrt(BV / 2V)) need not be 1
        # (on Q every pair of most blocks, whose V are then taken whole)
        k = int(np.count_nonzero(np.less_equal(V, cut, out=lo)))
        if not k:
            continue
        rb, tk = (V, tb) if k == n else (V[lo], tb[lo])
        jb, Mb = j[:k], Mj[:k]
        np.divide(BV, rb, out=rb)
        np.copyto(jb, np.sqrt(rb, out=work[1, :k]), casting="unsafe")
        count += int(M1.take(jb, out=Mb, mode="clip").sum())
        # the block's terms are summed: their row takes the weights
        tk *= W1.take(jb, out=weights[:k], mode="clip")
        rb *= 0.5
        np.copyto(jb, np.sqrt(rb, out=rb), casting="unsafe")
        inner += int(M1.take(jb, out=Mb, mode="clip").sum())
        parts.append(np.sum(tk))
    parts = np.array(parts, dtype=complex)
    main = complex(math.fsum(parts.real), math.fsum(parts.imag))
    if count == inner:
        raise DomainError("no pair in the outer window [B/2, B] to fit the tail; "
                          "norm_bound %g is too small" % B)
    A = (count - inner) / (BV / 2)
    tail = A * ny ** s * BV ** (1 - s) / (s - 1)
    if return_parts:
        return main + tail, main, tail, count
    return main + tail


def default_norm_bound(field: FieldData, s: complex) -> float:
    """Cutoff from the documented tail estimate c * B^{1/3 - sigma} <= _TARGET_TOL."""
    sigma = complex(s).real
    c_fluct = 2.0
    B = (c_fluct / _TARGET_TOL) ** (1.0 / (sigma - 1.0 / 3.0))
    lo = 2e5 if field.d == 0 else 5e4
    hi = 2e7 if field.d == 0 else 2e6
    return float(min(max(B, lo), hi))


# ---------------------------------------------------------------------------
# Fourier evaluation
# ---------------------------------------------------------------------------

def _bessel_order(s: complex, deg: int) -> complex:
    """Order of the MacDonald factor at a real (deg 1) or complex place."""
    return s - 0.5 if deg == 1 else 2 * s - 1


def _frequency_cut(field: FieldData, s: complex) -> float:
    """Largest total Bessel argument the Fourier sums keep at order s.

    K_{a+it}(y) stays at its size exp(-pi |t| / 2) over the whole range
    y < |t| before it decays, so each place adds the |Im| of its order.
    """
    return _BESSEL_DECAY_CUT + sum(abs(_bessel_order(complex(s), deg).imag)
                                   for deg in field.place_degrees)


def _frequency_box(field: FieldData, ys, cut: float):
    """Integer coords of nu in o - {0} with sum_i a_i |nu^(i)| <= cut, where
    a_i = 2 pi deg_i y_i / |dg^(i)|, one nu of each pair +-nu (its first
    nonzero coordinate positive): one ball of radii cut / a_i.

    Raises QuadratureBudgetExceeded, before it builds anything, when the
    ball's predicted size (`fields._ball_size`) passes the budget: at y
    below about 6.8e-6 on Q at real s.  The largest box that the
    tests, scripts/run_checks.py and the four benchmark workloads build is
    predicted at 1.7e4 candidates."""
    a = [2 * math.pi * deg * y / abs(g) for y, g, deg
         in zip(ys, field.different_places, field.place_degrees)]
    radii = [cut / ai if ai else math.inf for ai in a]  # a_i underflows to 0 at subnormal y
    _ball_size(field, radii, "the frequency box at heights %s" % ", ".join("%g" % y for y in ys))
    _, u, v = _ball_points(field, [np.zeros(1)] * field.r, [np.full(1, R) for R in radii])
    weight = sum(ai * np.abs(e) for ai, e in zip(a, _embed_coords(field, u, v)))
    keep = (weight <= cut) & (np.where(u != 0, u, v) > 0)
    return np.stack([u[keep], v[keep]], axis=1)


@dataclass
class FrequencyTable:
    """The frequencies l = nu / dg, nu in o - {0}, that the Fourier sums
    keep at order s, one per pair +-l: ring coordinates of nu in lexicographic
    order, l and |l| at each place (l real at degree-1 places), the argument
    factors 2 pi deg (the Bessel argument at place i is factors[i] y_i |l_i|,
    and terms whose total argument passes `cut` are dropped), the integer
    traces Tr(l alpha_k) over the integral basis, and taus = tau_{1-2s}(l)."""

    cut: float
    coords: np.ndarray
    l_val: list
    l_abs: list
    factors: list
    traces: np.ndarray
    taus: np.ndarray


def frequency_table(field: FieldData, s: complex, ys) -> FrequencyTable:
    """The frequency box of `_frequency_box` at the heights ys and the cut of order s."""
    s = complex(s)
    cut = _frequency_cut(field, s)
    coords = _frequency_box(field, ys, cut)
    coords = coords[np.lexsort((coords[:, 1], coords[:, 0]))]
    l_val = []
    for o, g, deg in zip(field.omega_places, field.different_places, field.place_degrees):
        l = (coords[:, 0] + coords[:, 1] * o) / g
        l_val.append(l if deg == 2 else l.real)
    basis = [(1 + 0j,) * field.r, field.omega_places][:field.n]  # 1 and omega at each place
    traces = np.rint([sum(deg * (l * a).real for l, a, deg
                          in zip(l_val, alpha, field.place_degrees)) for alpha in basis]).T
    return FrequencyTable(cut, coords, l_val, [np.abs(l) for l in l_val],
                          [2 * math.pi * deg for deg in field.place_degrees], traces,
                          tau_divisor_sums(field, coords, 1 - 2 * s))


def tau_divisor_sums(field: FieldData, coords: np.ndarray, w: complex) -> np.ndarray:
    """tau_w(l) = N(nu)^(-w/2) sum over the ideal divisors a of (nu) of
    N(a)^w, for l = nu / dg (h = 1), one value per row of ring coordinates
    of nu.  DomainError, before any divisor is listed, where N(a)^w can
    leave the double range: |Re w| log N(a) >= log of the largest double,
    N(a) up to the largest N(nu)."""
    coords = np.asarray(coords, dtype=np.int64)
    if not coords.any(axis=1).all():
        raise ZeroFrequency("tau of zero frequency")
    top = int(np.abs(_coord_norm(field, coords[:, 0], coords[:, 1])).max(initial=1))
    if abs(complex(w).real) * math.log(top) >= _LOG_MAX:
        raise DomainError("N(a)^w at w = %r and N(a) up to %d is outside the double range"
                          % (w, top))
    norms = [sorted(ideal_divisor_norms(field, u, v)) for u, v in coords.tolist()]
    sizes = np.array([len(m) for m in norms], dtype=np.int64)
    flat = np.array([m for row in norms for m in row], dtype=float)
    ends = np.cumsum(sizes)
    sums = np.add.reduceat(flat.astype(complex) ** w, ends - sizes)
    return flat[ends - 1] ** (-w / 2) * sums


def _fourier_terms(field: FieldData, ctx: ZetaContext, z: Point, s: complex):
    """The non-constant Fourier terms of E(z, s) at the infinity cusp,

        pref sum_{+-l} tau_{1-2s}(l) prod_i K_i cos(2 pi Tr(l x)),
        pref = 2^(r+1) sqrt(N(y)) / xi_K(2s),

    over the frequency table (one l per pair +-l) at the heights of z, with
    K_i the MacDonald factor of place i by `bessel_k_grid`.  Returns the sum
    and, for its error, |pref| sum |tau K| and |pref| sum |tau K cos|."""
    xs, ys = zip(*z.coords)
    table = frequency_table(field, s, ys)
    if table.taus.size == 0:
        return 0j, 0.0, 0.0
    K, phase = np.ones(table.taus.size, dtype=complex), 0.0
    for i, deg in enumerate(field.place_degrees):
        K = K * bessel_k_grid(_bessel_order(s, deg), table.factors[i] * ys[i] * table.l_abs[i])
        phase = phase + deg * (table.l_val[i] * xs[i]).real
    tau_k = table.taus * K
    terms = tau_k * np.cos(2 * math.pi * phase)
    pref = 2 ** (field.r + 1) * math.sqrt(z.ny(field)) / completed_zeta(ctx, 2 * s)
    return (pref * complex(np.sum(terms)), abs(pref) * float(np.abs(tau_k).sum()),
            abs(pref) * float(np.abs(terms).sum()))


def eisenstein_fourier(field: FieldData, z: Point, s: complex,
                       ctx: ZetaContext | None = None) -> complex:
    """Fourier-expansion value at the infinity cusp (h = 1), valid wherever
    the scattering quotient is regular, including 1/2 < Re(s) <= 1, summing
    every pair +-l of the frequency table.

    Accuracy: within 1e-6 relative, or DomainError.  The error is bounded
    by r 1e-12 |pref| sum |tau K| (the Bessel factors' tolerance, 1e-12 at
    each of the r places) plus 2^-52 (|q^s| + |phi q^(1-s)|
    + |pref| sum |tau K cos|), in the notation of `_fourier_terms`; where
    the terms cancel so that this passes 1e-6 of the value, DomainError.
    That happens at low heights and large s: on Q at z = 0.1 + 0.01i and
    s = 10 the zero mode is 5.8e17 against a value of 1.9 (the direct
    route), and the bound 9.9e7.  The bound is conservative: at that point
    and s = 4 it is 4.7e-5 of the value, where the error against the
    direct route is 3.1e-9.  Over the 628 calls of the tests,
    scripts/run_checks.py and the benchmark workloads (seeds 11-20) it is
    at most 6.2e-11 of the value.

    DomainError also for an s that is not finite, where q^s or q^(1-s),
    q = N(y), leaves the double range, or where the divisor sums would
    (`tau_divisor_sums`); QuadratureBudgetExceeded where the frequency box
    would pass its budget (`_frequency_box`).  `hilmod eval` prints the
    bound as the value's est_error."""
    return _fourier_value(field, z, s, ctx)[0]


def _fourier_value(field: FieldData, z: Point, s: complex, ctx: ZetaContext | None):
    """The value of `eisenstein_fourier` and its error bound."""
    s = _finite_s(s)
    ctx = ctx or make_context(field)
    q = z.ny(field)
    log_q = math.log(q)
    if max(s.real * log_q, (1 - s.real) * log_q) >= _LOG_MAX:
        raise DomainError("q^s or q^(1-s) at q = N(y) = %g and s = %r is outside the double range"
                          % (q, s))
    q_s, phi_q = q ** s, phi(ctx, s) * q ** (1 - s)
    terms, size, size_cos = _fourier_terms(field, ctx, z, s)
    value = q_s + phi_q + terms
    bound = field.r * _BESSEL_RTOL * size + 2.0 ** -52 * (abs(q_s) + abs(phi_q) + size_cos)
    if bound > 1e-6 * abs(value):
        raise DomainError("the Fourier terms cancel at z = %s, s = %r: error bound %.3g "
                          "against a value of %.3g" % (z.coords, s, bound, abs(value)))
    return value, bound


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def maass_selberg_closed_form(field: FieldData, s: complex, sp: complex,
                              T: float, ctx: ZetaContext | None = None) -> complex:
    """C[(T^{s+s'-1} - phi(s)phi(s')T^{1-s-s'})/(s+s'-1)]
       + C[(T^{s-s'}phi(s') - T^{s'-s}phi(s))/(s-s')],
       with C = 2^{r1-r2} sqrt(D) R h / omega.  DomainError unless 1 <= T < inf."""
    if not 1.0 <= T < math.inf:
        raise DomainError("need 1 <= T < inf, got T = %r" % (T,))
    s, sp = complex(s), complex(sp)
    if s == sp or s + sp == 1:
        raise DegenerateParameters("requires s != s' and s + s' != 1")
    ctx = ctx or make_context(field)
    C = maass_selberg_constant(field)
    ps, psp = phi(ctx, s), phi(ctx, sp)
    first = (T ** (s + sp - 1) - ps * psp * T ** (1 - s - sp)) / (s + sp - 1)
    second = (T ** (s - sp) * psp - T ** (sp - s) * ps) / (s - sp)
    return C * (first + second)


def maass_selberg_constant(field: FieldData) -> float:
    return 2.0 ** (field.r1 - field.r2) * math.sqrt(field.D) * field.regulator \
        * field.h / field.omega


def orbifold_volume(field: FieldData, ctx: ZetaContext | None = None) -> float:
    """vol(M) = 2^{-3 r2 + 1} pi^{-n} D^{3/2} zeta_K(2)."""
    ctx = ctx or make_context(field)
    zk2 = dedekind_zeta(ctx, 2.0).real
    return 2.0 ** (-3 * field.r2 + 1) * math.pi ** (-field.n) * field.D ** 1.5 * zk2


def residue_at_one(field: FieldData, ctx: ZetaContext | None = None) -> float:
    """Residue of E(z, s) at s = 1: 2^{r1-1} h R / (omega zeta*_K(2)),
    equivalently 2^{n-1} h R / (omega pi^{-n} D zeta_K(2)).

    This equals the residue of the scattering quotient and satisfies
    residue * vol(M) = 2^{r1-r2} sqrt(D) R h / omega, consistent with the
    Rankin-Selberg and Maass-Selberg normalisations.
    """
    ctx = ctx or make_context(field)
    return residue_phi(ctx)
