"""Test-side reference routes.

The hand-written search for the integral elements of a given norm
(`elements_of_norm`) and exact division (`exact_divide`): the library finds
ideal generators in the ball enumerator (`fields.ideal_gcd_generator`), and
these serve as the oracle for it and for the totient and valuation tests.

The box quadrature of the horoball route: psi(q / V) integrated over each
other cusp's shadow in the X box of the cross section, by a composite
Gauss-Legendre rule.  The library sums the same shadows in closed form over
the cusp classes (`equidist.cusp_section_average(method="horoball")`), with
the place density `geometry._PLACE_WEIGHTS`; this rule never reads that
density, so it checks that the density describes the X box.  At nodes = 20 it
is within 4.9e-4 of the class sum on nine fields, two bumps and 40 q in
[0.004, 0.3].

The ideal Dirichlet series of zeta_K with a partial-summation tail
(`dedekind_zeta_series`): the library continues zeta_K as zeta times
L(chi_D) through the Hurwitz zeta (`zeta.dedekind_zeta`), and this series is
its independent check on Re(s) > 1.
"""

import math

import numpy as np

from hilmod.domains import _half_widths, _reach, _y_rows, slice_candidates
from hilmod.errors import PoleAtOne
from hilmod.fields import FieldData, FieldElement, _embed_coords, _ragged_values, embed, fe_zero
from hilmod.geometry import _geom_cache, slice_embeddings
from hilmod.quadrature import gl_panel_nodes
from hilmod.zeta import ZetaContext, dirichlet_l, riemann_zeta


def _shadow_boxes(field: FieldData, coords: np.ndarray, q: float, floor: float, ymax):
    """Per candidate (rows of `slice_candidates(field, q, floor)`): the
    embeddings ce, de of c and d, rho = 1 / reach, and the edges of its X
    sub-box O^-1 ctr -+ |O^-1| half within the box, where ctr stacks the real
    components of -d_i / c_i and half the `_half_widths` at heights ymax."""
    rho = 1.0 / _reach(field, coords[:, 0], coords[:, 1], q, floor)
    ce = _embed_coords(field, coords[:, 0], coords[:, 1])
    de = _embed_coords(field, coords[:, 2], coords[:, 3])
    ctr, half = [], []
    for c, d, h, deg in zip(ce, de, _half_widths(field, rho, ymax), field.place_degrees):
        x = -d / c
        ctr += [x.real, x.imag] if deg == 2 else [x]
        half += [h] * deg
    O_inv = _geom_cache(field.d)[1]
    Xc, Xh = O_inv @ np.array(ctr), np.abs(O_inv) @ np.array(half) + 1e-9
    return ce, de, rho, np.maximum(Xc - Xh, -0.5), np.minimum(Xc + Xh, 0.5)


def _shadow_V(field: FieldData, ce, de, xs, ys):
    """V(c, d; z) = prod_i (|c_i x_i + d_i|^2 + |c_i|^2 y_i^2)^deg_i, by which the
    cusp -d/c has height q / V at z on the slice at height q (arrays broadcast)."""
    return math.prod((np.abs(c * x + d) ** 2 + (np.abs(c) * y) ** 2) ** deg
                     for c, d, x, y, deg in zip(ce, de, xs, ys, field.place_degrees))


def _passing(field: FieldData, ce, de, rows, xs, ys, q: float, floor: float):
    """Slices (k, q / V on every row of the heights ys) of at most rows.size
    values, of the pairs (candidate rows[k], X point k of xs) with q / V >
    floor at each place's lowest height in ys.  V grows with each y_i, in
    floats too (each step rounds monotonically): the rest stay <= floor."""
    top = q / _shadow_V(field, (c[rows] for c in ce), (d[rows] for d in de), xs,
                        [y.min() for y in ys])  # the largest q / V over the rows
    live, step = np.flatnonzero(top > floor), max(1, rows.size // ys[0].size)
    for k in (live[j:j + step] for j in range(0, live.size, step)):
        yield k, (top[k, None] if ys[0].size == 1 else q / _shadow_V(
            field, [c[rows[k], None] for c in ce], [d[rows[k], None] for d in de],
            [x[k, None] for x in xs], ys))


def shadow_integral(field: FieldData, q: float, floor: float, profile, nodes: int) -> float:
    """Sum over the cusps -d/c of `slice_candidates(field, q, floor)` of the
    integral of profile(q / V) over their X sub-boxes (`_shadow_boxes`) on the
    slice at height q, for a profile that vanishes below `floor`:
    min(3 + 2 rho^(1/(2n)), 20) panels of `nodes` nodes per X axis with
    rho = 1 / (N(c)^2 q floor), 2 panels of max(nodes // 2, 6) on Y.  Blocks
    of (candidate, X point) pairs (`_ragged_values`) take their Y rows in
    slices of as many values where the cusp passes `floor` at the lowest
    heights (`_passing`: V grows with each y_i); elsewhere profile(q / V) is
    0 on every row, and the term is exactly 0.0.  A candidate that straddles
    blocks is summed in parts, so the candidates are taken in lexicographic
    order and their totals added by math.fsum: the value does not depend on
    the enumeration order."""
    coords = slice_candidates(field, q, floor)
    coords = coords[np.lexsort(coords.T[::-1])]
    ys, wy = _y_rows(field, q, *gl_panel_nodes(-0.5, 0.5, 2, max(nodes // 2, 6)))
    ce, de, rho, lo, hi = _shadow_boxes(field, coords, q, floor, [y.max() for y in ys])
    panels = np.minimum(3 + 2 * rho ** (0.5 / field.n), 20).astype(np.int64)
    width = (hi - lo) / panels
    m = panels * nodes  # nodes per X axis; X point (iX_0, iX_1) has index iX_0 * m + iX_1
    gx, gw = gl_panel_nodes(0.0, 1.0, 1, nodes)
    totals = np.zeros(rho.size)
    for rows, pos in _ragged_values(np.zeros(rho.size, dtype=np.int64),
                                    np.where(np.all(hi > lo, axis=0), m ** field.n, 0) - 1):
        X, w = np.empty((rows.size, field.n)), np.ones(rows.size)
        for a in range(field.n - 1, -1, -1):
            pos, iX = np.divmod(pos, m[rows])
            panel, g = np.divmod(iX, nodes)
            X[:, a] = lo[a, rows] + width[a, rows] * (panel + gx[g])
            w *= width[a, rows] * gw[g]
        xs = slice_embeddings(field, q, X, None)[0]
        del X  # not needed past xs: frees its memory before the Y rows
        part = np.zeros(rows.size)  # 0.0 where q / V <= floor on every Y row
        for k, t in _passing(field, ce, de, rows, xs, ys, q, floor):
            part[k] = w[k] * (profile(t) @ wy)
        totals += np.bincount(rows, part, minlength=rho.size)
    return math.fsum(totals)


def box_section_average(f, q: float, field: FieldData, nodes: int = 20) -> float:
    """m_q(f) by the box quadrature: psi(q) plus `shadow_integral` at floor
    0.999 t0, as the horoball route computed it before the class sum."""
    return float(f.profile(q)) + shadow_integral(field, q, f.t0 * 0.999, f.profile, nodes)


def elements_of_norm(field: FieldData, n: int) -> list[FieldElement]:
    """Integral elements with |N| = n, up to none of the unit action (raw list).

    Searches a balanced box in embedding space; complete because any element
    of norm n has a unit multiple with both embeddings below sqrt(n)*unit
    (real case) or lies in the obvious disc (imaginary case).
    """
    if n == 0:
        return [fe_zero(field.d)]
    d = field.d
    out = []
    if d == 0:
        return [field.element(n), field.element(-n)]
    if d < 0:
        s = math.sqrt(-d)
        # |u + v*omega|^2 = n
        om = field.ring_gen
        om1 = complex(float(om.a), float(om.b) * s)
        vmax = int(math.sqrt(n) / abs(om1.imag)) + 1
        for v in range(-vmax, vmax + 1):
            ur = math.sqrt(max(n - (v * om1.imag) ** 2, 0.0))
            lo = int(math.floor(-ur - v * om1.real - 1))
            hi = int(math.ceil(ur - v * om1.real + 1))
            for u in range(lo, hi + 1):
                el = field.from_ring_coords(u, v)
                if abs(el.norm()) == n:
                    out.append(el)
        return out
    # real quadratic: balanced box |x^(i)| <= sqrt(n)*eps1
    eps1 = math.exp(field.regulator)
    bound = math.sqrt(n) * eps1 + 1e-9
    om = field.ring_gen
    o1, o2 = embed(om, field)
    vmax = int((2 * bound) / abs(o1 - o2)) + 2
    for v in range(-vmax, vmax + 1):
        lo = int(math.floor(max(-bound - v * o1, -bound - v * o2) - 1))
        hi = int(math.ceil(min(bound - v * o1, bound - v * o2) + 1))
        for u in range(lo, hi + 1):
            el = field.from_ring_coords(u, v)
            if abs(el.norm()) == n:
                e1, e2 = embed(el, field)
                if abs(e1) <= bound and abs(e2) <= bound:
                    out.append(el)
    return out


def exact_divide(x: FieldElement, g: FieldElement, field: FieldData) -> FieldElement | None:
    """x / g when the quotient is integral, else None."""
    if g.is_zero():
        return None
    q = x / g
    return q if q.is_integral() else None


def dedekind_zeta_series(ctx: ZetaContext, s: complex, N: int = 200_000,
                         corrected: bool = True) -> complex:
    """Ideal Dirichlet series sum a_n n^{-s} for Re(s) > 1.

    With corrected=True the tail beyond N is replaced by partial summation
    against the smoothed ideal count A(x) ~ rho x + c0 (rho the residue of
    zeta_K at 1, c0 = zeta_K(0)):

        tail = rho N^{1-s}/(s-1) - (A(N) - rho N - c0) N^{-s},

    and the cutoff endpoint is averaged over a short window to damp the
    fluctuation of A.  The residual error is O(|s| N^{1/3 - sigma}), well
    under 1e-8 on Re(s) >= 1.5 at the default cutoff.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise PoleAtOne("series route requires Re(s) > 1")
    a = np.asarray(ctx.ideal_coeffs(N), dtype=float)
    ns = np.arange(1, N + 1, dtype=float)
    if not corrected:
        return complex(np.sum(a * ns ** (-s)))
    f = ctx.field
    if f.d == 0:
        rho = 1.0
        c0 = -0.5
    else:
        # class number formula: residue of zeta_K at 1
        rho = (2.0 ** f.r1 * (2 * math.pi) ** f.r2 * f.h * f.regulator
               / (f.omega * math.sqrt(f.D)))
        c0 = (riemann_zeta(0.0) * dirichlet_l(0.0, f.disc_signed)).real
    window = 96
    N0 = N - window
    partial = complex(np.sum(a[:N0] * ns[:N0] ** (-s)))
    cum = np.cumsum(a)
    total = partial
    # average the corrected value over cutoffs N0 .. N-1
    acc = 0.0 + 0.0j
    for j in range(N0, N):
        Nj = float(j)
        tailj = rho * Nj ** (1 - s) / (s - 1) - (cum[j - 1] - rho * Nj - c0) * Nj ** (-s)
        extra = complex(np.sum(a[N0:j] * ns[N0:j] ** (-s))) if j > N0 else 0.0
        acc += extra + tailj
    return total + acc / window
