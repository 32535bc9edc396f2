"""Test-side reference routes.

The box quadrature of the horoball route: psi(q / V) integrated over each
other cusp's shadow in the X box of the cross section, by a composite
Gauss-Legendre rule.  The library sums the same shadows in closed form over
the cusp classes (`equidist.cusp_section_average(method="horoball")`), with
the place density `geometry._PLACE_WEIGHTS`; this rule never reads that
density, so it checks that the density describes the X box.  At nodes = 20 it
is within 4.9e-4 of the class sum on nine fields, two bumps and 40 q in
[0.004, 0.3].
"""

import math

import numpy as np

from hilmod.domains import _half_widths, _reach, _y_rows, slice_candidates
from hilmod.eisenstein import _embed_coords, _ragged_values
from hilmod.fields import FieldData
from hilmod.geometry import _geom_cache, slice_embeddings
from hilmod.quadrature import gl_panel_nodes


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
