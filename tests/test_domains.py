import math
import random

import numpy as np
import pytest

from hilmod import domains as D
from hilmod import eisenstein as E
from hilmod import fields as F
from hilmod import geometry as G
from hilmod import zeta as Z
from hilmod.errors import QuadratureBudgetExceeded
from hilmod.quadrature import gl_panel_nodes
from conftest import random_point


def test_grid_matches_scalar(field_q, ctx_q):
    pts = [(0.28, 1.3), (-0.41, 0.92), (0.05, 2.6)]
    X = np.array([p[0] for p in pts])
    Y = np.array([p[1] for p in pts])
    for s in (1.5, 1.25, 1.3 + 0.5j):
        grid = D.eisenstein_fourier_grid(field_q, s, [X], [Y], ctx_q)
        for j, (x, y) in enumerate(pts):
            scal = E.eisenstein_fourier(field_q, G.make_point(field_q, (x, y)), s, ctx=ctx_q)
            assert abs(grid[j] - scal) <= 1e-8 * abs(scal)


def test_grid_matches_scalar_quadratic(field_q5, ctx_q5):
    X = [np.array([0.21, -0.1]), np.array([-0.37, 0.3])]
    Y = [np.array([1.05, 0.9]), np.array([0.93, 1.2])]
    s = 1.5
    grid = D.eisenstein_fourier_grid(field_q5, s, X, Y, ctx_q5)
    for j in range(2):
        z = G.make_point(field_q5, (X[0][j], Y[0][j]), (X[1][j], Y[1][j]))
        scal = E.eisenstein_fourier(field_q5, z, s, ctx=ctx_q5)
        assert abs(grid[j] - scal) <= 1e-7 * abs(scal)


def test_grid_matches_scalar_high_t(field_q, ctx_q):
    # the grid keeps the frequencies the scalar route keeps; its Bessel
    # table interpolates linearly, hence the looser tolerance
    X, Y = np.array([0.28, -0.1]), np.array([1.3, 2.0])
    s = 1.5 + 35j
    grid = D.eisenstein_fourier_grid(field_q, s, [X], [Y], ctx_q)
    for j in range(2):
        scal = E.eisenstein_fourier(field_q, G.make_point(field_q, (X[j], Y[j])), s, ctx=ctx_q)
        assert abs(grid[j] - scal) <= 1e-4 * abs(scal)


@pytest.mark.parametrize("d", [0, 5, -1])
def test_grid_accuracy_real_order(d):
    # the docstring's real-order figure: at most 2.2e-9 over reduced points
    # (worst on this very set, Q(sqrt 5) at s = 2); pinned with a 2x margin
    field = F.make_field(d)
    ctx = Z.make_context(field)
    inf = G.cusp_infinity(field)
    rng = random.Random(7 + d)
    pts = [G.reduce_mod_stabilizer(inf, random_point(field, rng, 0.85, 1.7), field)[0]
           for _ in range(12)]
    xs = [np.array([p.coords[i][0] for p in pts]) for i in range(field.r)]
    ys = [np.array([p.coords[i][1] for p in pts]) for i in range(field.r)]
    for s in (1.5, 2.0, 1.3 + 0.5j):
        grid = D.eisenstein_fourier_grid(field, s, xs, ys, ctx)
        scal = np.array([E.eisenstein_fourier(field, p, s, ctx=ctx) for p in pts])
        assert np.max(np.abs(grid - scal) / np.abs(scal)) <= 5e-9


@pytest.mark.parametrize("d", [0, 5, -1])
@pytest.mark.parametrize("s", [2.0, 1.5 + 5j])
def test_box_average_matches_pointwise_grid(d, s):
    field = F.make_field(d)
    ctx = Z.make_context(field)
    nodes, weights = gl_panel_nodes(-0.5, 0.5, 1, 4)
    qs = np.array([0.7, 1.9])
    got = D.eisenstein_box_average(field, s, qs, nodes, weights, ctx)
    # the same tensor rule, point by point
    dims = field.n + field.r - 1
    X_all = np.stack([g.ravel() for g in np.meshgrid(*[nodes] * dims, indexing="ij")], axis=1)
    w = np.prod(np.stack([g.ravel() for g in np.meshgrid(*[weights] * dims, indexing="ij")]),
                axis=0)
    X, Y = X_all[:, :field.n], (X_all[:, field.n:] if field.r > 1 else None)
    xs, ys = [[] for _ in range(field.r)], [[] for _ in range(field.r)]
    for q in qs:
        xq, yq = G.slice_embeddings(field, q, X, Y)
        for i in range(field.r):
            xs[i].append(xq[i])
            ys[i].append(yq[i])
    vals = D.eisenstein_fourier_grid(field, s, [np.concatenate(v) for v in xs],
                                     [np.concatenate(v) for v in ys], ctx)
    expect = vals.reshape(qs.size, -1) @ w
    assert np.all(np.abs(got - expect) <= 1e-12 * np.abs(expect))


@pytest.mark.parametrize("d", [0, 5, -1])
def test_grid_and_box_across_block_boundaries(d, monkeypatch):
    # blocks of 13 and 97 Bessel values hold 1 to 48 frequencies, where the
    # unpatched block holds all of them
    field = F.make_field(d)
    ctx = Z.make_context(field)
    rng = random.Random(d)
    pts = [random_point(field, rng, y_lo=0.9, y_hi=1.7) for _ in range(12)]
    xs = [np.array([p.coords[i][0] for p in pts]) for i in range(field.r)]
    ys = [np.array([p.coords[i][1] for p in pts]) for i in range(field.r)]
    nodes, weights = gl_panel_nodes(-0.5, 0.5, 1, 4)
    qs = np.array([0.7, 1.9])

    def values():
        return np.concatenate([D.eisenstein_fourier_grid(field, 1.5, xs, ys, ctx),
                               D.eisenstein_box_average(field, 2.0, qs, nodes, weights, ctx)])
    whole = values()
    for block in (13, 97):
        monkeypatch.setattr(D, "_BOX_BLOCK", block)
        assert np.all(np.abs(values() - whole) <= 1e-14 * np.abs(whole)), block


def test_modular_domain_volume():
    assert abs(D.modular_domain_volume_numeric() - math.pi / 3) < 1e-9


def test_maass_selberg_numeric_quick(field_q, ctx_q):
    num = D.maass_selberg_numeric(field_q, 1.5, 1.25, 3.0, rtol=1e-3, ctx=ctx_q)
    closed = E.maass_selberg_closed_form(field_q, 1.5, 1.25, 3.0, ctx_q)
    assert abs(num - closed) <= 1e-3 * abs(closed)


def test_shadow_fraction_vanishes_above_threshold(field_q):
    # for Q no other horoball of height T reaches above q = 1/T
    assert D.shadow_fraction(field_q, 0.5, 3.0) == 0.0
    assert D.shadow_fraction(field_q, 0.2, 3.0) > 0.0


def test_shadow_fraction_limit_rational(field_q):
    # V_T(q) -> 3/(pi T) as q -> 0: coprime density (6/pi^2) times the
    # circular-width integral (pi/4) times 2/sqrt(T y) shadow scaling;
    # equals the Eisenstein residue over T.
    T = 3.0
    got = D.shadow_fraction(field_q, 1e-4, T, n_per_dim=64)
    expect = 3 / (math.pi * T)
    assert abs(got - expect) <= 0.01 * expect


@pytest.mark.parametrize("d", [0, -1, 5])
def test_remark_identity(d):
    field = F.make_field(d)
    ctx = Z.make_context(field)
    lhs, rhs = D.remark_identity_check(field, 2.0, 3.0, ctx)
    assert abs(lhs - rhs) <= 1e-3 * abs(rhs)


def test_slice_candidates_dedupe_unique_cusps(field_q5):
    cands = D.slice_candidates(field_q5, 0.05, 2.0)
    vals = set()
    for c1, c2, d1, d2 in cands.coords:
        c = field_q5.from_ring_coords(int(c1), int(c2))
        dd = field_q5.from_ring_coords(int(d1), int(d2))
        v = (-dd) / c
        assert (v.a, v.b) not in vals
        vals.add((v.a, v.b))


def test_maass_selberg_strip_computed_once(field_q, ctx_q, monkeypatch):
    # the strip above T does not depend on the panel count: two grid calls
    # (one per order) however many panel doublings the integral takes
    calls = []
    grid = D.eisenstein_fourier_grid

    def counted(*args, zero_mode=True, **kwargs):
        calls.append(zero_mode)
        return grid(*args, zero_mode=zero_mode, **kwargs)
    monkeypatch.setattr(D, "eisenstein_fourier_grid", counted)
    D.maass_selberg_numeric(field_q, 1.5, 1.25, 3.0, ctx=ctx_q)
    assert calls.count(True) >= 4
    assert calls.count(False) == 2


def test_maass_selberg_numeric_raises_at_panel_cap(field_q, ctx_q, monkeypatch):
    # 12 and 24 panels agree to about 6e-14, never to 1e-15
    monkeypatch.setattr(D, "_MS_MAX_PANELS", 24)
    with pytest.raises(QuadratureBudgetExceeded):
        D.maass_selberg_numeric(field_q, 1.5, 1.25, 3.0, rtol=1e-15, ctx=ctx_q)


def _full_grid_shadowed(field, q, T, X, Y, cands):
    """Reference scan: the largest other-cusp height q / V at every grid
    point over every candidate pair, compared with T."""
    xs, ys = G.slice_embeddings(field, q, X, Y)
    n_pts = X.shape[0]
    best_V = np.full(n_pts, np.inf)
    coords = cands.coords
    if coords.shape[0] == 0:
        return np.zeros(n_pts, dtype=bool)
    oe = E._omega_embeds(field) if field.d != 0 else None
    if field.d == 0:
        for c1, c2, d1, d2 in coords:
            V = (c1 * xs[0] + d1) ** 2 + (c1 * ys[0]) ** 2
            np.minimum(best_V, V, out=best_V)
    elif field.d > 0:
        ce1 = coords[:, 0] + coords[:, 1] * oe[0].real
        ce2 = coords[:, 0] + coords[:, 1] * oe[1].real
        de1 = coords[:, 2] + coords[:, 3] * oe[0].real
        de2 = coords[:, 2] + coords[:, 3] * oe[1].real
        for k in range(coords.shape[0]):
            V = ((ce1[k] * xs[0] + de1[k]) ** 2 + (ce1[k] * ys[0]) ** 2) \
                * ((ce2[k] * xs[1] + de2[k]) ** 2 + (ce2[k] * ys[1]) ** 2)
            np.minimum(best_V, V, out=best_V)
    else:
        ce = coords[:, 0] + coords[:, 1] * np.complex128(oe[0])
        de = coords[:, 2] + coords[:, 3] * np.complex128(oe[0])
        for k in range(coords.shape[0]):
            V1 = np.abs(ce[k] * xs[0] + de[k]) ** 2 + (abs(ce[k]) * ys[0]) ** 2
            np.minimum(best_V, V1 * V1, out=best_V)
    return q / best_V > T


@pytest.mark.parametrize("d, n", [(0, 2048), (5, 16), (-1, 48)])
def test_shadow_mask_matches_full_grid_scan(d, n, monkeypatch):
    # The reference scans every candidate of the box bounds, as if no cusp
    # failed the reach test: thousands of pairs on the deepest slices.  The
    # nodes 0.991/(N^2 T) put the cusps of norm N = 1 and 4, which all three
    # fields have, just inside the reach bound, where a bound 1% too strict
    # loses their shadows.
    field = F.make_field(d)
    T, margin = 3.0, 2.0
    qs = list(np.geomspace(3.0, 4e-3, 9)) + [0.991 / (N * N * T) for N in (1, 4)]
    X, Y = D.box_grid(field, n)
    for q in qs:
        with monkeypatch.context() as m:
            m.setattr(D, "_reach", lambda field, c1, c2, q, floor: np.zeros(np.shape(c1)))
            cands = D.slice_candidates(field, q, T, margin)
        ref = _full_grid_shadowed(field, q, T, X, Y, cands)
        assert np.array_equal(D.shadow_mask(field, q, T, n, margin), ref), q
