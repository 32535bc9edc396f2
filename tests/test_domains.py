import dataclasses
import itertools
import math
import random
import time
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from hilmod import domains as D
from hilmod import eisenstein as E
from hilmod import equidist
from hilmod import fields as F
from hilmod import geometry as G
from hilmod import zeta as Z
from hilmod.errors import DomainError, QuadratureBudgetExceeded
from hilmod.quadrature import gl_panel_nodes
from hilmod.specfun import bessel_k_grid
from conftest import random_point
from oracles import embed, pair_ideal_norm, quotient, reduce_mod_stabilizer


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
    # the grid keeps the frequencies the scalar route keeps, and its Bessel
    # table interpolates with 6 points on a grid sized from the order
    X, Y = np.array([0.28, -0.1]), np.array([1.3, 2.0])
    s = 1.5 + 35j
    grid = D.eisenstein_fourier_grid(field_q, s, [X], [Y], ctx_q)
    for j in range(2):
        scal = E.eisenstein_fourier(field_q, G.make_point(field_q, (X[j], Y[j])), s, ctx=ctx_q)
        assert abs(grid[j] - scal) <= 1e-9 * abs(scal)


def _reduced_points(field, count, seed):
    inf = G.cusp_infinity(field)
    rng = random.Random(seed)
    pts = [reduce_mod_stabilizer(inf, random_point(field, rng, 0.85, 1.7), field)[0]
           for _ in range(count)]
    xs = [np.array([p.coords[i][0] for p in pts]) for i in range(field.r)]
    ys = [np.array([p.coords[i][1] for p in pts]) for i in range(field.r)]
    return pts, xs, ys


@pytest.mark.parametrize("d", [0, 5, -1])
def test_grid_accuracy_real_order(d):
    # the docstring's real-order figure: at most 1.0e-13 over reduced points
    # (worst on this very set, Q(sqrt 5) at s = 2)
    field = F.make_field(d)
    ctx = Z.make_context(field)
    pts, xs, ys = _reduced_points(field, 12, 7 + d)
    for s in (1.5, 2.0, 1.3 + 0.5j):
        grid = D.eisenstein_fourier_grid(field, s, xs, ys, ctx)
        scal = np.array([E.eisenstein_fourier(field, p, s, ctx=ctx) for p in pts])
        assert np.max(np.abs(grid - scal) / np.abs(scal)) <= 1e-12


@pytest.mark.parametrize("d", [0, 5, -1])
@pytest.mark.parametrize("s, rtol", [(2.0, 1e-12), (1.3 + 0.5j, 1e-12), (1.5 + 10j, 1e-10),
                                     (1.5 + 20j, 1e-10), (1.5 + 35j, 1e-9), (1.5 + 50j, 1e-9)])
def test_grid_matches_scalar_sweep(d, s, rtol):
    # the grid's accuracy up to |Im s| = 50, where the Bessel orders reach
    # 1 + 50i (Q, Q(sqrt 5)) and 2 + 100i (Q(i)); measured worst 5.9e-12
    # (Q(sqrt 5) at s = 1.5 + 50i)
    field = F.make_field(d)
    ctx = Z.make_context(field)
    pts, xs, ys = _reduced_points(field, 3, 7 + d)
    grid = D.eisenstein_fourier_grid(field, s, xs, ys, ctx)
    scal = np.array([E.eisenstein_fourier(field, p, s, ctx=ctx) for p in pts])
    assert np.max(np.abs(grid - scal) / np.abs(scal)) <= rtol


@pytest.mark.parametrize("order", [1.5, 1 + 10j, 1 + 20j, 1 + 50j])
def test_bessel_table_matches_bessel_k_grid(order):
    # the table's error model, (|order| du)^6 / 200 = 4.7e-12, over the
    # arguments of a Fourier grid up to the cut 45 + |Im order|
    lo, hi = 1.0, 45 + abs(complex(order).imag)
    x = np.exp(np.random.default_rng(3).uniform(math.log(lo), math.log(hi), 4000))
    table = D._BesselTable(order, lo, hi)
    exact = bessel_k_grid(order, x)
    assert np.max(np.abs(table(x) - exact) / np.abs(exact)) <= 1e-11


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


def _dense_bessel(field, s, table, ys):
    """Reference for `_bessel_blocks`: the same table interpolated at every
    (row, frequency) entry, then set to zero where the total argument passes
    the cut."""
    lo = float(min(f * y.min() * l.min() for f, y, l in zip(table.factors, ys, table.l_abs)))
    hi = float(max(f * y.max() * l.max() for f, y, l in zip(table.factors, ys, table.l_abs)))
    interp = D._BesselTable(E._bessel_order(s, field.place_degrees[0]), lo,
                            max(min(hi, table.cut), 2 * lo))
    K = np.ones((ys[0].size, table.taus.size), dtype=complex)
    total_arg = np.zeros(K.shape)
    for f, y, l in zip(table.factors, ys, table.l_abs):
        arg = f * y[:, None] * l[None, :]
        total_arg += arg
        K *= interp(arg)
    K[total_arg > table.cut] = 0.0
    return K


@pytest.mark.parametrize("block", [None, 13])
@pytest.mark.parametrize("s", [1.5, 2.0, 1.5 + 5j])
@pytest.mark.parametrize("d", [0, 5, -1])
def test_bessel_blocks_equal_dense_reference(d, s, block, monkeypatch):
    # interpolating only the entries at or below the cut changes no bit
    if block is not None:
        monkeypatch.setattr(D, "_BOX_BLOCK", block)
    field = F.make_field(d)
    _, _, ys = _reduced_points(field, 12, 7 + d)
    table = E.frequency_table(field, s, [float(y.min()) for y in ys])
    dense = _dense_bessel(field, complex(s), table, ys)
    assert 0 < np.count_nonzero(dense) < dense.size
    got = np.full(dense.shape, np.nan, dtype=complex)
    for b, keep, K in D._bessel_blocks(field, complex(s), table, ys):
        assert np.array_equal(keep, np.flatnonzero(K))
        got[:, b] = K
    assert np.array_equal(got, dense)


def _both_signs(field, table, s):
    """`table` with each frequency's negative appended: the full box."""
    return dataclasses.replace(
        table, coords=np.concatenate([table.coords, -table.coords]),
        l_val=[np.concatenate([l, -l]) for l in table.l_val],
        l_abs=[np.concatenate([l, l]) for l in table.l_abs],
        traces=np.concatenate([table.traces, -table.traces]),
        taus=np.concatenate([table.taus, E.tau_divisor_sums(field, -table.coords, 1 - 2 * s)]))


def _fsum_rows(terms):
    """Each row of a complex array added up by math.fsum."""
    terms = np.atleast_2d(terms)
    return np.array([complex(math.fsum(r.real), math.fsum(r.imag)) for r in terms])


def _full_box(field, ys, cut):
    """Every nu != 0 of the frequency ball at heights ys, from `_ball_points`."""
    dg = [abs(g) for g in field.different_places]
    a = [2 * math.pi * deg * y / g for y, g, deg in zip(ys, dg, field.place_degrees)]
    _, u, v = F._ball_points(field, [np.zeros(1)] * field.r, [np.full(1, cut / ai) for ai in a])
    weight = sum(ai * np.abs(e) for ai, e in zip(a, F._embed_coords(field, u, v)))
    keep = (weight <= cut) & ((u != 0) | (v != 0))
    return set(zip(u[keep].tolist(), v[keep].tolist()))


@pytest.mark.parametrize("d", [0, 5, -1, 2, 13, -3, -7])
def test_frequency_pairs_cover_the_full_box(d):
    # the table holds one frequency of each pair +-l, and the evaluators'
    # cosine sums agree with the terms of both signs by exp, added by fsum
    field = F.make_field(d)
    ctx = Z.make_context(field)
    pts, xs, ys = _reduced_points(field, 4, 7 + d)
    nodes, weights = gl_panel_nodes(-0.5, 0.5, 1, 4)
    qs = np.array([0.7, 1.9])
    for s in (1.5, 2.0, 1.3 + 0.5j, 1.5 + 9.5j):
        s = complex(s)
        zs2 = Z.completed_zeta(ctx, 2 * s)
        ph = Z.phi(ctx, s)
        # scalar route, point by point
        for p in pts:
            pys = [y for _, y in p.coords]
            table = E.frequency_table(field, s, pys)
            half = set(map(tuple, table.coords.tolist()))
            assert len(half) == table.coords.shape[0] and (0, 0) not in half
            assert not half & {(-u, -v) for u, v in half}
            assert half | {(-u, -v) for u, v in half} == _full_box(field, pys, table.cut)
            full = _both_signs(field, table, s)
            K = np.ones(full.taus.size, dtype=complex)
            phase = 0.0
            for i, (x, y) in enumerate(p.coords):
                deg = field.place_degrees[i]
                K = K * bessel_k_grid(E._bessel_order(s, deg), full.factors[i] * y * full.l_abs[i])
                phase = phase + deg * (full.l_val[i] * x).real
            q = p.ny(field)
            ref = q ** s + ph * q ** (1 - s) + 2 ** field.r * math.sqrt(q) / zs2 \
                * _fsum_rows(full.taus * K * np.exp(2j * math.pi * phase))[0]
            got = E.eisenstein_fourier(field, p, s, ctx=ctx)
            assert abs(got - ref) <= 1e-15 * abs(ref)
            assert s.imag or got.imag == 0.0
        # grid over the same points, on the grid's own Bessel table
        q = np.prod([y ** deg for y, deg in zip(ys, field.place_degrees)], axis=0)
        full = _both_signs(field, E.frequency_table(field, s, [y.min() for y in ys]), s)
        phase = sum(deg * (l[None, :] * x[:, None]).real
                    for l, x, deg in zip(full.l_val, xs, field.place_degrees))
        tail = _fsum_rows(_dense_bessel(field, s, full, ys) * np.exp(2j * math.pi * phase)
                          * full.taus)
        ref = q ** s + ph * q ** (1 - s) + 2 ** field.r * np.sqrt(q) / zs2 * tail
        got = D.eisenstein_fourier_grid(field, s, xs, ys, ctx)
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))
        assert s.imag or np.all(got.imag == 0.0)
        # box averages, one phase sum per X axis
        rows = [D._y_rows(field, float(qv), nodes, weights) for qv in qs]
        wy = rows[0][1]
        bys = [np.concatenate(v) for v in zip(*(r for r, _ in rows))]
        full = _both_signs(field, E.frequency_table(field, s, [y.min() for y in bys]), s)
        Kq = np.einsum("qyl,y->ql", _dense_bessel(field, s, full, bys).reshape(
            qs.size, wy.size, -1), wy)
        coef = full.taus * np.prod([np.exp(2j * math.pi * full.traces[:, k, None] * nodes)
                                    @ weights for k in range(field.n)], axis=0)
        box_weight = weights.sum() ** field.n * wy.sum()
        ref = (qs ** s + ph * qs ** (1 - s)) * box_weight \
            + 2 ** field.r * np.sqrt(qs) / zs2 * _fsum_rows(Kq * coef)
        got = D.eisenstein_box_average(field, s, qs, nodes, weights, ctx)
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))
        assert s.imag or np.all(got.imag == 0.0)


@pytest.mark.parametrize("d", [0, 5, -1])
def test_bessel_table_sees_only_kept_entries(d, monkeypatch):
    # work, not time: the table interpolates r values per entry whose total
    # argument is at most the cut, on the grid and on the box; a dense
    # kernel would interpolate every entry
    field = F.make_field(d)
    ctx = Z.make_context(field)
    seen, entries = [], []
    table_call, blocks = D._BesselTable.__call__, D._bessel_blocks

    def counted(self, x):
        seen.append(x.size)
        return table_call(self, x)

    def captured(fd, s, table, ys):
        total_arg = sum(f * y[:, None] * l[None, :]
                        for f, y, l in zip(table.factors, ys, table.l_abs))
        entries.append((np.count_nonzero(total_arg <= table.cut), total_arg.size))
        return blocks(fd, s, table, ys)
    monkeypatch.setattr(D._BesselTable, "__call__", counted)
    monkeypatch.setattr(D, "_bessel_blocks", captured)
    _, xs, ys = _reduced_points(field, 12, 7 + d)
    nodes, weights = gl_panel_nodes(-0.5, 0.5, 1, 4)
    for call in (lambda: D.eisenstein_fourier_grid(field, 1.5, xs, ys, ctx),
                 lambda: D.eisenstein_box_average(field, 2.0, np.array([0.7, 1.9]), nodes,
                                                  weights, ctx)):
        seen.clear()
        entries.clear()
        call()
        assert len(entries) == 1 and 0 < entries[0][0] < entries[0][1]
        assert sum(seen) == field.r * entries[0][0]


# float.hex of values from the dense kernel, which interpolated every entry;
# at real s the imaginary parts are exactly 0, the +-l terms summed as cosines
_MS_PIN = ("0x1.3167d131cfc3cp+4", "0x0.0p+0")
_RS_Q5_PINS = (("0x1.b0ecf4d1945d4p+1", "0x0.0p+0"),
               ("0x1.b0ed6dcf7fb39p+1", "0x0.0p+0"))


def test_grid_and_box_results_pinned(field_q, ctx_q):
    def hexes(z):
        return (z.real.hex(), z.imag.hex())
    assert hexes(D.maass_selberg_numeric(field_q, 1.5, 1.25, 3.0, ctx=ctx_q)) == _MS_PIN
    field = F.make_field(5)
    f = equidist.make_test_function(field, 2.0, 4.0)
    sides = equidist.rankin_selberg_check(field, f, 2.0, Z.make_context(field))
    assert tuple(hexes(complex(v)) for v in sides) == _RS_Q5_PINS


def test_modular_domain_volume():
    assert abs(D.modular_domain_volume_numeric() - math.pi / 3) < 1e-9


def test_maass_selberg_numeric_quick(field_q, ctx_q):
    num = D.maass_selberg_numeric(field_q, 1.5, 1.25, 3.0, ctx=ctx_q)
    closed = E.maass_selberg_closed_form(field_q, 1.5, 1.25, 3.0, ctx_q)
    assert abs(num - closed) <= 1e-3 * abs(closed)


def test_shadow_fraction_vanishes_above_threshold(field_q):
    # for Q no other horoball of height T reaches above q = 1/T
    assert D.shadow_fraction(field_q, 0.5, 3.0) == 0.0
    assert D.shadow_fraction(field_q, 0.2, 3.0) > 0.0


def test_shadow_fraction_limit_rational(field_q):
    # V_T(q) -> 3/(pi T) as q -> 0: coprime density (6/pi^2) times the
    # circular-width integral (pi/4) times 2/sqrt(T y) shadow scaling;
    # equals the Eisenstein residue over T.  The exact V_T(1e-4) is
    # 6.7e-4 below it.
    T = 3.0
    got = D.shadow_fraction(field_q, 1e-4, T)
    expect = 3 / (math.pi * T)
    assert abs(got - expect) <= 1e-3 * expect


_IDENTITY_FIELDS = [0, -1, 5, 2, -3, 13]


@pytest.mark.parametrize("d", _IDENTITY_FIELDS)
def test_remark_identity(d):
    # the largest residual over these fields is 4.9e-9 (Q(i)), from the
    # constant extension of V_T below q_lo
    field = F.make_field(d)
    ctx = Z.make_context(field)
    lhs, rhs = D.remark_identity_check(field, 2.0, 3.0, ctx)
    assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


@pytest.mark.parametrize("d", _IDENTITY_FIELDS)
@pytest.mark.parametrize("sprime, T, tol", [(2.0, 1.0, 5e-5), (2.0, 1.5, 5e-6), (3.0, 3.0, 4e-12)])
def test_remark_identity_other_orders_and_heights(d, sprime, T, tol):
    # about 100 times the largest residual over the fields: 5.0e-7 at
    # T = 1, 4.6e-8 at T = 1.5, 3.8e-14 at s' = 3
    field = F.make_field(d)
    lhs, rhs = D.remark_identity_check(field, sprime, T, Z.make_context(field))
    assert abs(lhs - rhs) <= tol * abs(rhs)


def test_remark_identity_reads_shadows_not_totients(field_q5, monkeypatch):
    # the identity compares phi with the cusps' geometry: it takes V_T(q_lo)
    # through the module attribute (which a tracer may wrap), and never the
    # ideal totient sums, which would test phi against itself
    calls = []
    fraction = D.shadow_fraction

    def counted(*args):
        calls.append(args[1:])
        return fraction(*args)

    def forbidden(*args):
        raise AssertionError("ideal_totient_sums read")
    monkeypatch.setattr(D, "shadow_fraction", counted)
    for mod in (F, D, equidist):
        monkeypatch.setattr(mod, "ideal_totient_sums", forbidden, raising=False)
    D._cusp_classes.cache_clear()
    lhs, rhs = D.remark_identity_check(field_q5, 2.0, 3.0)
    assert calls == [(D._Q_LO / 3.0, 3.0)]
    assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


@pytest.mark.parametrize("q, T", [(-0.1, 3.0), (0.0, 3.0), (math.nan, 3.0), (math.inf, 3.0),
                                  (0.05, -1.0), (0.05, 0.5), (0.05, math.nan),
                                  (0.05, math.inf)])
def test_shadow_fraction_rejects_bad_heights(field_q, q, T):
    with pytest.raises(DomainError):
        D.shadow_fraction(field_q, q, T)


@pytest.mark.parametrize("sprime, T", [(1.0, 3.0), (0.5, 3.0), (math.nan, 3.0), (math.inf, 3.0),
                                       (2.0, 0.5), (2.0, math.nan), (2.0, math.inf)])
def test_remark_identity_rejects_bad_orders_and_heights(field_q, ctx_q, sprime, T):
    with pytest.raises(DomainError):
        D.remark_identity_check(field_q, sprime, T, ctx_q)


def test_shadow_area_closed_forms():
    # A(rho) = vol{a : prod_i (1 + |a_i|^2)^deg_i < rho}: 2 sqrt(rho - 1) on
    # Q, pi (sqrt rho - 1) at a complex place, and at two real places
    # int 2 sqrt(rho / (1 + a^2) - 1) da over |a| < sqrt(rho - 1)
    rho = np.concatenate([1 + np.geomspace(1e-12, 1.0, 7), np.geomspace(2.0, 1e8, 12)])
    area = {d: D._place_rule(F.make_field(d), np.sqrt(rho - 1))[1].sum(axis=1) for d in (0, -1, 5)}
    np.testing.assert_allclose(area[0], 2 * np.sqrt(rho - 1), rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(area[-1], math.pi * (rho - 1) / (np.sqrt(rho) + 1),
                               rtol=1e-14, atol=0.0)
    for k in np.flatnonzero(rho <= 4e6):  # the AGM of the density is exact to here
        with mp.workdps(30):
            r = mp.mpf(rho[k])
            want = mp.quad(lambda a: 4 * mp.sqrt(max(r / (1 + a * a) - 1, 0)), [0, mp.sqrt(r - 1)])
        assert abs(area[5][k] / float(want) - 1) <= 1e-13, rho[k]


@pytest.mark.parametrize("d", [5, 3, -1, -3])
def test_slice_candidates_dedupe_unique_cusps(d):
    # q < 1/(4T): on Q(sqrt 3) the cusps with c = 1 + sqrt 3 (norm -2) reach.
    # That c sits on the edge of the unit-balance window, |c_1/c_2| = eps_1
    # exactly; its partner 1 - sqrt 3 sits on the other edge, and exactly one
    # of the two must be kept.
    field = F.make_field(d)
    coords = D.slice_candidates(field, 0.05, 2.0)
    vals, norm2 = set(), set()
    for c1, c2, d1, d2 in coords.tolist():
        v = quotient((-d1, -d2), (c1, c2), field)  # -d / c
        assert v not in vals
        vals.add(v)
        if abs(F._coord_norm(field, c1, c2)) == 2:
            norm2.add((c1, c2))
    if d == 3:
        assert norm2 == {(1, -1)}


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
    # at s = 1.5, s' = 1.25 the log-y rule has converged to rounding by 6
    # panels: levels 3 and 6 agree to 1.5e-15, which no rtol tells apart.  At
    # s = 1.5 + 30i the levels 3, 6, 12 and 24 change by 1.3e-5, 2.9e-10 and
    # 9.4e-14: at a cap of 12 panels the last change is 2.9e-10, never 1e-13
    # (at a cap of 24, 9.4e-14 would pass).
    monkeypatch.setattr(D, "_MS_MAX_PANELS", 12)
    monkeypatch.setattr(D, "_MS_RTOL", 1e-13)
    with pytest.raises(QuadratureBudgetExceeded, match=r"at 12 panels: last change 2\.9\d*e-10"):
        D.maass_selberg_numeric(field_q, 1.5 + 30j, 1.25, 3.0, ctx=ctx_q)


def test_maass_selberg_numeric_is_for_q_only(field_q5, ctx_q5):
    with pytest.raises(DomainError):
        D.maass_selberg_numeric(field_q5, 1.5, 1.25, 3.0, ctx=ctx_q5)


@pytest.mark.parametrize("s, T", [(1.5, 1.0), (1.5, 3.0), (1.5, 30.0), (1.5, 100.0),
                                  (1.5, 1000.0), (1.5 + 10j, 3.0)])
def test_maass_selberg_numeric_matches_closed_form(field_q, ctx_q, s, T):
    # panels uniform in log y: 9.8e-13 at T = 1 (the strip's rule), at most
    # 8.6e-16 at real s for T = 3 to 1000 and 4.2e-14 at s = 1.5+10i
    num = D.maass_selberg_numeric(field_q, s, 1.25, T, ctx=ctx_q)
    closed = E.maass_selberg_closed_form(field_q, s, 1.25, T, ctx_q)
    assert abs(num - closed) <= 1e-12 * abs(closed)


def test_maass_selberg_numeric_stops_at_levels_3_and_6(field_q, ctx_q, monkeypatch):
    # at the CLI point the levels 3 and 6 agree to 1.5e-15, within _MS_RTOL
    levels, grid = [], D._modular_domain_grid

    def counted(T, panels):
        levels.append(panels)
        return grid(T, panels)
    monkeypatch.setattr(D, "_modular_domain_grid", counted)
    D.maass_selberg_numeric(field_q, 1.5, 1.25, 3.0, ctx=ctx_q)
    assert levels == [3, 6]


@pytest.mark.parametrize("T", [0.5, math.inf, math.nan])
@pytest.mark.parametrize("which", ["numeric", "closed_form"])
def test_maass_selberg_rejects_bad_heights(field_q, ctx_q, which, T):
    fn = D.maass_selberg_numeric if which == "numeric" else E.maass_selberg_closed_form
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            fn(field_q, 1.5, 1.25, T, ctx_q)


@pytest.mark.parametrize("d", [0, 5, -1])
def test_y_rows_of_heights_equal_per_height_rows(d):
    # one slice_embeddings call at q = 1, scaled per height: the bits of one
    # call per height, rows ordered by q, then by Y node
    field = F.make_field(d)
    nodes, weights = gl_panel_nodes(-0.5, 0.5, 2, 5)
    qs = np.array([1e-3, 0.07, 0.5, 1.0, 2.3, 41.0])
    ys, wy = D._y_rows(field, qs, nodes, weights)
    Y = np.array(list(itertools.product(nodes, repeat=field.r - 1)))
    per_q = [G.slice_embeddings(field, float(q), np.zeros((wy.size, field.n)), Y)[1] for q in qs]
    for i in range(field.r):
        assert ys[i].tobytes() == np.concatenate([rows[i] for rows in per_q]).tobytes()
    one, _ = D._y_rows(field, 0.07, nodes, weights)  # one q, as the oracles pass it
    assert all(a.tobytes() == b.tobytes() for a, b in zip(one, per_q[1]))


def _box_shadowed(field, q, T, X, Y, K):
    """Reference scan: whether q / V > T at each grid point for some coprime
    pair (c, d) of ring coordinates in [-K, K]^4 (c2 = d2 = 0 on Q), c != 0.
    Only the bound V >= N(c)^2 q^2 of the slice prunes c, with N(c) from
    the embeddings; the exact coprimality test runs on the pairs that shadow
    a point.  Also returns whether such a pair has a coordinate at +-K."""
    xs, ys = G.slice_embeddings(field, q, X, Y)
    e = [[complex(v) for v in embed(field, b)] for b in ((1, 0), (0, 1))]
    r = np.arange(-K, K + 1)
    r2 = r if field.d else np.zeros(1, dtype=int)
    u, v = (a.ravel() for a in np.meshgrid(r, r2, indexing="ij"))
    emb = [u * e[0][i] + v * e[1][i] for i in range(field.r)]
    norm2 = np.prod([np.abs(a) ** (2 * deg) for a, deg in zip(emb, field.place_degrees)], axis=0)
    mask = np.zeros(X.shape[0], dtype=bool)
    on_edge = False
    for k in np.flatnonzero((norm2 > 0.5) & (norm2 * q * T < 1)):
        V = np.ones((u.size, X.shape[0]))
        for i, deg in enumerate(field.place_degrees):
            V *= (np.abs(emb[i][k] * xs[i][None, :] + emb[i][:, None]) ** 2
                  + (abs(emb[i][k]) * ys[i][None, :]) ** 2) ** deg
        hit = q / V > T
        c = (int(u[k]), int(v[k]))
        for j in np.flatnonzero(hit.any(axis=1)):
            if pair_ideal_norm(c, (int(u[j]), int(v[j])), field) == 1:
                mask |= hit[j]
                on_edge |= K in np.abs([u[k], v[k], u[j], v[j]])
    return mask, on_edge


def _slice_nodes(T):
    # The nodes 0.991/(N^2 T) put the cusps of norm N = 1, 2 and 4 just
    # inside the reach bound, where a bound 1% too strict loses them; N = 2
    # on Q(sqrt 3) is the cusp c = 1 + sqrt 3 on the edge of the
    # unit-balance window.
    return list(np.geomspace(3.0, 1.5e-2, 6)) + [0.991 / (N * N * T) for N in (1, 2, 4)]


def _cusp_points(field, c1, c2, d1, d2):
    """-d/c mod o, exactly, as rows (k1, k2, m) of the reduced fractions
    k / m in [0, 1) of its ring coordinates: -d/c = -d sigma(c) / (c sigma(c))
    with c sigma(c) an integer (N(c), or c^2 on Q)."""
    s1, s2 = F._coord_conj(field, c1, c2)
    m = np.abs(F._coord_mul(field, c1, c2, s1, s2)[0])
    k1, k2 = (np.mod(-k, m) for k in F._coord_mul(field, d1, d2, s1, s2))
    g = np.gcd(np.gcd(k1, k2), m)
    return np.stack([k1 // g, k2 // g, m // g], axis=1)


@pytest.mark.parametrize("d, K", [(0, 12), (5, 9), (-1, 8), (3, 16), (-3, 8)])
def test_cusp_classes_match_box_scan(d, K):
    # The reference takes every pair (c, d) of a box of ring coordinates
    # with N(c)^2 q T < 1, from exact norms and the exact coprimality test,
    # and keeps the cusps -d/c mod o: the classes (c, d mod c) up to units.
    field = F.make_field(d)
    T = 3.0
    r = np.arange(-K, K + 1)
    u, v = (a.ravel() for a in np.meshgrid(r, r if field.d else np.zeros(1, dtype=int),
                                           indexing="ij"))
    norm = np.abs(F._coord_norm(field, u, v))
    for q in _slice_nodes(T):
        ref = set()
        for k in np.flatnonzero((norm > 0) & (norm.astype(float) ** 2 * q * T < 1)):
            pts = _cusp_points(field, np.full(u.size, u[k]), np.full(u.size, v[k]), u, v)
            pts, first = np.unique(pts, axis=0, return_index=True)
            assert len(pts) == norm[k], q  # the d box holds every class mod c
            c = (int(u[k]), int(v[k]))
            ref |= {(tuple(p), norm[k]) for p, j in zip(pts.tolist(), first)
                    if pair_ideal_norm(c, (int(u[j]), int(v[j])), field) == 1}
        rows, norms, counts = D._cusp_classes(field, float(q), T)
        got = [(tuple(p), abs(F._coord_norm(field, c1, c2)))
               for p, (c1, c2) in zip(_cusp_points(field, *rows.T).tolist(), rows[:, :2].tolist())]
        assert len(set(got)) == len(got) == counts.sum(), q
        assert set(got) == ref, q
        assert sorted(n for _, n in got) == sorted(np.repeat(norms, counts)), q


@pytest.mark.parametrize("d", [0, 5, -1, 2, 3, -3, 13, -7])
def test_cusp_class_counts_are_ideal_totients(d):
    # the cusps' geometry against the ideal sieve: at every norm n with
    # n^2 q T < 1 the classes (c, d mod c) with |N(c)| = n number exactly the
    # totient sum over the ideals of norm n (1 / sqrt(qT) is no integer here;
    # at 0.991 / (N^2 T) the norm N = 4 or 31 is just inside the reach bound)
    field = F.make_field(d)
    for q, T in ((1e-3, 1.0), (0.02, 3.0), (0.0123, 1.8), (2e-4, 1.5), (0.991 / 48, 3.0),
                 (0.991 / 961, 1.0)):
        _, norms, counts = D._cusp_classes(field, q, T)
        nmax = math.floor(1.0 / math.sqrt(q * T))
        per_norm = np.zeros(nmax, dtype=np.int64)
        per_norm[norms - 1] = counts
        assert np.array_equal(per_norm, equidist._totients(field, nmax)), (q, T)


@pytest.mark.parametrize("d", [0, 5, -1])
def test_cusp_enumeration_refuses_beyond_budget(d, monkeypatch):
    # At qT = 1e-8 about 4e7 to 6e7 d candidates are predicted, some GiB to
    # build: both class enumerations refuse before building them.  At the
    # smallest qT any caller reaches (1e-5, scripts/remark_identity_accuracy.py)
    # these fields stay 10 times below the budget.
    field = F.make_field(d)
    f = equidist.make_test_function(field)
    for call in (lambda: D.shadow_fraction(field, 1e-8 / 3.0, 3.0),
                 lambda: equidist.cusp_section_average(f, 1e-8 / f.t0, field,
                                                       method="horoball")):
        times = []
        for _ in range(3):
            t = time.perf_counter()
            with pytest.raises(QuadratureBudgetExceeded):
                call()
            times.append(time.perf_counter() - t)
        assert min(times) <= 0.01, times
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureBudgetExceeded):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, peak
    monkeypatch.setattr(F, "_CANDIDATE_BUDGET", F._CANDIDATE_BUDGET // 10)
    assert D.slice_candidates(field, 1e-5 / 3.0, 3.0).shape[0] > 0


@pytest.mark.parametrize("d, n, K", [(0, 2048, 12), (5, 24, 9), (-1, 48, 8), (3, 24, 16),
                                     (-3, 48, 8)])
def test_shadow_fraction_matches_full_grid_scan(d, n, K):
    # The mean of the reference mask on a midpoint grid of the X box (at
    # Y = 1/4: the exact share is the same at every Y) is within the grid's
    # error of the exact V_T: at most the share of cells where the mask
    # changes between neighbours.
    field = F.make_field(d)
    T = 3.0
    axis = (np.arange(n) + 0.5) / n - 0.5
    X = np.stack([g.ravel() for g in np.meshgrid(*[axis] * field.n, indexing="ij")], axis=1)
    Y = np.full((X.shape[0], 1), 0.25) if field.r == 2 else None
    for q in _slice_nodes(T):
        ref, on_edge = _box_shadowed(field, q, T, X, Y, K)
        assert not on_edge, q  # the box holds every cusp that shadows a point
        mask = ref.reshape((n,) * field.n)
        cut = np.zeros(mask.shape, dtype=bool)
        for ax in range(field.n):
            flip = np.diff(mask, axis=ax)
            cut[(slice(None),) * ax + (slice(1, None),)] |= flip
            cut[(slice(None),) * ax + (slice(0, -1),)] |= flip
        assert abs(D.shadow_fraction(field, q, T) - ref.mean()) <= cut.mean(), q
