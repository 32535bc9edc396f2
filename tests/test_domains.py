import math

import numpy as np
import pytest

from hilmod import domains as D
from hilmod import eisenstein as E
from hilmod import fields as F
from hilmod import geometry as G
from hilmod import zeta as Z


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
