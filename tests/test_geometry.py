import itertools
import math
import random

import numpy as np
import pytest

from hilmod import fields as F
from hilmod import geometry as G
from hilmod.errors import DomainError
from conftest import random_group_element, random_point
from oracles import (LocalCoords, act, assoc_matrix, eq_mod_sign, from_local_coords,
                     group_element, height, hyperbolic_distance, identity_element, laplacian_fd,
                     local_coords, make_cusp, mul, reduce_mod_stabilizer, stabilizer_element,
                     unit_block_matrix, unit_power, x_basis_matrix)

FIELDS = [0, 5, -1]


def test_act_identity(field_q5):
    z = G.make_point(field_q5, (0.2, 1.1), (-0.3, 0.7))
    g = identity_element(field_q5)
    assert act(g, z, field_q5).coords == z.coords


def test_act_inversion(field_q):
    z = G.make_point(field_q, (0.0, 2.0))
    S = group_element(field_q, 0, -1, 1, 0)
    w = act(S, z, field_q)
    assert abs(w.coords[0][0]) < 1e-15 and abs(w.coords[0][1] - 0.5) < 1e-15


def test_act_translation_h3(field_qi):
    i = (0, 1)  # omega = i
    T = group_element(field_qi, 1, i, 0, 1)
    z = G.make_point(field_qi, (0.2 + 0.4j, 0.9))
    w = act(T, z, field_qi)
    assert abs(w.coords[0][0] - (0.2 + 1.4j)) < 1e-15
    assert abs(w.coords[0][1] - 0.9) < 1e-15


def test_group_element_must_be_unimodular(field_q):
    with pytest.raises(ValueError):
        group_element(field_q, 2, 0, 0, 2)


@pytest.mark.parametrize("d, pairs", [
    (0, [(0.1, -1.0)]), (0, [(0.1, 0.0)]), (0, [(0.1, math.inf)]), (0, [(math.nan, 1.0)]),
    (-1, [(complex(0.1, math.inf), 1.0)]),
    (0, [(0.1, 1.0), (0.2, 1.0)]), (5, [(0.1, 1.0)]),
])
def test_make_point_rejects_bad_coordinates(d, pairs):
    with pytest.raises(DomainError):
        G.make_point(F.make_field(d), *pairs)


def test_height_at_infinity(field_q):
    z = G.make_point(field_q, (0.3, 2.0))
    assert height(G.cusp_infinity(field_q), z, field_q) == 2.0


def test_height_at_zero_cusp(field_q):
    lam = make_cusp(field_q, 0, 1)
    for t in (0.5, 2.0, 4.0):
        z = G.make_point(field_q, (0.0, t))
        assert abs(height(lam, z, field_q) - 1.0 / t) < 1e-14
    # equals mu(infinity, S z)
    S = group_element(field_q, 0, -1, 1, 0)
    z = G.make_point(field_q, (0.4, 1.7))
    lhs = height(lam, z, field_q)
    rhs = act(S, z, field_q).coords[0][1]
    assert abs(lhs - rhs) < 1e-14


def apply_to_cusp(g, cusp, field):
    def dot(x, y, z, w):  # x y + z w
        return tuple(p + q for p, q in zip(mul(field, x, y), mul(field, z, w)))
    rho = dot(g.a, cusp.rho, g.b, cusp.sigma)
    sigma = dot(g.c, cusp.rho, g.d, cusp.sigma)
    return make_cusp(field, rho, sigma)


@pytest.mark.parametrize("d", FIELDS)
def test_height_invariance_random(d):
    field = F.make_field(d)
    rng = random.Random(11 + d)
    base_cusps = [G.cusp_infinity(field), make_cusp(field, 0, 1),
                  make_cusp(field, 1, 1)]
    for trial in range(50):
        g = random_group_element(field, rng)
        lam = base_cusps[trial % len(base_cusps)]
        z = random_point(field, rng)
        mu1 = height(lam, z, field)
        mu2 = height(apply_to_cusp(g, lam, field), act(g, z, field), field)
        assert abs(mu1 - mu2) <= 1e-10 * mu1


def test_local_coords_rational(field_q):
    inf = G.cusp_infinity(field_q)
    z = G.make_point(field_q, (0.37, 1.9))
    lc = local_coords(inf, z, field_q)
    assert lc.Y == ()
    assert abs(lc.q - 1.9) < 1e-15 and abs(lc.X[0] - 0.37) < 1e-15


@pytest.mark.parametrize("d", FIELDS)
def test_local_coords_round_trip_fuzz(d):
    field = F.make_field(d)
    rng = random.Random(5 + d)
    inf = G.cusp_infinity(field)
    for _ in range(200):
        z = random_point(field, rng, 0.3, 3.0)
        lc = local_coords(inf, z, field)
        w = from_local_coords(inf, lc, field)
        for (x1, y1), (x2, y2) in zip(z.coords, w.coords):
            assert abs(complex(x1) - complex(x2)) < 1e-10
            assert abs(y1 - y2) < 1e-10
        assert abs(lc.q - height(inf, z, field)) < 1e-12


def test_round_trip_nontrivial_cusp(field_q):
    lam = make_cusp(field_q, 1, 2)
    rng = random.Random(3)
    for _ in range(40):
        z = random_point(field_q, rng, 0.4, 2.5)
        lc = local_coords(lam, z, field_q)
        w = from_local_coords(lam, lc, field_q)
        assert abs(complex(z.coords[0][0]) - complex(w.coords[0][0])) < 1e-10
        assert abs(z.coords[0][1] - w.coords[0][1]) < 1e-10


def test_lemma2_translation_all_fields():
    for d in FIELDS:
        field = F.make_field(d)
        inf = G.cusp_infinity(field)
        rng = random.Random(17 + d)
        z = random_point(field, rng)
        lc = local_coords(inf, z, field)
        m = [1] * field.n if field.d != 0 else [1]
        g = stabilizer_element(inf, None, 0, m, field)
        lc2 = local_coords(inf, act(g, z, field), field)
        assert abs(lc2.q - lc.q) < 1e-12
        for a, b, mm in zip(lc2.X, lc.X, m + [0] * len(lc.X)):
            assert abs(a - (b + mm)) < 1e-9
        for a, b in zip(lc2.Y, lc.Y):
            assert abs(a - b) < 1e-9


def test_lemma2_unit_shift_q5(field_q5):
    inf = G.cusp_infinity(field_q5)
    z = G.make_point(field_q5, (0.23, 1.07), (-0.41, 0.83))
    lc = local_coords(inf, z, field_q5)
    for k in (1, -2):
        g = stabilizer_element(inf, (k,), 0, None, field_q5)
        lc2 = local_coords(inf, act(g, z, field_q5), field_q5)
        assert abs(lc2.q - lc.q) < 1e-12
        assert abs(lc2.Y[0] - (lc.Y[0] + k)) < 1e-9
        E = unit_block_matrix(field_q5, unit_power(field_q5, k))
        O = x_basis_matrix(field_q5)
        pred = np.linalg.solve(O, (E @ E) @ O @ np.array(lc.X))
        assert np.abs(np.array(lc2.X) - pred).max() < 1e-9


def test_lemma2_root_of_unity_qi(field_qi):
    inf = G.cusp_infinity(field_qi)
    z = G.make_point(field_qi, (0.21 + 0.13j, 0.95))
    lc = local_coords(inf, z, field_qi)
    g = stabilizer_element(inf, None, 1, None, field_qi)  # w = i
    lc2 = local_coords(inf, act(g, z, field_qi), field_qi)
    assert abs(lc2.q - lc.q) < 1e-12
    # X -> O^{-1} E^2 O X with E the rotation by i, i.e. X -> -X
    assert abs(lc2.X[0] + lc.X[0]) < 1e-9
    assert abs(lc2.X[1] + lc.X[1]) < 1e-9


def test_stabilizer_zero_inputs_identity(field_q5):
    inf = G.cusp_infinity(field_q5)
    g = stabilizer_element(inf, (0,), 0, [0, 0], field_q5)
    assert eq_mod_sign(g, identity_element(field_q5))


def test_reduce_simple_translation(field_q):
    inf = G.cusp_infinity(field_q)
    z = G.make_point(field_q, (5.3, 2.0))
    w, g = reduce_mod_stabilizer(inf, z, field_q)
    assert abs(w.coords[0][0] - 0.3) < 1e-12
    assert abs(w.coords[0][1] - 2.0) < 1e-12


def test_reduce_already_reduced(field_q5):
    inf = G.cusp_infinity(field_q5)
    z = from_local_coords(inf, LocalCoords(1.3, (0.1,), (0.2, -0.3)), field_q5)
    w, g = reduce_mod_stabilizer(inf, z, field_q5)
    assert eq_mod_sign(g, identity_element(field_q5))


@pytest.mark.parametrize("d", FIELDS)
def test_reduce_fuzz(d):
    field = F.make_field(d)
    inf = G.cusp_infinity(field)
    rng = random.Random(29 + d)
    for _ in range(200):
        z = random_point(field, rng, 0.2, 4.0)
        # push it out of the box first
        g0 = stabilizer_element(inf, (2,) if field.r > 1 else None, 0,
                                  [3] + [0] * (field.n - 1), field)
        z = act(g0, z, field)
        q0 = local_coords(inf, z, field).q
        w, g = reduce_mod_stabilizer(inf, z, field)
        lc = local_coords(inf, w, field)
        assert lc.in_box(1e-9)
        assert abs(lc.q - q0) <= 1e-12 * q0
        # returned element really maps input to output
        w2 = act(g, z, field)
        for (x1, y1), (x2, y2) in zip(w.coords, w2.coords):
            assert abs(complex(x1) - complex(x2)) < 1e-10


@pytest.mark.parametrize("d", FIELDS)
def test_isometry_invariance(d):
    field = F.make_field(d)
    rng = random.Random(41 + d)
    for _ in range(20):
        z, w = random_point(field, rng), random_point(field, rng)
        g = random_group_element(field, rng)
        d1 = hyperbolic_distance(z, w, field)
        d2 = hyperbolic_distance(act(g, z, field), act(g, w, field), field)
        assert abs(d1 - d2) <= 1e-10 * (1 + d1)


@pytest.mark.parametrize("d", FIELDS)
@pytest.mark.parametrize("s", [1.5, 0.75 + 1j])
def test_laplacian_eigenrelation_ny(d, s):
    field = F.make_field(d)
    rng = random.Random(13)
    z = random_point(field, rng)
    fun = lambda w: w.ny(field) ** s
    lhs = laplacian_fd(fun, z, field, 1e-3)
    rhs = (field.r1 + 4 * field.r2) * s * (s - 1) * fun(z)
    assert abs(lhs - rhs) <= 1e-5 * abs(rhs)


def _det(fd, A):
    return tuple(p - q for p, q in zip(mul(fd, A.a, A.d), mul(fd, A.b, A.c)))


def test_make_cusp_bezout_beyond_small_entries(field_q5):
    # <101 + 33 omega, 250 + 71 omega> = o, but no Bezout solution has all
    # four coordinates in [-20, 20]
    lam = make_cusp(field_q5, (101, 33), (250, 71))
    A = assoc_matrix(lam, field_q5)
    assert A.a == lam.rho and A.c == lam.sigma
    assert _det(field_q5, A) == (1, 0)


def test_cusp_normalization_makes_equality_decidable(field_q5):
    u = field_q5.fundamental_unit
    a = make_cusp(field_q5, 1, 2)
    b = make_cusp(field_q5, u, mul(field_q5, (2, 0), u))
    assert a == b
    A = assoc_matrix(a, field_q5)
    assert A.a == a.rho and A.c == a.sigma
    assert _det(field_q5, A) == (1, 0)


def _canonical_sigma(fd, lam):
    u, v = (np.array([c]) for c in lam.sigma)
    return bool(F._canonical_c(fd, u, v)[0] and F._unit_balanced(fd, u, v)[0])


@pytest.mark.parametrize("d", (0,) + F.REAL_H1 + F.IMAG_H1)
def test_make_cusp_unit_invariant(d):
    # each nonzero pair of the box [-1, 1]^4, coprime or not, times one of
    # the units w eps^k (k = +-1, +-2 when r = 2) in turn gives the cusp of
    # the pair: the same (rho, sigma), sigma canonical, rho / sigma kept
    fd = F.make_field(d)
    ks = (-2, -1, 1, 2) if fd.r == 2 else (0,)
    units = [mul(fd, w, unit_power(fd, k)) if k else w for w in F.roots_of_unity(fd) for k in ks]
    box, vbox = range(-1, 2), range(-1, 2) if fd.n == 2 else [0]
    pairs = [c for c in itertools.product(box, vbox, box, vbox) if any(c)]
    for j, c in enumerate(pairs):
        rho, sigma = c[:2], c[2:]
        lam = make_cusp(fd, rho, sigma)
        u = units[j % len(units)]
        assert make_cusp(fd, mul(fd, u, rho), mul(fd, u, sigma)) == lam, c
        if sigma == (0, 0):
            assert lam == G.cusp_infinity(fd)
        else:  # lam.rho / lam.sigma = rho / sigma
            assert mul(fd, lam.rho, sigma) == mul(fd, rho, lam.sigma) and _canonical_sigma(fd, lam)


@pytest.mark.parametrize("d, edges", [(3, 96), (6, 48), (7, 16)])
def test_make_cusp_unit_invariant_on_window_edges(d, edges):
    # The coprime pairs of the box [-6, 6]^4 whose sizes n = rho^2 + sigma^2
    # at the two places differ by exactly eps_1^(+-2), sigma(n) = eps^(+-2) n,
    # sit on the edge of a unit window on the pair's size.  A float window
    # there gave make_cusp(eps rho, eps sigma) != make_cusp(rho, sigma) for
    # 64, 16 and 8 of them; the canonical sigma does not look at the size.
    fd = F.make_field(d)
    c = np.array(list(itertools.product(range(-6, 7), repeat=4)))
    c = c[F._coprime_mask(fd, *c.T)]
    n = np.add(F._coord_mul(fd, *c[:, :2].T, *c[:, :2].T), F._coord_mul(fd, *c[:, 2:].T, *c[:, 2:].T))
    conj = np.array(F._coord_conj(fd, *n))
    e2 = unit_power(fd, 2)
    edge = ((np.array(F._coord_mul(fd, *e2, *n)) == conj).all(axis=0)
            | (np.array(F._coord_mul(fd, *e2, *conj)) == n).all(axis=0))
    assert edge.sum() == edges
    eps = fd.fundamental_unit
    for a, b, e, f in c[edge].tolist():
        rho, sigma = (a, b), (e, f)
        assert make_cusp(fd, mul(fd, eps, rho), mul(fd, eps, sigma)) == make_cusp(fd, rho, sigma)
