import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from hilmod import domains as D
from hilmod import eisenstein as E
from hilmod import equidist as Q
from hilmod import fields as F
from hilmod import geometry as G
from hilmod import zeta as Z
from hilmod.errors import DomainError, PoleAtOne, QuadratureBudgetExceeded
from hilmod.quadrature import gl_panel_nodes
from conftest import random_group_element, random_point
import oracles
from oracles import SCAN_BUMP, act, eval_test_function, mellin_zero_mode, vertical_line_scan


def scaled(f, factor):
    """f with its amplitude times factor."""
    return dataclasses.replace(f, amplitude=f.amplitude * factor)


def test_profile_plateau_and_support(field_q):
    f = Q.make_test_function(field_q, 2.5, 3.5)
    assert f.profile(3.0) == 1.0
    assert f.profile(2.5) == 0.0
    assert f.profile(3.5) == 0.0
    assert f.profile(1.0) == 0.0
    assert 0 < f.profile(2.6) < 1


def test_profile_scaling_exact(field_q):
    f = Q.make_test_function(field_q, 2.5, 3.5)
    g = scaled(f, 2.0)
    for q in (2.6, 3.0, 3.4):
        assert g.profile(q) == 2 * f.profile(q)


def test_test_function_requires_support_above_l1(field_q):
    with pytest.raises(DomainError):
        Q.make_test_function(field_q, 0.8, 2.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [math.nan, math.inf, 10 ** 400])
@pytest.mark.parametrize("name", ["t0", "t1", "amplitude"])
def test_test_function_refuses_non_finite(field_q, name, value):
    # a nan or inf amplitude gave a nan m_q with a RuntimeWarning, and an
    # integer past the double range an OverflowError
    with pytest.raises(DomainError):
        Q.make_test_function(field_q, **{name: value})


def test_eval_plateau_point(field_q):
    f = Q.make_test_function(field_q, 2.5, 3.5)
    assert eval_test_function(f, G.make_point(field_q, (0.2, 3.0)), field_q) == 1.0
    assert eval_test_function(f, G.make_point(field_q, (0.2, 1.0)), field_q) == 0.0


@pytest.mark.parametrize("d", [0, 5, -1])
def test_eval_invariance(d):
    field = F.make_field(d)
    f = Q.make_test_function(field, 2.0, 3.0)
    rng = random.Random(d + 3)
    base_pts = [random_point(field, rng, 2.0, 2.8) for _ in range(3)]
    checked = 0
    for z in base_pts:
        v0 = eval_test_function(f, z, field)
        for _ in range(10):
            g = random_group_element(field, rng, length=3)
            v1 = eval_test_function(f, act(g, z, field), field)
            assert abs(v0 - v1) <= 1e-10 * (1 + abs(v0))
            checked += 1
    assert checked == 30


def test_section_average_probability(field_q, field_q5, field_qi):
    # plateau covering the slice's own height, no other horoball reaching it
    for field in (field_q, field_q5, field_qi):
        f = Q.make_test_function(field, 2.5, 3.5)
        assert abs(Q.cusp_section_average(f, 3.0, field) - 1.0) <= 1e-10


def test_section_average_vanishes_above_support(field_q):
    f = Q.make_test_function(field_q, 2.5, 3.5)
    assert Q.cusp_section_average(f, 10.0, field_q) == 0.0


def test_section_average_classical_horocycle(field_q):
    # m_y(f) equals the closed-horocycle average; cross-check by direct 1-D
    # quadrature of the pointwise test function
    f = Q.make_test_function(field_q, 2.5, 3.5)
    y = 0.21
    got = Q.cusp_section_average(f, y, field_q)
    xs, ws = gl_panel_nodes(-0.5, 0.5, 512, 10)
    direct = sum(w * eval_test_function(f, G.make_point(field_q, (x, y)), field_q)
                 for x, w in zip(xs, ws))
    assert abs(got - direct) <= 1e-8


@pytest.mark.parametrize("d", [0, 5, -1])
def test_unfolded_vs_horoball_routes(d):
    field = F.make_field(d)
    f = Q.make_test_function(field, 2.5, 3.5)
    for q in (0.11, 0.02):
        a = Q.cusp_section_average(f, q, field, method="unfolded")
        b = Q.cusp_section_average(f, q, field, method="horoball")
        # the same kernel over the cusps' classes: 4.0e-16 relative at most
        # over scripts/horoball_accuracy.py
        assert abs(a - b) <= 1e-13 * abs(a)


@pytest.mark.parametrize("d", [0, 5, -1, -3])
def test_horoball_route_accuracy(d):
    # default bump, at nodes of the sweep in scripts/horoball_accuracy.py
    field = F.make_field(d)
    f = Q.make_test_function(field)
    for q in (0.2152, 0.1108, 0.06, 0.03):
        a = Q.cusp_section_average(f, q, field, method="unfolded")
        b = Q.cusp_section_average(f, q, field, method="horoball")
        assert abs(a - b) <= 1e-13 * abs(a), q


@pytest.mark.parametrize("d, bump, qs", [
    (0, (1.8, 2.8), (0.2152, 0.06)), (5, (1.8, 2.8), (0.1108, 0.03)),
    (-1, (2.5, 3.5), (0.11, 0.02)), (-3, (1.8, 2.8), (0.2152, 0.03)),
    (13, (2.5, 3.5), (0.007,))])
def test_box_quadrature_oracle(d, bump, qs):
    # the box rule integrates psi(q / V) over each shadow in the X box and
    # never reads geometry._PLACE_WEIGHTS: its agreement checks that the
    # class sum's place density describes the box.  4.9e-4 is the rule's
    # worst error over the sweep of scripts/horoball_accuracy.py (4.86e-4,
    # Q(sqrt 13), bump [2.5, 3.5], q = 0.0070).
    field = F.make_field(d)
    f = Q.make_test_function(field, *bump)
    for q in qs:
        a = Q.cusp_section_average(f, q, field, method="horoball")
        assert abs(oracles.box_section_average(f, q, field) - a) <= 4.9e-4, q


@pytest.mark.parametrize("d", [0, 5, -1])
def test_horoball_independent_of_candidate_order(d, monkeypatch):
    # the classes are keyed exactly and counted per norm, so the order in
    # which the candidates come does not reach the value's bits
    field = F.make_field(d)
    f = Q.make_test_function(field)
    qs = (0.1525, 0.0406, 0.0256)

    def values():
        D._cusp_classes.cache_clear()
        return [Q.cusp_section_average(f, q, field, method="horoball").hex() for q in qs]
    want = values()
    candidates = D.slice_candidates
    rng = np.random.default_rng(7)
    for reorder in (lambda c: c[::-1], lambda c: c[rng.permutation(c.shape[0])]):
        monkeypatch.setattr(D, "slice_candidates",
                            lambda *args, reorder=reorder: reorder(candidates(*args)))
        assert values() == want


@pytest.mark.parametrize("d", [0, 5, -1])
def test_horoball_across_block_boundaries(d, monkeypatch):
    # the box rule of the oracle: blocks of 7 and 97 X points cut candidates
    # apart, where the unpatched block holds all of them
    field = F.make_field(d)
    f = Q.make_test_function(field)
    qs = (0.1525, 0.0406)

    def values():
        return np.array([oracles.box_section_average(f, q, field, nodes=4) for q in qs])
    whole = values()
    for block in (7, 97):
        monkeypatch.setattr(F, "_PAIR_BLOCK", block)
        assert np.all(np.abs(values() - whole) <= 1e-14 * np.abs(whole)), block


# --- the box rule's lowest-height test -------------------------------------

_Q_REACH = (0.007, 0.0406, 0.1525)


@given(d=st.sampled_from([5, 2, 13]), q=st.sampled_from(_Q_REACH),
       pick=st.integers(0, 10 ** 6), X=st.tuples(*[st.floats(-0.5, 0.5)] * 2),
       nodes=st.sampled_from([4, 12, 20, 28]))
@settings(max_examples=150, deadline=None)
def test_lowest_heights_bound_v_on_every_y_row(d, q, pick, X, nodes):
    # V at each place's lowest height of the Y rule is at most V on every Y
    # row, in floats, so the oracle's shadow_integral may drop the rows of an
    # X node where q over it is at most the floor
    field = F.make_field(d)
    coords = D.slice_candidates(field, q, 1.8)
    c1, c2, d1, d2 = coords[pick % coords.shape[0]]
    ce = F._embed_coords(field, np.array([c1]), np.array([c2]))
    de = F._embed_coords(field, np.array([d1]), np.array([d2]))
    ys = D._y_rows(field, q, *gl_panel_nodes(-0.5, 0.5, 2, max(nodes // 2, 6)))[0]
    xs = G.slice_embeddings(field, q, np.array([X]), None)[0]
    low = oracles._shadow_V(field, ce, de, xs, [y.min() for y in ys])
    rows = oracles._shadow_V(field, [c[:, None] for c in ce], [e[:, None] for e in de],
                             [x[:, None] for x in xs], ys)
    assert rows.shape == (1, ys[0].size)
    assert np.all(low[:, None] <= rows)


# The class sum on x86-64 with numpy 2.4, as float.hex.
_REAL_HOROBALL_PINS = {
    2: ["0x1.e7338a005a547p-4", "0x1.cd59b21e68f8dp-4", "0x1.f2a88c449859ep-4"],
    3: ["0x1.7146105c6645dp-4", "0x1.eb1f22dfcd538p-4", "0x1.9727228988723p-4"],
    13: ["0x1.594d5d21c19f4p-4", "0x1.e2404572e26b9p-4", "0x1.872e0903c7ac9p-4"],
}


@pytest.mark.parametrize("d", [2, 3, 13])
def test_horoball_pinned_real_quadratic(d):
    field = F.make_field(d)
    f = Q.make_test_function(field)
    got = [Q.cusp_section_average(f, q, field, method="horoball").hex() for q in _Q_REACH]
    assert got == _REAL_HOROBALL_PINS[d]


def test_horoball_evaluates_few_profile_values(monkeypatch):
    # work, not time: on Q(sqrt 5) at q = 0.0406 about 11% of the (X node,
    # Y row) pairs pass the lowest-height test; evaluating every pair, as
    # with the test switched off, costs at least four times as many values
    field = F.make_field(5)
    f = Q.make_test_function(field)
    seen = []
    profile = Q.TestFunction.profile

    def counted(self, t):
        seen.append(np.size(t))
        return profile(self, t)

    monkeypatch.setattr(Q.TestFunction, "profile", counted)

    def work():
        seen.clear()
        value = oracles.box_section_average(f, 0.0406, field)
        return value, sum(seen)
    value, count = work()
    monkeypatch.setattr(oracles, "_passing", _passing_every_pair)
    full_value, full_count = work()
    assert full_value.hex() == value.hex()
    assert 4 * count <= full_count


def _passing_every_pair(field, ce, de, rows, xs, ys, q, floor):
    """`oracles._passing` without the lowest-height test: every pair, on
    every Y row, in the same slices of at most rows.size values."""
    step = max(1, rows.size // ys[0].size)
    for j in range(0, rows.size, step):
        k = np.arange(j, min(j + step, rows.size))
        yield k, q / oracles._shadow_V(field, [c[rows[k], None] for c in ce],
                                       [d[rows[k], None] for d in de], [x[k, None] for x in xs],
                                       ys)


# --- unfolded kernels against scipy quad ----------------------------------
# bump [2, 4], shoulder 0.5: kappa <= t0 (twice), just above t0, between the
# break levels, and above t1

_KAPPAS = (1.5, 2.0, 2.05, 3.0, 12.0)


def _psi_scalar(f, t):
    def ramp(u):
        if u <= 0.0:
            return 0.0
        if u >= 1.0:
            return 1.0
        a, b = math.exp(-1.0 / u), math.exp(-1.0 / (1.0 - u))
        return a / (a + b)
    return f.amplitude * ramp((t - f.t0) / f.shoulder) * ramp((f.t1 - t) / f.shoulder)


def _quad_breaks(f, fun, a, b, level, kappa, eps=1e-13):
    breaks = (f.t0 + f.shoulder, f.t1 - f.shoulder, f.t1)
    pts = [level(v) for v in breaks if v < kappa]
    return quad(fun, a, b, points=pts or None, limit=200, epsabs=eps, epsrel=eps)[0]


def _ref_half_plane(f, kappa, eps=1e-13):
    if kappa <= f.t0:
        return 0.0
    level = lambda b: math.sqrt(kappa / b - 1.0)
    return 2.0 * _quad_breaks(f, lambda x: _psi_scalar(f, kappa / (x * x + 1.0)),
                              0.0, level(f.t0), level, kappa, eps)


def _assert_kernel(got, ref):
    for k, g in zip(_KAPPAS, got):
        r = ref(k)
        assert abs(g - r) <= 1e-10 * max(1.0, abs(r)), (k, g, r)
        if k <= 2.0:
            assert g == 0.0


def test_kernel_half_plane_against_quad(field_q):
    f = Q.make_test_function(field_q, 2.0, 4.0)
    _assert_kernel(Q._unfolded_kernel(f, _KAPPAS, (1,), 48), lambda k: _ref_half_plane(f, k))


def test_kernel_half_space_against_quad(field_qi):
    f = Q.make_test_function(field_qi, 2.0, 4.0)

    def ref(kappa):
        if kappa <= f.t0:
            return 0.0
        level = lambda b: math.sqrt(kappa / b)
        return math.pi * _quad_breaks(f, lambda w: _psi_scalar(f, kappa / (w * w)),
                                      1.0, level(f.t0), level, kappa)
    _assert_kernel(Q._unfolded_kernel(f, _KAPPAS, (2,), 48), ref)


def test_kernel_two_planes_against_nested_quad(field_q5):
    f = Q.make_test_function(field_q5, 2.0, 4.0)

    def ref(kappa):
        if kappa <= f.t0:
            return 0.0
        level = lambda b: math.sqrt(kappa / b - 1.0)
        inner = lambda x: _ref_half_plane(f, kappa / (x * x + 1.0), 1e-12)
        return 2.0 * _quad_breaks(f, inner, 0.0, level(f.t0), level, kappa, 1e-12)
    _assert_kernel(Q._unfolded_kernel(f, _KAPPAS, (1, 1), 40), ref)


def test_kernel_two_planes_blocks(field_q5, monkeypatch):
    # three kappa rows per block of three pieces at order 16
    f = Q.make_test_function(field_q5, 2.0, 4.0)
    monkeypatch.setattr(Q, "_KERNEL_BLOCK", 3 * 3 * 16)
    kappas = np.linspace(1.9, 9.0, 11)
    together = Q._unfolded_kernel(f, kappas, (1, 1), 16)
    alone = np.array([Q._unfolded_kernel(f, [k], (1, 1), 16)[0] for k in kappas])
    np.testing.assert_allclose(together, alone, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("d", [0, -1, 5])
def test_place_weight_mellin_is_archimedean_ratio(d):
    # int_0^inf (1 + x^2)^-w w(x) dx = int_1^inf t^-w rho(t) dt is the ratio
    # Lambda(2w - 1) / Lambda(2w) of the archimedean factors, up to the
    # sqrt(D) / 2^r2 of _unfolded_sum: sqrt(pi) G(w - 1/2) / G(w) on Q,
    # pi / (2w - 1) on Q(i), pi G(w - 1/2)^2 / G(w)^2 on Q(sqrt 5)
    field = F.make_field(d)
    weight = Q._PLACE_WEIGHTS[field.place_degrees]
    for w in (1.3, 2.0, 3.7):
        got = quad(lambda x: weight(x, 1.0 + x * x) * (1.0 + x * x) ** -w, 0.0, math.inf,
                   limit=400, epsabs=0.0, epsrel=1e-13)[0]
        ratio = Z.lambda_factor(field, 2 * w - 1) / Z.lambda_factor(field, 2 * w)
        want = math.sqrt(field.D) / 2 ** field.r2 * ratio.real
        assert abs(got - want) <= 1e-11 * want, (w, got, want)


@pytest.mark.parametrize("d", [0, 5, -1, 2, 13, -3, -7])
def test_unfolded_sum_converges_in_order(d):
    # the decay fit's order 32 (5e-11: 2.5e-11 on Q at k = 3, where the
    # shoulder ramps are not analytic at the breaks) and 48 against 96
    field = F.make_field(d)
    f = Q.make_test_function(field)
    for k in range(2, 17):
        ref = Q._unfolded_sum(f, 2.0 ** -k, field, 96)
        for order, tol in ((32, 5e-11), (48, 1e-12)):
            got = Q._unfolded_sum(f, 2.0 ** -k, field, order)
            assert abs(got - ref) <= tol * abs(ref), (k, order, got, ref)


def test_haar_average_closed_form(field_q, ctx_q):
    f = Q.make_test_function(field_q, 2.5, 3.5)
    mf = Q.haar_average(f, field_q, ctx_q)
    psi_int = quad(lambda t: float(f.profile(t)) / t ** 2, 2.5, 3.5, limit=200)[0]
    assert abs(mf - 3 / math.pi * psi_int) <= 1e-8
    # 2-D quadrature over the classical fundamental domain
    xs, wx = gl_panel_nodes(-0.5, 0.5, 6, 8)
    num = 0.0
    for a, b in ((2.5, 2.75), (2.75, 3.25), (3.25, 3.5)):
        ys, wy = gl_panel_nodes(a, b, 10, 10)
        for yv, wv in zip(ys, wy):
            row = sum(w * eval_test_function(f, G.make_point(field_q, (x, yv)), field_q)
                      for x, w in zip(xs, wx))
            num += wv * row / yv ** 2
    assert abs(mf - num / (math.pi / 3)) <= 1e-5


def test_haar_average_linear_and_rescaled(field_q, ctx_q):
    f = Q.make_test_function(field_q, 2.5, 3.5)
    assert Q.haar_average(scaled(f, 2.0), field_q, ctx_q) == \
        2 * Q.haar_average(f, field_q, ctx_q)
    # support doubled with psi(q/2): m(f) halves (q^{-2} dq change of variables)
    g = Q.TestFunction(2 * f.t0, 2 * f.t1, 2 * f.shoulder, f.amplitude)
    a = Q.haar_average(f, field_q, ctx_q)
    b = Q.haar_average(g, field_q, ctx_q)
    assert abs(b - a / 2) <= 1e-10


def test_mellin_routes_agree(field_q, ctx_q):
    f = Q.make_test_function(field_q)
    for s in (1.5, 2.0, 2.5):
        a = mellin_zero_mode(f, s, ctx_q)
        b = Q.mellin_transform(f, s, field_q, ctx_q)
        assert abs(a - b) <= 1e-4 * abs(a)


def test_mellin_zero_mode_equals_unfolded_integral(field_q, ctx_q):
    # omega^{-1} 2^{r1-r2} R sqrt(D) M(f, s) = int_M E(z, s) f(z) dv with the
    # right side quadratured pointwise; the zero-mode route should match it
    # to quadrature accuracy
    from hilmod.geometry import unfold_constant
    f = Q.make_test_function(field_q)
    s = 2.0
    lhs = unfold_constant(field_q) * mellin_zero_mode(f, s, ctx_q)
    rhs = Q._unfolded_ef_integral(field_q, f, s, ctx_q)
    assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_mellin_residue_probe(field_q, ctx_q):
    f = Q.make_test_function(field_q)
    mf = Q.haar_average(f, field_q, ctx_q)
    eps = 1e-4
    probe = (eps * mellin_zero_mode(f, 1 + eps, ctx_q)).real
    assert abs(probe - mf) <= 1e-3 * mf


def test_mellin_zero_function(field_q, ctx_q):
    f = scaled(Q.make_test_function(field_q), 0.0)
    assert abs(Q.mellin_transform(f, 1.5, field_q, ctx_q)) == 0.0
    for s in (1.5, 0.8 + 3j):
        assert abs(mellin_zero_mode(f, s, ctx_q)) == 0.0


def test_mellin_pole(field_q, ctx_q):
    f = Q.make_test_function(field_q)
    with pytest.raises(PoleAtOne):
        Q.mellin_transform(f, 1.0, field_q, ctx_q)
    with pytest.raises(PoleAtOne):
        mellin_zero_mode(f, 1.0, ctx_q)


def test_rankin_selberg_zero_and_linearity(field_q, ctx_q):
    f0 = scaled(Q.make_test_function(field_q, 2.0, 4.0), 0.0)
    lhs, rhs = Q.rankin_selberg_check(field_q, f0, 2.0, ctx_q)
    assert lhs == 0 and abs(rhs) < 1e-14
    f = Q.make_test_function(field_q, 2.0, 4.0)
    l1, r1 = Q.rankin_selberg_check(field_q, f, 2.0, ctx_q)
    l2, r2 = Q.rankin_selberg_check(field_q, scaled(f, 2.0), 2.0, ctx_q)
    assert abs(l2 - 2 * l1) <= 1e-12 * abs(l2)
    assert abs(r2 - 2 * r1) <= 1e-12 * abs(r2)


def test_decay_fit_degenerate(field_q, ctx_q):
    f = scaled(Q.make_test_function(field_q), 0.0)
    rep = Q.decay_exponent_fit(f, field_q, 3, 7, ctx_q)
    assert rep.degenerate
    assert math.isnan(rep.fitted_slope)


def test_decay_fit_report_shape(field_q, ctx_q):
    f = Q.make_test_function(field_q)
    rep = Q.decay_exponent_fit(f, field_q, 3, 8, ctx_q)
    qs = rep.q_grid
    assert all(qs[i] > qs[i + 1] for i in range(len(qs) - 1))
    assert all(e >= 0 for e in rep.errors)
    rows = list(rep.rows())
    assert rows[0]["k"] == 3 and rows[-1]["k"] == 8
    assert all(r["nodes"] == 32 and r["quad_err"] <= 0.1 * r["e"] for r in rows)
    assert rep.runtime >= 0


def test_decay_fit_raises_on_unconverged_slice(field_q, ctx_q, monkeypatch):
    f = Q.make_test_function(field_q)
    average = Q.cusp_section_average

    def coarse_order_off(f, q, field, order):
        return average(f, q, field, order=order) + (1e-3 if order == 20 else 0.0)
    monkeypatch.setattr(Q, "cusp_section_average", coarse_order_off)
    with pytest.raises(QuadratureBudgetExceeded):
        Q.decay_exponent_fit(f, field_q, 3, 8, ctx_q)


# --- heights as an array -----------------------------------------------------
# Non-monotone, with heights above 1/t0 = 0.56 (no kernel rows) and above t1.
_ARRAY_QS = (0.3, 2.0 ** -9, 5.0, 0.07, 0.6, 2.2, 3.1, 2.0 ** -14, 0.9, 0.012, 0.3)


@pytest.mark.parametrize("d", [0, 5, -1, 2, 13, -3, -7])
def test_array_heights_equal_scalar_calls(d):
    field = F.make_field(d)
    f = Q.make_test_function(field)
    for order in (20, 24, 32):
        got = Q.cusp_section_average(f, np.array(_ARRAY_QS), field, order=order)
        want = [Q.cusp_section_average(f, q, field, order=order).hex() for q in _ARRAY_QS]
        assert [float(v).hex() for v in got] == want, order


def test_array_heights_horoball_and_scalar_type(field_q):
    f = Q.make_test_function(field_q)
    qs = [0.1525, 3.1, 0.0406]
    got = Q.cusp_section_average(f, qs, field_q, nodes=4, method="horoball")
    assert isinstance(got, np.ndarray) and got.shape == (3,)
    for q, v in zip(qs, got):
        one = Q.cusp_section_average(f, q, field_q, nodes=4, method="horoball")
        assert type(one) is float and one.hex() == float(v).hex()
    assert type(Q.cusp_section_average(f, np.float64(0.07), field_q)) is float
    assert Q.cusp_section_average(f, np.array([]), field_q).shape == (0,)


@pytest.mark.parametrize("method", ["unfolded", "horoball"])
def test_section_average_rejects_bad_heights(field_q, method):
    f = Q.make_test_function(field_q)
    for q in (0.0, -0.5, math.nan, math.inf, [0.1, math.nan]):
        with pytest.raises(DomainError):
            Q.cusp_section_average(f, q, field_q, nodes=4, method=method)


def test_one_kernel_call_per_height_grid(field_q5, monkeypatch):
    f = Q.make_test_function(field_q5, 2.0, 4.0)
    ctx = Z.make_context(field_q5)
    kernel, calls = Q._unfolded_kernel, []

    def counted(*args):
        calls.append(args)
        return kernel(*args)
    monkeypatch.setattr(Q, "_unfolded_kernel", counted)
    Q.mellin_transform(f, 2.0, field_q5, ctx)
    assert len(calls) == 1
    calls.clear()
    Q.decay_exponent_fit(Q.make_test_function(field_q5), field_q5, 2, 10, ctx)
    assert len(calls) == 2


def test_one_kernel_row_per_distinct_kappa(field_q, ctx_q, monkeypatch):
    # work, not time: kappa = 1/(n^2 q) at q = 2^-k, and kappa(2n, k + 2)
    # equals kappa(n, k) in floating point, so the rows of the k = 2 .. 20
    # fit hold each kappa about twice
    f = Q.make_test_function(field_q)
    rows = sum(int(1.0 / math.sqrt(2.0 ** -k * f.t0)) for k in range(2, 21))
    kernel, sizes = Q._unfolded_kernel, []

    def counted(f, kappa, degrees, order):
        assert np.unique(kappa).size == np.size(kappa)
        sizes.append((order, np.size(kappa)))
        return kernel(f, kappa, degrees, order)
    monkeypatch.setattr(Q, "_unfolded_kernel", counted)
    Q.decay_exponent_fit(f, field_q, 2, 20, ctx_q)
    assert rows == 2590 and sizes == [(32, 1302), (20, 1302)]


@pytest.mark.parametrize("degrees", [(1,), (2,), (1, 1)])
@pytest.mark.parametrize("shoulder", [None, 0.7])  # 0.7: the shoulders overlap
def test_kernel_evaluates_no_bump_above_t1(field_q, monkeypatch, degrees, shoulder):
    # the heights at which the kernel evaluates psi: those of the one ramp
    # of each shoulder piece, and profile's (once, not its ramps') on the
    # middle piece where the shoulders overlap; and the ramp values, profile's
    # included
    f = Q.make_test_function(field_q, 2.0, 3.0) if shoulder is None else \
        Q.TestFunction(2.0, 3.0, shoulder, 1.0)
    edges = [b * (1 + e) for b in (f.t0, f.t0 + f.shoulder, f.t1 - f.shoulder, f.t1)
             for e in (-1e-15, 0.0, 1e-15)]
    kappas = np.concatenate([np.geomspace(0.5, 1e6, 200), edges])
    seen, in_profile, ramps = [], [], []
    profile = Q.TestFunction.profile

    def ramp_spy(ramp):
        def recorded(self, q):
            ramps.append(np.size(q))
            if not in_profile:
                seen.append(np.ravel(q))
            return ramp(self, q)
        return recorded

    def profile_spy(self, q):
        seen.append(np.ravel(q))
        in_profile.append(True)
        value = profile(self, q)
        in_profile.pop()
        return value
    monkeypatch.setattr(Q.TestFunction, "rise", ramp_spy(Q.TestFunction.rise))
    monkeypatch.setattr(Q.TestFunction, "fall", ramp_spy(Q.TestFunction.fall))
    monkeypatch.setattr(Q.TestFunction, "profile", profile_spy)
    Q._unfolded_kernel(f, kappas, degrees, 24)
    heights = np.concatenate(seen)
    overlap = f.t0 + f.shoulder > f.t1 - f.shoulder
    assert heights.size == kappas.size * (2 + overlap) * 24  # one ramp per shoulder piece
    assert heights.max() <= f.t1
    assert sum(ramps) == kappas.size * (2 + 2 * overlap) * 24


# Pinned on x86-64 with numpy 2.4: sha256 of the kernel's bytes on 2,000
# kappa in [0.5, 1e6] and every break times 1 - 1e-15, 1 and 1 + 1e-15, for
# the quarter and the overlapping 0.7 shoulders of [2, 3], the three
# place-degree signatures and orders 20, 24 and 32, in that order.
_KERNEL_PIN = "49a8554f09bddc98c907cc44acbdc05931ed9fbca500811b29c3c06a3d06a58c"


def test_kernel_bytes_pinned(field_q):
    digest = hashlib.sha256()
    for f in (Q.make_test_function(field_q, 2.0, 3.0), Q.TestFunction(2.0, 3.0, 0.7, 1.0)):
        breaks = np.array([f.t0, f.t0 + f.shoulder, f.t1 - f.shoulder, f.t1])
        kappas = np.concatenate([np.geomspace(0.5, 1e6, 2000),
                                 np.outer(breaks, [1 - 1e-15, 1.0, 1 + 1e-15]).ravel()])
        for degrees in ((1,), (2,), (1, 1)):
            for order in (20, 24, 32):
                digest.update(Q._unfolded_kernel(f, kappas, degrees, order).tobytes())
    assert digest.hexdigest() == _KERNEL_PIN


# Mellin sides of rankin_selberg_check, bump [2, 4], s = 2, as float.hex of
# the real part (the imaginary part is 0), from the one-height-per-call route.
_MELLIN_SIDE_PINS = {0: "0x1.9c61e6cc4f21dp+0", 5: "0x1.b0ecf4d1945d4p+1"}


@pytest.mark.parametrize("d", [0, 5])
def test_rankin_selberg_mellin_side_pinned(d):
    from hilmod.geometry import unfold_constant
    field = F.make_field(d)
    f = Q.make_test_function(field, 2.0, 4.0)
    side = unfold_constant(field) * Q.mellin_transform(f, 2.0, field, Z.make_context(field))
    assert (side.real.hex(), side.imag) == (_MELLIN_SIDE_PINS[d], 0.0)


@pytest.mark.parametrize("k_min, k_max", [(4, 4), (5, 3)])
def test_decay_fit_needs_two_heights(field_q, ctx_q, k_min, k_max):
    with pytest.raises(DomainError):
        Q.decay_exponent_fit(Q.make_test_function(field_q), field_q, k_min, k_max, ctx_q)


def test_vertical_scan_shape_and_linearity(field_q, ctx_q):
    f = Q.TestFunction(*SCAN_BUMP, 1.0)
    scan = vertical_line_scan(f, 0.8, 8.0, field_q, ctx_q, n_samples=24)
    assert scan["samples"][0][0] == 1.0  # scan starts at t = 1
    scan2 = vertical_line_scan(scaled(f, 2.0), 0.8, 8.0, field_q, ctx_q, n_samples=24)
    for (t1, m1), (t2, m2) in zip(scan["samples"], scan2["samples"]):
        assert t1 == t2 and abs(m2 - 2 * m1) <= 1e-12 * (1 + m2)


def test_vertical_scan_sigma_domain(field_q, ctx_q):
    f = Q.make_test_function(field_q)
    with pytest.raises(ValueError):
        vertical_line_scan(f, 1.2, 10.0, field_q, ctx_q)


@pytest.mark.parametrize("d", [0, 5, -1])
def test_convergence_trend(d):
    # coarse monotone trend robust to oscillation: the error at the last
    # height is at most a quarter of the pre-asymptotic level (the largest
    # error on the grid up to k = 4)
    field = F.make_field(d)
    f = Q.make_test_function(field)
    k_min, k_max = (3, 12) if d == 0 else (2, 8)
    rep = Q.decay_exponent_fit(f, field, k_min, k_max)
    early = max(rep.errors[: 4 - k_min + 1])
    assert rep.errors[-1] <= early / 4


def _ramp_closed_form(t):
    """exp(-1/t) / (exp(-1/t) + exp(-1/(1-t))) on the clipped t, with both
    exponentials taken at every point."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        f0 = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        f1 = np.where(t < 1, np.exp(-1.0 / np.maximum(1 - t, 1e-300)), 0.0)
    return f0 / (f0 + f1)


def test_ramp_bitwise_closed_form():
    edge = [-3.0, -5e-324, -0.0, 0.0, 5e-324, 1e-300, 0.25, 0.5,
            1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52, 4.0]
    for t in edge:  # 0-d inputs
        got, want = np.asarray(Q._ramp(t)), np.asarray(_ramp_closed_form(t))
        assert got.shape == () and got.tobytes() == want.tobytes(), t
    t = np.concatenate([edge, np.linspace(-0.5, 1.5, 2001)]).reshape(3, 11, 61)
    got = Q._ramp(t)
    assert got.shape == t.shape
    assert got.tobytes() == _ramp_closed_form(t).tobytes()


# Pinned on x86-64 with numpy 2.4: the horoball route's class sums of the
# default bump at the equidist benchmark's horoball strata, and the decay
# fit's m_q for q = 2^-2 .. 2^-k_max, as float.hex.
_HOROBALL_PINS = {
    0: ["0x1.b12950b88a7c8p-4", "0x1.40e06244c138ap-3"],
    5: ["0x1.3b611705dfdeap-3", "0x1.a70e5ff05e35ap-4"],
    -1: ["0x1.12e02151c5540p-3", "0x1.a97c723b7ada3p-4"],
}
_DECAY_PINS = {
    0: (20, ["0x1.56a3f10940daap-3", "0x1.1b6e56fd9e3bep-3", "0x1.9d3173c2bfc78p-4",
             "0x1.09dd792ba0582p-3", "0x1.42699777e9015p-3", "0x1.3b84d47f4097fp-3",
             "0x1.220446f0fbe84p-3", "0x1.16e9c470d3d26p-3", "0x1.1805049263806p-3",
             "0x1.1f5ba44bc6d88p-3", "0x1.1cb2082e6645cp-3", "0x1.1cd098ebb41c4p-3",
             "0x1.1d5854b505848p-3", "0x1.1cf6a6e29739cp-3", "0x1.1d4dfe3f32d7dp-3",
             "0x1.1d252ebc963cap-3", "0x1.1d2369b14edf9p-3", "0x1.1d2cbe64ad426p-3",
             "0x1.1d22c477d2a16p-3"]),
    5: (11, ["0x1.695fa9f328b97p-3", "0x1.29f3e958da8b6p-3", "0x1.e474222e171f8p-4",
             "0x1.99f0a1faaf6c0p-4", "0x1.1725565678caep-3", "0x1.cde54e68412b9p-4",
             "0x1.e7f979f43a204p-4", "0x1.dbe29e56b7b3cp-4", "0x1.fd16472049bf2p-4",
             "0x1.ec382099d186ep-4"]),
    -1: (20, ["0x1.5ff12887d6a2bp-3", "0x1.088d07c0a092dp-3", "0x1.07f4de65e1423p-3",
              "0x1.84fb2fa3a63ecp-4", "0x1.2b56f973208e2p-3", "0x1.c7cb51fb5ee5ap-4",
              "0x1.f4a2602a44cc0p-4", "0x1.def019a0a5712p-4", "0x1.eb165b6601490p-4",
              "0x1.eea4aa34c7950p-4", "0x1.f007ead5b7092p-4", "0x1.e3841524b4bdcp-4",
              "0x1.e7a108fca8e0dp-4", "0x1.ec22d32d24346p-4", "0x1.e8a3aa9aa952dp-4",
              "0x1.e89353d709578p-4", "0x1.e8331d4c8a08dp-4", "0x1.e92d9b9ecb7a7p-4",
              "0x1.e93e6f57bf362p-4"]),
}


@pytest.mark.parametrize("d", [0, 5, -1])
def test_horoball_and_decay_fit_pinned(d):
    field = F.make_field(d)
    f = Q.make_test_function(field, 1.8, 2.8)
    got = [Q.cusp_section_average(f, q, field, nodes=20, method="horoball").hex()
           for q in (0.1525, 0.0406)]
    assert got == _HOROBALL_PINS[d]
    k_max, pins = _DECAY_PINS[d]
    rep = Q.decay_exponent_fit(f, field, 2, k_max, ctx=Z.make_context(field))
    assert [float(v).hex() for v in rep.m_values] == pins
