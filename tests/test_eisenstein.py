import math
import pathlib
import random
import sys
import time
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import kv
from sympy import divisors

from hilmod import eisenstein as E
from hilmod import fields as F
from hilmod import geometry as G
from hilmod import zeta as Z
from hilmod.errors import (DegenerateParameters, DomainError, NotConvergent,
                           QuadratureBudgetExceeded)
from conftest import random_group_element, random_point
from oracles import (_pair_table, act, embed, enumerate_pairs, ideal_count_coeffs,
                     laplacian_fd, make_cusp, pair_ideal_norm, quotient, weighed_pair_sum)


def classical_eisenstein_oracle(z, s, terms=40):
    """Independent oracle for K = Q: the classical Fourier expansion with
    scipy Bessel factors and sympy divisor sums."""
    x, y = z.coords[0]
    xi = lambda w: math.pi ** (-w / 2) * math.gamma(w / 2) * float(Z.riemann_zeta(w).real)
    phi = xi(2 * s - 1) / xi(2 * s)
    total = y ** s + phi * y ** (1 - s)
    for n in range(1, terms + 1):
        tau = n ** (s - 0.5) * sum(float(dv) ** (1 - 2 * s) for dv in divisors(n))
        term = 2 * math.sqrt(y) / xi(2 * s) * tau * float(kv(s - 0.5, 2 * math.pi * n * y)) \
            * 2 * math.cos(2 * math.pi * n * x)
        total += term
    return total


def test_enumerate_pairs_example(field_q):
    inf = G.cusp_infinity(field_q)
    z = G.make_point(field_q, (0.0, 1.0))
    pairs = enumerate_pairs(field_q, inf, z, 4.0)
    got = {(p.c[0], p.d[0]) for p in pairs}
    assert got == {(0, 1), (1, 0), (1, 1), (1, -1)}


def test_enumerate_pairs_small_bound(field_q):
    inf = G.cusp_infinity(field_q)
    z = G.make_point(field_q, (0.3, 1.7))
    # bound below every contribution except the unit orbit (0, 1)
    pairs = enumerate_pairs(field_q, inf, z, 0.7)
    assert [(p.c[0], p.d[0]) for p in pairs] == [(0, 1)]


def _cusp_key(field, c, d):
    """The cusp -d/c, which names the unit orbit of a coprime pair."""
    if c == (0, 0):
        return "inf"
    return quotient((-d[0], -d[1]), c, field)


@pytest.mark.parametrize("d", [0, 5, -1, 2, -3])
def test_enumerate_pairs_complete_against_box_brute(d):
    field = F.make_field(d)
    inf = G.cusp_infinity(field)
    rng = random.Random(d)
    z = random_point(field, rng)
    bound = 30.0
    pairs = enumerate_pairs(field, inf, z, bound)
    BV = bound * z.ny(field)
    # brute force: V over a generous box of ring coordinates (c1, c2, d1, d2),
    # from the embeddings of the integral basis; the exact coprimality test
    # and the cusp value -d/c only on the pairs with V <= BV
    r = np.arange(-12, 13)
    r2 = r if field.d else np.zeros(1, dtype=int)
    c1, c2, d1, d2 = (a.ravel() for a in np.meshgrid(r, r2, r, r2, indexing="ij"))
    e = [[complex(v) for v in embed(field, b)] for b in ((1, 0), (0, 1))]
    V = np.ones(c1.shape)
    for i, deg in enumerate(field.place_degrees):
        x, y = z.coords[i]
        ce, de = c1 * e[0][i] + c2 * e[1][i], d1 * e[0][i] + d2 * e[1][i]
        V *= (np.abs(ce * x + de) ** 2 + np.abs(ce) ** 2 * y * y) ** deg
    assert not np.any(np.abs(V / BV - 1) < 1e-9)  # nothing on the boundary
    seen = set()
    for j in np.flatnonzero((V <= BV) & ((c1 != 0) | (c2 != 0) | (d1 != 0) | (d2 != 0))):
        c, dd = (int(c1[j]), int(c2[j])), (int(d1[j]), int(d2[j]))
        if pair_ideal_norm(c, dd, field) == 1:
            seen.add(_cusp_key(field, c, dd))
    got = [_cusp_key(field, p.c, p.d) for p in pairs]
    assert len(got) == len(set(got))
    assert set(got) == seen


@pytest.mark.parametrize("d", [0, 5, -1, 2, 3, -3, 13, -7])
def test_ball_points_match_box_brute(d):
    # random balls against a scan of a box of ring coordinates, with the
    # embeddings of the integral basis; and the order: balls, then v, then u
    field = F.make_field(d)
    rng = np.random.default_rng(100 + d)
    nb = 5
    centres = [rng.uniform(-6, 6, nb) + (1j * rng.uniform(-6, 6, nb) if deg == 2 else 0)
               for deg in field.place_degrees]
    radii = [rng.uniform(0.05, 5, nb) for _ in field.place_degrees]
    r = np.arange(-40, 41)
    u, v = (a.ravel() for a in np.meshgrid(r, r if field.d else np.zeros(1, dtype=int)))
    e = [[complex(x) for x in embed(field, b)] for b in ((1, 0), (0, 1))]
    want = set()
    for k in range(nb):
        gap = np.stack([np.abs(u * e[0][i] + v * e[1][i] - centres[i][k]) - radii[i][k]
                        for i in range(field.r)])
        assert not np.any(np.abs(gap) < 1e-9)  # nothing on a boundary
        want |= {(k, int(a), int(b)) for a, b in zip(u[(gap < 0).all(axis=0)],
                                                      v[(gap < 0).all(axis=0)])}
    k, bu, bv = F._ball_points(field, centres, radii)
    got = list(zip(k.tolist(), bu.tolist(), bv.tolist()))
    assert len(want) > 20
    assert set(got) == want and len(got) == len(want)
    assert got == sorted(got, key=lambda p: (p[0], p[2], p[1]))


@pytest.mark.parametrize("d", [0, 5, -1])
def test_pair_blocks_cross_block_boundaries(d, monkeypatch):
    field = F.make_field(d)
    inf = G.cusp_infinity(field)
    z = random_point(field, random.Random(10 + d))
    bound = 2e3
    params = E.EisensteinParams(s=1.3 + 0.5j, norm_bound=bound)
    pairs = enumerate_pairs(field, inf, z, bound)
    value = E.eisenstein_direct(field, inf, z, params)
    cu, cv, _, centres, radii = E._pair_geometry(field, z, bound * z.ny(field))
    vlo, vhi, _ = F._ball_ranges(field, centres, radii)
    for block in (13, 97):
        monkeypatch.setattr(F, "_PAIR_BLOCK", block)
        assert enumerate_pairs(field, inf, z, bound) == pairs
        got = E.eisenstein_direct(field, inf, z, params)
        assert abs(got - value) <= 1e-14 * abs(value)
        # a row (c_k, dv) whose points straddle two blocks comes as two
        # pieces, the second starting where the first ends (du by a step of
        # 2 on the last run, so the first q pieces of a block step by 1)
        blocks = list(E._pair_rows(field, cu, cv, centres, radii))
        assert all(n.size <= block and n.sum() <= block for _, _, _, n, _ in blocks)
        split = [(k0[-1], v0[-1], u0[-1] + n0[-1] * (1 if q0 == n0.size else 2))
                 == (k1[0], v1[0], u1[0])
                 for (k0, v0, u0, n0, q0), (k1, v1, u1, _, _) in zip(blocks, blocks[1:])]
        assert sum(split) >= 2
    # at block 13 the (c, dv) rows span several blocks; the du level does at both
    assert np.maximum(vhi - vlo + 1, 0).sum() > 2 * 13
    assert len(pairs) > 10 * 97


def _reference_V(field, z, c1, c2, d1, d2):
    """V and its per-place factors from each pair's embeddings."""
    ce, de = F._embed_coords(field, c1, c2), F._embed_coords(field, d1, d2)
    w = [c * x + dd for c, dd, (x, _) in zip(ce, de, z.coords)]
    Vp = [wi.real ** 2 + wi.imag ** 2 + (np.abs(c) * y) ** 2 if deg == 2
          else wi ** 2 + (np.abs(c) * y) ** 2
          for wi, c, (_, y), deg in zip(w, ce, z.coords, field.place_degrees)]
    return math.prod(v ** deg for v, deg in zip(Vp, field.place_degrees)), Vp


@pytest.mark.parametrize("block", [None, 13])
@pytest.mark.parametrize("d", [0, 5, -1, 2, 13, -3, -7])
def test_pair_blocks_match_point_reference(d, block, monkeypatch):
    # V from the row pieces bit for bit against V from each pair's
    # embeddings, block by block; and the pairs, in order, against the points
    # of the d balls kept by that reference V and the unit window, less those
    # with c and d both in 2o.  The stated stream order: three runs, each in
    # order of c, then dv, then du: the c outside 2o; the c in 2o with dv
    # odd; the c in 2o with dv even
    field = F.make_field(d)
    z = random_point(field, random.Random(70 + d))
    BV = (2e3 if block else 2e4) * z.ny(field)
    if block:
        monkeypatch.setattr(F, "_PAIR_BLOCK", block)
    got = []
    for V, cols in E._pair_blocks(field, z, BV):
        cols = cols()
        ref, _ = _reference_V(field, z, *cols)
        assert V.shape == ref.shape
        assert np.array_equal(V, ref)
        got.append(np.stack(cols, axis=1))
    got = np.concatenate(got)
    cu, cv, _, centres, radii = E._pair_geometry(field, z, BV)
    k, du, dv = F._ball_points(field, centres, radii)
    want = np.stack([cu[k], cv[k], du, dv], axis=1)
    V, Vp = _reference_V(field, z, *want.T)
    keep = V <= BV
    if field.r == 2:
        w = np.log(Vp[0] / Vp[1])
        keep &= (w >= -2 * field.regulator) & (w < 2 * field.regulator)
    c_even = (want[:, 0] % 2 == 0) & (want[:, 1] % 2 == 0)
    keep &= ~(c_even & (want[:, 2] % 2 == 0) & (want[:, 3] % 2 == 0))
    run = np.where(c_even, 2 - want[:, 3] % 2, 0)
    order = np.lexsort((want[:, 2], want[:, 3], k, run))
    want, keep, run = want[order], keep[order], run[order]
    assert got.shape[0] > 400
    assert np.count_nonzero(keep & (run == 2)) > 40
    assert np.array_equal(got, want[keep])


@pytest.mark.parametrize("d, point, bound, count", [
    (0, [(0.28, 1.3)], 2e6, 1909868),
    (5, [(0.21, 1.05), (-0.37, 0.93)], 2e5, 163493),
    (-1, [(0.21 + 0.13j, 0.95)], 2e5, 163776),
])
def test_direct_pair_counts_pinned(d, point, bound, count):
    # pair counts of these points, found by a per-c enumeration as well
    field = F.make_field(d)
    z = G.make_point(field, *point)
    parts = E.eisenstein_direct(field, G.cusp_infinity(field), z,
                                E.EisensteinParams(s=1.5, norm_bound=bound),
                                return_parts=True)
    assert parts[3] == count


_PINNED_POINTS = {0: [(0.31, 1.21)], 5: [(0.17, 1.08), (-0.29, 0.87)],
                  -1: [(0.23 - 0.19j, 1.12)], 2: [(-0.41, 0.94), (0.12, 1.17)],
                  13: [(0.36, 1.31), (-0.08, 0.79)], -3: [(-0.27 + 0.34j, 1.04)],
                  -7: [(0.44 + 0.11j, 0.91)]}
_PINNED_S = (1.5, 2.0, 1.3 + 0.5j, 1.5 + 9.5j)


_PINNED_VALUES = [
    (0, 19091, [("0x1.e894bd23ac453p+1", "0x0.0p+0"),
                ("0x1.7377c099dd40bp+1", "0x0.0p+0"),
                ("0x1.5d20d5924bfdep+1", "-0x1.6379b6c85b708p+0"),
                ("-0x1.27aa89c34da9cp+0", "0x1.5cf427065883bp+0")]),
    (5, 16287, [("0x1.8948e132382cbp+1", "0x0.0p+0"),
                ("0x1.1ad32a4f1264fp+1", "0x0.0p+0"),
                ("0x1.152ff46956a36p+1", "-0x1.4570825f1693bp+0"),
                ("0x1.98f780283f724p+0", "-0x1.9a20447b953c2p-1")]),
    (-1, 16383, [("0x1.9e1695285fbd7p+1", "0x0.0p+0"),
                 ("0x1.40e19c2172998p+1", "0x0.0p+0"),
                 ("0x1.21d366ad1abe7p+1", "-0x1.2aa5d7a3fa72dp+0"),
                 ("-0x1.b0bb097904b66p+0", "0x1.afe73a44388efp+0")]),
    (2, 15163, [("0x1.708e49a06ea33p+1", "0x0.0p+0"),
                ("0x1.1134758c73b6dp+1", "0x0.0p+0"),
                ("0x1.013758dee0076p+1", "-0x1.221d85d3265a9p+0"),
                ("-0x1.9a928c8c1b5b7p-3", "0x1.dca02ca144a9ap-1")]),
    (13, 13106, [("0x1.532862ad1310ap+1", "0x0.0p+0"),
                 ("0x1.09bb5bfba1cffp+1", "0x0.0p+0"),
                 ("0x1.dffb1636b5c8cp+0", "-0x1.ba4229ba47c5dp-1"),
                 ("0x1.74027477b46a0p+0", "-0x1.48fcd611ffa0fp-2")]),
    (-3, 17084, [("0x1.9ad0a679afc9cp+1", "0x0.0p+0"),
                 ("0x1.25c3f166be18fp+1", "0x0.0p+0"),
                 ("0x1.231111dfe870dp+1", "-0x1.56c1bff7bc25ep+0"),
                 ("0x1.6acff4f196064p-1", "0x1.68d6e7ee82996p+0")]),
    (-7, 14850, [("0x1.58ef79fc68afbp+1", "0x0.0p+0"),
                 ("0x1.daec33d4a8416p+0", "0x0.0p+0"),
                 ("0x1.e435c25252bcdp+0", "-0x1.3233d7b0d4c36p+0"),
                 ("-0x1.709c11483eeb0p-1", "-0x1.2194e4791ecb3p-1")]),
]


@pytest.mark.parametrize("d, count, values", _PINNED_VALUES)
def test_direct_values_pinned(d, count, values):
    # values and pair counts of the per-point enumeration that preceded the
    # row-piece one, at bound 2e4 and s = 1.5, 2, 1.3+0.5i, 1.5+9.5i
    _check_direct_pins(d, count, values)


def _check_direct_pins(d, count, values):
    field = F.make_field(d)
    z = G.make_point(field, *_PINNED_POINTS[d])
    for s, (re_hex, im_hex) in zip(_PINNED_S, values):
        value, _, _, got = E.eisenstein_direct(
            field, G.cusp_infinity(field), z, E.EisensteinParams(s=s, norm_bound=2e4),
            return_parts=True)
        want = complex(float.fromhex(re_hex), float.fromhex(im_hex))
        assert got == count
        assert abs(value - want) <= 2e-15 * abs(want)


@pytest.mark.parametrize("block", [1 << 8, 1 << 14, 1 << 16])
def test_direct_route_block_size_invariant(block, monkeypatch):
    # _pair_blocks yields views of a workspace that the next block
    # overwrites: at every block size the pinned counts and values hold, and
    # the pair table equals that of one block of 2^20
    for d, count, values in _PINNED_VALUES:
        if d not in (0, 5, -1, -3, 13):
            continue
        field = F.make_field(d)
        z = G.make_point(field, *_PINNED_POINTS[d])
        BV = 2e4 * z.ny(field)
        monkeypatch.setattr(F, "_PAIR_BLOCK", 1 << 20)
        coords, V = _pair_table(field, z, BV)
        monkeypatch.setattr(F, "_PAIR_BLOCK", block)
        _check_direct_pins(d, count, values)
        got_coords, got_V = _pair_table(field, z, BV)
        assert np.array_equal(got_coords, coords) and np.array_equal(got_V, V)
        assert V.size > 4 * (1 << 8)


@pytest.mark.parametrize("s", [1.5, 1.3 + 0.5j])
def test_direct_route_memory_bounded_by_block(s):
    # the tracemalloc peak is the workspace of the block loop: 10x the bound
    # on Q adds only the enumerator's row arrays, of size sqrt(B)
    field = F.make_field(0)
    inf = G.cusp_infinity(field)
    z = G.make_point(field, (0.28, 1.3))
    E.eisenstein_direct(field, inf, z, E.EisensteinParams(s=s, norm_bound=2e6))  # caches
    peaks = []
    for bound in (2e5, 2e6):
        tracemalloc.start()
        try:
            E.eisenstein_direct(field, inf, z, E.EisensteinParams(s=s, norm_bound=bound))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0]
    assert max(peaks) < 3 * 2 ** 20


def test_direct_rejects_phase_beyond_exact_reduction(field_q):
    # |Im s| log(BV / N(y)) past 1e5: the phase table's reduction would no
    # longer be exact
    z = G.make_point(field_q, (0.28, 1.3))
    with pytest.raises(DomainError):
        E.eisenstein_direct(field_q, G.cusp_infinity(field_q), z,
                            E.EisensteinParams(s=1.5 + 2e4j, norm_bound=2e4))


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan, complex(1.5, math.nan),
                               complex(math.nan, 1.0), complex(1.5, math.inf)])
@pytest.mark.parametrize("bound", [None, 2e4])
def test_direct_and_fourier_reject_non_finite_s(field_q, s, bound):
    # they returned nan+nanj, or raised a bare ValueError or ZeroDivisionError
    inf = G.cusp_infinity(field_q)
    z = G.make_point(field_q, (0.28, 1.3))
    with pytest.raises(DomainError):
        E.eisenstein_direct(field_q, inf, z, E.EisensteinParams(s=s, norm_bound=bound))
    with pytest.raises(DomainError):
        E.eisenstein_fourier(field_q, z, s)


@pytest.mark.parametrize("d", [0, 5, -1, 2, 13, -3, -7])
def test_direct_count_matches_enumeration(d):
    # the Moebius table must reach floor(sqrt(B / N(y))): below N(y) = 1 the
    # pairs of smallest V sit past sqrt(B), where a table sized from B alone
    # lost pairs
    field = F.make_field(d)
    rng = random.Random(40 + d)
    inf = G.cusp_infinity(field)
    for ny in (0.3, 0.8, 1.9):
        z = G.make_point(field, *[
            (rng.uniform(-0.5, 0.5) if deg == 1
             else complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)), ny ** (1 / field.n))
            for deg in field.place_degrees])
        parts = E.eisenstein_direct(field, inf, z, E.EisensteinParams(s=1.5, norm_bound=400.0),
                                    return_parts=True)
        assert parts[3] == len(enumerate_pairs(field, inf, z, 400.0))


@pytest.mark.parametrize("d", [0, 5, -1, 2, 13, -3, -7])
def test_direct_sum_matches_coprime_fsum(d):
    # the Moebius-weighted sum over every pair against the coprime pairs of
    # _pair_table, added in ascending V by math.fsum, with the tail fitted to
    # their outer window; at BV = 1.5 the (0, 1) orbit lies in that window
    field = F.make_field(d)
    inf = G.cusp_infinity(field)
    z = random_point(field, random.Random(60 + d))
    ny = z.ny(field)
    for BV in (2e4 * ny, 1.5):
        _, V = _pair_table(field, z, BV)
        V = np.sort(V)
        A = np.count_nonzero(V > BV / 2) / (BV / 2)
        for s in (2.0, 1.3 + 0.5j):
            value, _, _, count = E.eisenstein_direct(
                field, inf, z, E.EisensteinParams(s=s, norm_bound=BV / ny), return_parts=True)
            terms = np.exp(s * (math.log(ny) - np.log(V)))
            tail = A * ny ** s * BV ** (1 - s) / (s - 1)
            ref = complex(math.fsum(terms.real), math.fsum(terms.imag)) + tail
            assert count == V.size
            assert abs(value - ref) <= 1e-14 * abs(ref)


@given(d=st.sampled_from((0,) + F.REAL_H1 + F.IMAG_H1), seed=st.integers(0, 10 ** 6),
       bound=st.floats(20.0, 400.0))
@settings(max_examples=60, deadline=None)
def test_direct_sum_skips_the_pairs_in_two_o(d, seed, bound):
    # no yielded pair lies in 2(o x o); the count is the coprime count, and
    # the value is the coprime sum added by math.fsum, with the same tail
    field = F.make_field(d)
    inf = G.cusp_infinity(field)
    z = random_point(field, random.Random(seed))
    ny = z.ny(field)
    BV = bound * ny
    for _, cols in E._pair_blocks(field, z, BV):
        c1, c2, d1, d2 = cols()
        assert not np.any((c1 % 2 == 0) & (c2 % 2 == 0) & (d1 % 2 == 0) & (d2 % 2 == 0))
    _, V = _pair_table(field, z, BV)
    V = np.sort(V)
    A = np.count_nonzero(V > BV / 2) / (BV / 2)
    s = 1.3 + 0.5j
    if not A:  # no pair in the outer window to fit the tail
        with pytest.raises(DomainError):
            E.eisenstein_direct(field, inf, z, E.EisensteinParams(s=s, norm_bound=bound))
        return
    value, _, _, count = E.eisenstein_direct(field, inf, z, E.EisensteinParams(s=s, norm_bound=bound),
                                             return_parts=True)
    terms = np.exp(s * (math.log(ny) - np.log(V)))
    ref = complex(math.fsum(terms.real), math.fsum(terms.imag)) + A * ny ** s * BV ** (1 - s) / (s - 1)
    assert count == V.size == len(enumerate_pairs(field, inf, z, bound))
    assert abs(value - ref) <= 1e-14 * abs(ref)


def _check_against_weighed_sum(field, z, s, bound):
    """eisenstein_direct's partial sum, count and tail against the oracle
    that weighs every pair; returns the count."""
    inf, s = G.cusp_infinity(field), complex(s)
    params = E.EisensteinParams(s=s, norm_bound=bound)
    want, count, inner = weighed_pair_sum(field, z, s, bound)
    if count == inner:  # no pair in the outer window to fit the tail
        with pytest.raises(DomainError):
            E.eisenstein_direct(field, inf, z, params)
        return count
    _, main, tail, got = E.eisenstein_direct(field, inf, z, params, return_parts=True)
    BV = bound * z.ny(field)
    assert got == count
    assert tail == (count - inner) / (BV / 2) * z.ny(field) ** s * BV ** (1 - s) / (s - 1)
    assert abs(main - want) <= 1e-15 * abs(want)
    return count


@pytest.mark.parametrize("d, point, bound, cut, count", [
    # V = c^2 + d^2 at z = i: 50 = BV / 9 (m0 = 3) and 225 = BV / 2
    (0, [(0.0, 1.0)], 450.0, 50.0, 436),
    # V = (|c|^2 + |d|^2)^2 at x = 0, y = 1: 9 = BV / 4 (m0 = 2)
    (-1, [(0j, 1.0)], 36.0, 9.0, 30),
    # V = (c^2 + d^2)(c'^2 + d'^2) at x = 0, y = 1: 9 = BV / 25 (m0 = 5)
    (5, [(0.0, 1.0), (0.0, 1.0)], 225.0, 9.0, 172),
])
def test_direct_weights_at_the_cut(d, point, bound, cut, count):
    # pairs exactly at BV / m0^2 and BV / 2 take the weights of the table;
    # the counts are the coprime ones.  (At B = 100 on Q(i) the route counts
    # 76 against 86 with every pair weighed too: the multiples of the pairs
    # at BV / 4 lie at BV, where the rounding of |c|^2 y^2 drops them.)
    field = F.make_field(d)
    z = G.make_point(field, *point)
    BV = bound * z.ny(field)
    V = np.concatenate([V.copy() for V, _ in E._pair_blocks(field, z, BV)])
    m0 = E._weight_one_end(F.sieved_mobius_sums(field, int(math.sqrt(bound)) + 1))
    assert BV / m0 ** 2 == cut and np.any(V == cut)
    assert d != 0 or np.any(V == BV / 2)
    for s in (1.5, 2.0, 1.3 + 0.5j, 1.5 + 9.5j):
        assert _check_against_weighed_sum(field, z, s, bound) == count
    assert count == len(enumerate_pairs(field, G.cusp_infinity(field), z, bound))


@pytest.mark.parametrize("d", [0, 5, -1])
def test_weights_just_above_the_cut_are_one(d):
    # at the next double above BV / m0^2 itself, floor(sqrt(BV / V)) is m0
    # for about 16% of random BV on Q and 80% on Q(sqrt 5)
    field = F.make_field(d)
    for BV in np.random.default_rng(30 + d).uniform(1.0, 1e7, 500):
        M1, W1, cut = E._weight_tables(field, BV, 1.0, 1.3 + 0.5j)
        j = int(np.sqrt(BV / np.nextafter(cut, math.inf)))
        assert M1[j] == 0 and W1[j] == 0


@given(d=st.sampled_from((0,) + F.REAL_H1 + F.IMAG_H1), seed=st.integers(0, 10 ** 6),
       log_bound=st.floats(math.log(20.0), math.log(2e4)),
       s=st.sampled_from((1.5, 2.0, 1.3 + 0.5j, 1.5 + 9.5j)))
@settings(max_examples=60, deadline=None)
@example(d=-7, seed=712, log_bound=3.0, s=1.5 + 9.5j)  # the terms cancel to 1/18 of their size
def test_direct_sum_matches_every_pair_weighed(d, seed, log_bound, s):
    # the pairs above BV / m0^2 take the weight 1 untabled; the counts are
    # those of weighing every pair, and the values agree to the rounding.
    # Bounds log-uniform: on Q(sqrt 19) a call at 2e4 runs through 1.4e8
    # candidates of the d boxes for 1.4e4 pairs, about 3 s
    bound = min(math.exp(log_bound), 2e4)
    field = F.make_field(d)
    _check_against_weighed_sum(field, random_point(field, random.Random(seed)), s, bound)


@pytest.mark.parametrize("d", (0,) + F.REAL_H1 + F.IMAG_H1)
def test_weight_one_end_is_the_first_sieved_moebius_value(d):
    # mu_S inverts the ideals that (2) does not divide, from the independent
    # ideal counts: a(n) less a(n / N(2))
    field = F.make_field(d)
    N, q = 200, 2 ** field.n
    a = [0] + ideal_count_coeffs(field, N)
    a_s = [0] + [a[n] - (a[n // q] if n % q == 0 else 0) for n in range(1, N + 1)]
    mu = [0, 1] + [0] * (N - 1)
    for n in range(2, N + 1):
        mu[n] = -sum(a_s[k] * mu[n // k] for k in range(2, n + 1) if n % k == 0)
    first = next(n for n in range(2, N + 1) if mu[n])
    table = F.sieved_mobius_sums(field, N)
    assert E._weight_one_end(table) == first
    assert E._weight_one_end(table[:first]) == first  # no nonzero entry past 1
    assert first == {0: 3, 5: 5, -1: 2}.get(d, first)


@pytest.mark.parametrize("ops", ["eisenstein-low-t/11", "eisenstein-high-t/11",
                                 "eisenstein-low-t/15", "eisenstein-high-t/15"])
def test_lattice_pairs_predicted(ops):
    # every direct-route call of the benchmark's eisenstein workloads
    root = str(pathlib.Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from perfbench.workloads import make_inputs
    workload, seed = ops.split("/")
    for op in make_inputs(workload, int(seed)):
        field = F.make_field(op["d"])
        z = G.make_point(field, *[(complex(*x) if isinstance(x, list) else x, y)
                                  for x, y in op["z"]])
        pairs = sum(V.size for V, _ in E._pair_blocks(field, z, op["bound"] * z.ny(field)))
        assert abs(E._lattice_pairs(field, op["bound"]) - pairs) <= 0.01 * pairs


def test_direct_route_refuses_a_bound_past_the_pair_budget(field_q):
    # about 1.2e12 pairs at bound 1e12: the sum ran on and on
    z = G.make_point(field_q, (0.1, 1.5))
    t0 = time.perf_counter()
    with pytest.raises(QuadratureBudgetExceeded, match="lattice pairs"):
        E.eisenstein_direct(field_q, G.cusp_infinity(field_q), z,
                            E.EisensteinParams(s=2, norm_bound=1e12))
    assert time.perf_counter() - t0 < 0.01


def test_direct_route_tests_no_coprimality(field_q5, monkeypatch):
    # every pair is summed once with Moebius weights; no gcd is taken
    inf = G.cusp_infinity(field_q5)
    z = G.make_point(field_q5, (0.21, 1.05), (-0.37, 0.93))
    params = E.EisensteinParams(s=1.3 + 0.5j, norm_bound=2e3)
    value = E.eisenstein_direct(field_q5, inf, z, params)

    def refuse(*args):
        raise AssertionError("coprimality tested")
    # eisenstein no longer imports the mask; the patch still guards one it might
    monkeypatch.setattr(E, "_coprime_mask", refuse, raising=False)
    monkeypatch.setattr(F, "_coprime_mask", refuse)
    monkeypatch.setattr(np, "gcd", refuse)
    assert E.eisenstein_direct(field_q5, inf, z, params) == value


@pytest.mark.parametrize("bound", [0.0, -1.0, math.inf, 1e-3])
def test_direct_rejects_bad_bound(field_q, bound):
    # 1e-3 leaves no pair in the outer window [B/2, B], so no tail slope
    inf = G.cusp_infinity(field_q)
    z = G.make_point(field_q, (0.28, 1.3))
    with pytest.raises(DomainError):
        E.eisenstein_direct(field_q, inf, z, E.EisensteinParams(s=1.5, norm_bound=bound))


@pytest.mark.parametrize("bound", [0.0, -1.0, math.inf])
def test_enumerate_pairs_rejects_bad_bound(field_q, bound):
    inf = G.cusp_infinity(field_q)
    z = G.make_point(field_q, (0.28, 1.3))
    with pytest.raises(DomainError):
        enumerate_pairs(field_q, inf, z, bound)


@pytest.mark.parametrize("d", [0, 5, -1])
def test_direct_route_rejects_finite_cusps(d):
    # the pair sum runs at the infinity cusp; a finite cusp used to return
    # the values at infinity unchanged
    field = F.make_field(d)
    z = G.make_point(field, *{0: [(0.28, 1.3)], 5: [(0.1, 1.1), (0.2, 1.4)],
                              -1: [(0.1 + 0.2j, 1.2)]}[d])
    params = E.EisensteinParams(s=1.5, norm_bound=60.0)
    for rho, sigma in ((0, 1), (1, 1), (1, 2)):
        cusp = make_cusp(field, rho, sigma)
        assert cusp.sigma != (0, 0)
        with pytest.raises(DomainError):
            E.eisenstein_direct(field, cusp, z, params)
        with pytest.raises(DomainError):
            enumerate_pairs(field, cusp, z, 4.0)
    inf = G.cusp_infinity(field)
    assert E.eisenstein_direct(field, inf, z, params) == E.eisenstein_direct(
        field, make_cusp(field, 1, 0), z, params)


def mpmath_eisenstein_oracle(z, s, terms=40):
    """The classical expansion for K = Q at complex s, with mpmath Bessel
    factors, zeta values and divisor sums at 30 digits."""
    x, y = z.coords[0]
    with mp.workdps(30):
        s = mp.mpc(s)
        xi = lambda w: mp.pi ** (-w / 2) * mp.gamma(w / 2) * mp.zeta(w)
        total = y ** s + xi(2 * s - 1) / xi(2 * s) * y ** (1 - s)
        for n in range(1, terms + 1):
            sigma = sum(mp.mpf(dv) ** (1 - 2 * s) for dv in divisors(n))
            total += 4 * mp.sqrt(y) / xi(2 * s) * n ** (s - 0.5) * sigma \
                * mp.besselk(s - 0.5, 2 * mp.pi * n * y) * mp.cos(2 * mp.pi * n * x)
        return complex(total)


_HIGH_T = (1.5 + 25j, 1.5 + 35j, 1.5 + 50j)


@pytest.mark.parametrize("s", _HIGH_T)
def test_dual_method_high_t(field_q, ctx_q, s):
    # the real-line Bessel rule with a fixed frequency cut gave 3.1e-5, 66
    # and 2.1e12 here
    inf = G.cusp_infinity(field_q)
    z = G.make_point(field_q, (0.28, 1.3))
    direct = E.eisenstein_direct(field_q, inf, z, E.EisensteinParams(s=s, norm_bound=2e6))
    fourier = E.eisenstein_fourier(field_q, z, s, ctx=ctx_q)
    assert abs(direct - fourier) <= 1e-6 * abs(fourier)


@pytest.mark.parametrize("s", _HIGH_T)
def test_fourier_matches_mpmath_oracle_high_t(field_q, ctx_q, s):
    # with the shifted contour but the cut fixed at 45 the error was 9.8e-5
    # at 1.5+35i and 0.47 at 1.5+50i
    z = G.make_point(field_q, (0.28, 1.3))
    got = E.eisenstein_fourier(field_q, z, s, ctx=ctx_q)
    expect = mpmath_eisenstein_oracle(z, s)
    assert abs(got - expect) <= 1e-9 * abs(expect)


def test_frequency_cut_grows_with_order(field_q, field_q5, field_qi):
    assert E._frequency_cut(field_q, 1.5) == E._BESSEL_DECAY_CUT
    assert E._frequency_cut(field_q, 1.5 - 20j) == E._BESSEL_DECAY_CUT + 20
    assert E._frequency_cut(field_q5, 2 + 10j) == E._BESSEL_DECAY_CUT + 20
    assert E._frequency_cut(field_qi, 2 + 10j) == E._BESSEL_DECAY_CUT + 20


def test_direct_requires_convergence(field_q):
    inf = G.cusp_infinity(field_q)
    z = G.make_point(field_q, (0.0, 1.0))
    with pytest.raises(NotConvergent):
        E.eisenstein_direct(field_q, inf, z, E.EisensteinParams(s=1.0))


def test_dual_method_quick(field_q, ctx_q):
    inf = G.cusp_infinity(field_q)
    z = G.make_point(field_q, (0.28, 1.3))
    for s in (1.5, 2.0):
        direct = E.eisenstein_direct(field_q, inf, z,
                                     E.EisensteinParams(s=s, norm_bound=2e6))
        fourier = E.eisenstein_fourier(field_q, z, s, ctx=ctx_q)
        assert abs(direct - fourier) <= 1e-6 * abs(fourier)


def test_fourier_matches_classical_oracle(field_q, ctx_q):
    z = G.make_point(field_q, (0.28, 1.3))
    for s in (1.5, 2.25):
        got = E.eisenstein_fourier(field_q, z, s, ctx=ctx_q)
        expect = classical_eisenstein_oracle(z, s)
        assert abs(got - expect) <= 1e-9 * abs(expect)


def test_automorphy_rational(field_q, ctx_q):
    rng = random.Random(7)
    s = 1.5
    z = G.make_point(field_q, (0.13, 1.21))
    base = E.eisenstein_fourier(field_q, z, s, ctx=ctx_q)
    checked = 0
    while checked < 20:
        g = random_group_element(field_q, rng, length=4)
        w = act(g, z, field_q)
        if w.coords[0][1] < 0.08:
            continue
        val = E.eisenstein_fourier(field_q, w, s, ctx=ctx_q)
        assert abs(val - base) <= 1e-8 * abs(base)
        checked += 1


@pytest.mark.parametrize("d", [5, -1])
def test_automorphy_quadratic(d):
    field = F.make_field(d)
    ctx = Z.make_context(field)
    rng = random.Random(d + 100)
    z = random_point(field, rng, 0.9, 1.4)
    s = 1.5
    base = E.eisenstein_fourier(field, z, s, ctx=ctx)
    checked = 0
    while checked < 5:
        g = random_group_element(field, rng, length=3)
        w = act(g, z, field)
        if min(c[1] for c in w.coords) < 0.15:
            continue
        val = E.eisenstein_fourier(field, w, s, ctx=ctx)
        assert abs(val - base) <= 1e-6 * abs(base)
        checked += 1


def test_monotone_domination(field_q, ctx_q):
    z = G.make_point(field_q, (0.28, 1.3))
    s = 1.3 + 0.5j
    lhs = abs(E.eisenstein_fourier(field_q, z, s, ctx=ctx_q))
    rhs = E.eisenstein_fourier(field_q, z, 1.3, ctx=ctx_q).real
    assert lhs <= rhs * (1 + 1e-12)


def test_continuation_at_three_quarters(field_q, ctx_q):
    # direct sum diverges at s = 0.75; the continuation still satisfies the
    # eigenvalue equation
    s = 0.75
    z = G.make_point(field_q, (0.1, 1.1))
    fun = lambda w: E.eisenstein_fourier(field_q, w, s, ctx=ctx_q)
    lhs = laplacian_fd(fun, z, field_q, 1e-3)
    rhs = s * (s - 1) * fun(z)
    assert abs(lhs - rhs) <= 1e-4 * abs(rhs)


@pytest.mark.parametrize("d", [0, 5, -1])
def test_eigenrelation_fourier(d):
    field = F.make_field(d)
    ctx = Z.make_context(field)
    rng = random.Random(d + 5)
    z = random_point(field, rng, 0.9, 1.3)
    s = 1.5
    fun = lambda w: E.eisenstein_fourier(field, w, s, ctx=ctx)
    lhs = laplacian_fd(fun, z, field, 1e-3)
    rhs = (field.r1 + 4 * field.r2) * s * (s - 1) * fun(z)
    assert abs(lhs - rhs) <= 1e-4 * abs(rhs)


def test_maass_selberg_symmetry(field_q, ctx_q):
    a = E.maass_selberg_closed_form(field_q, 1.5, 1.25, 3.0, ctx_q)
    b = E.maass_selberg_closed_form(field_q, 1.25, 1.5, 3.0, ctx_q)
    assert abs(a - b) <= 1e-12 * abs(a)


def test_maass_selberg_degenerate(field_q, ctx_q):
    with pytest.raises(DegenerateParameters):
        E.maass_selberg_closed_form(field_q, 1.5, 1.5, 3.0, ctx_q)
    with pytest.raises(DegenerateParameters):
        E.maass_selberg_closed_form(field_q, 0.6, 0.4, 3.0, ctx_q)


def test_maass_selberg_constant_rational(field_q):
    assert E.maass_selberg_constant(field_q) == 1.0


def test_volume_closed_forms(ctx_q, ctx_qi, field_q, field_qi):
    assert abs(E.orbifold_volume(field_q, ctx_q) - math.pi / 3) < 1e-12
    # 2^{-2} pi^{-2} 8 zeta_{Q(i)}(2), i.e. Humbert's value
    assert abs(E.orbifold_volume(field_qi, ctx_qi) - 0.3053218647257397) < 1e-12


def test_residue_rational(field_q, ctx_q):
    assert abs(E.residue_at_one(field_q, ctx_q) - 3 / math.pi) < 1e-12


@pytest.mark.parametrize("d", [0, 5, -1])
def test_residue_probe(d):
    field = F.make_field(d)
    ctx = Z.make_context(field)
    closed = E.residue_at_one(field, ctx)
    eps = 1e-4
    rng = random.Random(d)
    probes = []
    for _ in range(2):
        z = random_point(field, rng, 1.0, 1.5)
        probes.append((eps * E.eisenstein_fourier(field, z, 1 + eps, ctx=ctx)).real)
    for p in probes:
        assert abs(p - closed) <= 1e-3 * closed
    assert abs(probes[0] - probes[1]) <= 1e-3 * closed


@pytest.mark.parametrize("d", [0, 5, -1])
def test_residue_volume_consistency(d):
    # residue * vol(M) = omega^{-1} 2^{r1-r2} R sqrt(D)
    field = F.make_field(d)
    ctx = Z.make_context(field)
    lhs = E.residue_at_one(field, ctx) * E.orbifold_volume(field, ctx)
    rhs = G.unfold_constant(field)
    assert abs(lhs - rhs) <= 1e-10 * rhs


def test_completed_zero_mode_consistency(ctx_q):
    # zeta*(2s) (q^s + phi q^{1-s}) == zeta*(2s) q^s + zeta*(2s-1) q^{1-s}
    s, q = 1.3 + 0.4j, 1.7
    lhs = Z.completed_zeta(ctx_q, 2 * s) * (q ** s + Z.phi(ctx_q, s) * q ** (1 - s))
    rhs = Z.completed_zeta(ctx_q, 2 * s) * q ** s + Z.completed_zeta(ctx_q, 2 * s - 1) * q ** (1 - s)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_direct_tail_estimate_improves(field_q, ctx_q):
    inf = G.cusp_infinity(field_q)
    z = G.make_point(field_q, (0.28, 1.3))
    s = 1.5
    truth = E.eisenstein_fourier(field_q, z, s, ctx=ctx_q)
    errs = []
    for B in (1e4, 1e5, 1e6):
        val = E.eisenstein_direct(field_q, inf, z, E.EisensteinParams(s=s, norm_bound=B))
        errs.append(abs(val - truth))
    assert errs[2] < errs[0]
    assert errs[2] <= 1e-6 * abs(truth)


@pytest.mark.parametrize("y", [1e-300, 1e-10])
def test_direct_route_refuses_before_it_allocates(field_q, y):
    # at y = 1e-300 the Moebius table would have sqrt(B / N(y)) + 2 entries:
    # a bare OverflowError (cannot fit 'int' into an index-sized integer);
    # at y = 1e-10, 4.5e7 entries past the 2^21 budget of slice_candidates
    z = G.make_point(field_q, (0.1, y))
    t0 = time.perf_counter()
    with pytest.raises(QuadratureBudgetExceeded):
        E.eisenstein_direct(field_q, G.cusp_infinity(field_q), z, E.EisensteinParams(s=2))
    assert time.perf_counter() - t0 < 0.01


@pytest.mark.parametrize("d, point", [
    (0, [(0.3, 1e-300)]), (0, [(0.3, 1e-200)]), (0, [(0.3, 6e-6)]),
    (5, [(0.1, 1e-150), (0.2, 1e-150)]), (5, [(0.1, 1e-9), (0.2, 1e9)]),
    (-1, [(0.1 + 0.1j, 1e-100)])])
def test_fourier_refuses_a_frequency_box_past_the_budget(d, point):
    # at y = 1e-300 or 1e-200 on Q the radius 45 / (2 pi y) was inf or past
    # 2^63: astype(int64) warned, the table came out empty and the zero mode
    # alone was returned; the skewed Q(sqrt 5) point would build 1e10 rows
    field = F.make_field(d)
    z = G.make_point(field, *point)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (2.0, 1.5 + 9j):
            t0 = time.perf_counter()
            with pytest.raises(QuadratureBudgetExceeded):
                E.eisenstein_fourier(field, z, s)
            assert time.perf_counter() - t0 < 0.05


@pytest.mark.parametrize("y", [0.01, 0.001, 0.03])
def test_fourier_refuses_where_its_terms_cancel(field_q, y):
    # at s = 10 the zero mode phi q^(1-s) is 5.8e17 at y = 0.01 and the
    # Bessel tolerance then costs more than the value: the route returned
    # -2322304.0 where the direct route reads 1.908297113059037, 2.8e15
    # against 1e10 at y = 0.001, and was 6e-3 relative off at y = 0.03
    z = G.make_point(field_q, (0.1, y))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="cancel"):
            E.eisenstein_fourier(field_q, z, 10.0)


def test_fourier_refuses_divisor_sums_past_the_double_range(field_q):
    # N(a)^(1-2s) at s = 40 formed N(a)^79 and overflowed: a RuntimeWarning
    # from tau_divisor_sums, then a value from the inf
    z = G.make_point(field_q, (0.3, 1e-5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="double range"):
            E.eisenstein_fourier(field_q, z, 40.0)
        with pytest.raises(DomainError):
            E.tau_divisor_sums(field_q, [[10 ** 4, 0]], -79.0)
        assert np.isfinite(E.tau_divisor_sums(field_q, [[7000, 0]], -79.0)).all()


def test_direct_route_refuses_a_skewed_c_ball(field_q5):
    # N(y) = 1, so the Moebius table is small, but the c ball has radii
    # sqrt(B) / y_i: about 2e10 rows of v at (1e-9, 1e9), which the direct
    # route began to build
    z = G.make_point(field_q5, (0.1, 1e-9), (0.2, 1e9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t0 = time.perf_counter()
        with pytest.raises(QuadratureBudgetExceeded, match="c ball"):
            E.eisenstein_direct(field_q5, G.cusp_infinity(field_q5), z, E.EisensteinParams(s=2))
        assert time.perf_counter() - t0 < 0.01


@pytest.mark.parametrize("d, point, ss", [
    (0, [(0.3, 1e300)], (2.0, 3.0, 1.5 + 9j, 40.0)),
    (5, [(0.1, 1e150), (0.2, 1e150)], (2.0, 3.0, 1.5 + 9j, 40.0)),
    (0, [(0.3, 1e-300)], (3.0, 40.0)),
    (-1, [(0.1 + 0.1j, 1e300)], (2.0, 1.5 + 9j)),
    (-1, [(0.1 + 0.1j, 1e-300)], (2.0, 1.5 + 9j))])
def test_fourier_zero_mode_outside_the_double_range(d, point, ss):
    # a bare OverflowError at s = 2, 3 and 1.5+9i and NaN at s = 40 for
    # y = 1e300 on Q and 1e150 at both places of Q(sqrt 5); a bare
    # ZeroDivisionError at y = 1e-300 on Q, s = 3 and 40; at the complex
    # place of Q(i), N(y) = y^2 itself leaves the double range
    field = F.make_field(d)
    z = G.make_point(field, *point)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in ss:
            with pytest.raises(DomainError):
                E.eisenstein_fourier(field, z, s)

