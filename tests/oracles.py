"""Test-side reference routes: code that checks the library and that the
library itself never runs.

The exact cusp chain, in the integer ring coordinates (u, v) of
u + v omega that the library computes in: the Hermite reduction of an
ideal (`_hnf`, `ideal_hnf`, and the norm of a pair ideal,
`pair_ideal_norm`, which checks the coprimality mask), the Bezout solver
(`solve_bezout`), the canonical generator of an ideal from the ball
enumerator on its reduced basis (`ideal_gcd_generator`, which checks
`_canonical_c` and `_unit_balanced` as one rule per ideal), the canonical
pair of a cusp (`make_cusp`) and its associated matrix (`assoc_matrix`).
With them, the hand-written search for the elements of a given norm
(`elements_of_norm`), exact division (`exact_divide`), products (`mul`),
unit powers and inverses (`unit_power`, `unit_inverse`), and the values of
an element at the places by the formula of the field's constants
(`embed`).  The library sums at the cusp at infinity only, so nothing in it
needs the chain.

The box quadrature of the horoball route: psi(q / V) integrated over each
other cusp's shadow in the X box of the cross section, by a composite
Gauss-Legendre rule.  The library sums the same shadows in closed form over
the cusp classes (`equidist.cusp_section_average(method="horoball")`), with
the place density `geometry._PLACE_WEIGHTS`; this rule never reads that
density, so it checks that the density describes the X box.  At nodes = 20 it
is within 4.9e-4 of the class sum on nine fields, two bumps and 40 q in
[0.004, 0.3].

The ideal Dirichlet series of zeta_K with a partial-summation tail
(`dedekind_zeta_series`, over the ideal counts of `ideal_count_coeffs`):
the library continues zeta_K as zeta times L(chi_D) through the Hurwitz
zeta (`zeta.dedekind_zeta`), and this series is its independent check on
Re(s) > 1.

The PSL(2, o) action on H (`GroupElement`, `group_element`, `act`,
`eq_mod_sign`), cusp heights (`height`), the local coordinates (q, Y, X) of
a cusp (`local_coords`, `from_local_coords`), the stabilizer of a cusp
(`stabilizer_element`, with the X and unit matrices `x_basis_matrix` and
`unit_block_matrix` of Lemma 2) and the reduction of a point into the box of
the infinity cusp (`reduce_mod_stabilizer`), the product-metric distance
(`hyperbolic_distance`) and a finite-difference Laplace-Beltrami operator
(`laplacian_fd`).  The library evaluates E at the points it is given and
never moves them; these check that E is invariant under the group and an
eigenfunction of the Laplacian, that heights and distances are invariant,
and they make the reduced points on which the two routes to E are compared.

The coprime pairs of the direct route as an explicit list
(`enumerate_pairs`, from the pair table `_pair_table`), and the largest cusp
height at a point (`max_cusp_height`).  The list checks the direct route's
pair counts against brute force; the height gives the test function's value
at a point (`eval_test_function`), which checks the cusp-section averages
and the Gamma-invariance of the test functions.

The direct route's pair sum with every pair weighed (`weighed_pair_sum`):
each pair of `_pair_blocks` takes its Moebius weights at floor(sqrt(BV / V))
and floor(sqrt(BV / 2V)) from the tables, where the library weighs only the
pairs at or below BV / m0^2 and takes the weight 1 for the rest.  Each block
adds its terms, then its terms times W_s - 1, as the library does, so that
the two differ by the grouping of the second sum and not by the rounding of
a different split: where the terms cancel, that rounding alone passed 1e-15
of the value.

Zagier's unfolded form of the Mellin transform of the cusp-section
averages, M(f, s) = Psi1(s) + phi(s) Psi2(s) (`mellin_zero_mode`), valid
wherever phi is regular: the library integrates M by its definition
(`equidist.mellin_transform`, Re(s) > 1), and this closed form checks it.
On it, the vertical-line scan of the Mellin transform (`vertical_line_scan`,
with its wide bump `SCAN_BUMP`): |M_f(sigma + it)| sampled on t in
[1, t_max] and the envelope exponent of (r1 + 4 r2) |s (s - 1) M_f(s)|, the
growth bound of acceptance criterion 10.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from hilmod.domains import _half_widths, _reach, _y_rows, slice_candidates
from hilmod.eisenstein import _pair_blocks
from hilmod.equidist import TestFunction, profile_integral
from hilmod.errors import DomainError, PoleAtOne
from hilmod.fields import (FieldData, _ball_points, _canonical_c, _coord_conj, _coord_mul,
                           _coord_norm, _coprime_mask, _embed_coords, _places, _ragged_values,
                           _unit_balanced, kronecker, roots_of_unity, sieved_mobius_sums)
from hilmod.geometry import Cusp, Point, _geom_cache, cusp_infinity, slice_embeddings
from hilmod.quadrature import gl_panel_nodes
from hilmod.specfun import exp_real_times
from hilmod.zeta import ZetaContext, dirichlet_l, make_context, phi, riemann_zeta


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
    O_inv = np.linalg.inv(_geom_cache(field.d)[0])
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
    a = _ideal_counts(ctx.field, N)
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


def ideal_count_coeffs(field: FieldData, N: int) -> list[int]:
    """Number of integral ideals of each norm 1..N: 1 on Q, and
    a(n) = sum_{m | n} chi_D(m) on a quadratic field, as
    zeta_K = zeta L(chi_D).  No sieve: chi_D by `kronecker` mod |D|."""
    if field.n == 1:
        return [1] * N
    chi = np.array([kronecker(field.disc_signed, m) for m in range(field.D)])[
        np.arange(N + 1) % field.D]
    a = np.zeros(N + 1, dtype=np.int64)
    for m in np.flatnonzero(chi[1:]) + 1:
        a[m::m] += chi[m]
    return a[1:].tolist()


@lru_cache(maxsize=8)
def _ideal_counts(field: FieldData, N: int) -> np.ndarray:
    """`ideal_count_coeffs` as a read-only float array, cached: the series
    tests sum the same 2e5 counts at many s."""
    a = np.asarray(ideal_count_coeffs(field, N), dtype=float)
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# Exact arithmetic in ring coordinates, and the cusp chain
# ---------------------------------------------------------------------------

def mul(field: FieldData, x, *ys) -> tuple[int, int]:
    """The product x y1 y2 ... of elements of o given by ring coordinates."""
    for y in ys:
        x = _coord_mul(field, *x, *y)
    return x


def embed(field: FieldData, x) -> tuple:
    """x = (u, v) at the r infinite places (floats, then complexes), by the
    formula of the field's constants (`fields._places`)."""
    return tuple(w if deg == 2 else w.real
                 for w, deg in zip(_places(field, *x), field.place_degrees))


def _adjugate(field: FieldData, g) -> tuple[int, int]:
    """g' with g g' = N(g): sigma(g), and 1 on Q."""
    return _coord_conj(field, *g) if field.n == 2 else (1, 0)


def unit_inverse(field: FieldData, e) -> tuple[int, int]:
    """e^-1 = N(e) e' for a unit e (N(e) = +-1, e e' = N(e))."""
    n = _coord_norm(field, *e)
    return tuple(n * c for c in _adjugate(field, e))


def unit_power(field: FieldData, k: int) -> tuple[int, int]:
    """Exact k-th power of the fundamental unit."""
    eps = field.fundamental_unit
    return mul(field, (1, 0), *[eps if k >= 0 else unit_inverse(field, eps)] * abs(k))


def quotient(x, y, field: FieldData) -> tuple[int, int, int]:
    """x / y (y != 0) as (k1, k2, m) with m > 0 and gcd(k1, k2, m) = 1: its
    ring coordinates are k1 / m and k2 / m, so the triple names the element
    of K.  x / y = x y' / N(y), exact in integers."""
    n = _coord_norm(field, *y)
    k = mul(field, x, _adjugate(field, y))
    g = math.gcd(*k, n) * (1 if n > 0 else -1)
    return k[0] // g, k[1] // g, n // g


def exact_divide(x, g, field: FieldData):
    """x / g when g divides x in o, else None (and None for g = 0)."""
    if g == (0, 0):
        return None
    k1, k2, m = quotient(x, g, field)
    return (k1, k2) if m == 1 else None


def elements_of_norm(field: FieldData, n: int) -> list[tuple[int, int]]:
    """Elements of o with |N| = n, up to none of the unit action (raw list).

    Searches a balanced box in embedding space; complete because any element
    of norm n has a unit multiple with both embeddings below sqrt(n)*unit
    (real case) or lies in the obvious disc (imaginary case).
    """
    if n == 0:
        return [(0, 0)]
    if field.d == 0:
        return [(n, 0), (-n, 0)]
    out = []
    if field.d < 0:  # |u + v*omega|^2 = n
        (om,) = embed(field, (0, 1))
        vmax = int(math.sqrt(n) / abs(om.imag)) + 1
        for v in range(-vmax, vmax + 1):
            ur = math.sqrt(max(n - (v * om.imag) ** 2, 0.0))
            for u in range(math.floor(-ur - v * om.real - 1), math.ceil(ur - v * om.real + 1) + 1):
                if abs(_coord_norm(field, u, v)) == n:
                    out.append((u, v))
        return out
    # real quadratic: balanced box |x^(i)| <= sqrt(n)*eps1
    bound = math.sqrt(n) * math.exp(field.regulator) + 1e-9
    o1, o2 = embed(field, (0, 1))
    vmax = int((2 * bound) / abs(o1 - o2)) + 2
    for v in range(-vmax, vmax + 1):
        lo = math.floor(max(-bound - v * o1, -bound - v * o2) - 1)
        hi = math.ceil(min(bound - v * o1, bound - v * o2) + 1)
        for u in range(lo, hi + 1):
            if abs(_coord_norm(field, u, v)) == n and all(
                    abs(e) <= bound for e in embed(field, (u, v))):
                out.append((u, v))
    return out


def _ideal_rows(field: FieldData, *elements) -> list[tuple[int, ...]]:
    """Ring coordinates of x * b for each x and each integral basis element
    b: the rows of a Z-basis (with repeats) of the ideal <x, ...>."""
    basis = ((1, 0), (0, 1))[:field.n]
    return [_coord_mul(field, *x, *b)[:field.n] for x in elements for b in basis]


def _hnf(rows: list[tuple[int, ...]]):
    """Row Hermite normal form of an integer matrix of full column rank n,
    with its unimodular transform: returns (H, U) with U @ rows = H, H's
    first n rows upper triangular with a positive diagonal and the entries
    above each pivot in [0, pivot), and the other rows zero.  Exact in
    Python ints (Cohen, GTM 138, §2.4)."""
    H = [list(r) for r in rows]
    U = [[int(i == j) for j in range(len(H))] for i in range(len(H))]
    for c in range(len(H[0])):
        for i in range(c + 1, len(H)):
            a, b = H[c][c], H[i][c]
            if b == 0:
                continue
            g, x, y = _ext_gcd(a, b)  # x a + y b = g: [[x, y], [-b/g, a/g]] has det 1
            for M in (H, U):
                M[c], M[i] = ([x * p + y * q for p, q in zip(M[c], M[i])],
                              [a // g * q - b // g * p for p, q in zip(M[c], M[i])])
        if H[c][c] == 0:
            raise ValueError("rows do not have full column rank")
        if H[c][c] < 0:
            H[c], U[c] = [-v for v in H[c]], [-v for v in U[c]]
        for i in range(c):
            k = H[i][c] // H[c][c]
            H[i] = [p - k * q for p, q in zip(H[i], H[c])]
            U[i] = [p - k * q for p, q in zip(U[i], U[c])]
    return H, U


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def ideal_hnf(field: FieldData, *elements) -> list[list[int]]:
    """The Hermite basis of the ideal <x, ...>: one per ideal."""
    return _hnf(_ideal_rows(field, *elements))[0][:field.n]


def pair_ideal_norm(x, y, field: FieldData) -> int:
    """Norm of the integral ideal <x, y> (not both zero): the product of the
    Hermite diagonal."""
    if x == y == (0, 0):
        raise ValueError("<0, 0> is not an ideal")
    H = ideal_hnf(field, x, y)
    return math.prod(H[i][i] for i in range(field.n))


def solve_bezout(rho, sigma, field: FieldData):
    """xi, eta in o with rho*eta - sigma*xi = 1; requires <rho, sigma> = o.

    The transform row of the Hermite reduction that gives 1 is (eta, -xi) in
    ring coordinates.  Every other solution is (xi + k rho, eta + k sigma)
    with k in o; the one returned has the coordinates of eta / sigma in
    [-1/2, 1/2), so it is canonical and small."""
    H, U = _hnf(_ideal_rows(field, rho, sigma))
    n = field.n
    if math.prod(H[i][i] for i in range(n)) != 1:
        raise ValueError("pair not coprime")
    eta, xi = (tuple(U[0][:n]) + (0,) * (2 - n), tuple(-c for c in U[0][n:]) + (0,) * (2 - n))
    if sigma != (0, 0):
        *k, m = quotient(eta, sigma, field)
        k = tuple((2 * c + m) // (2 * m) for c in k)  # floor(c / m + 1/2)
        xi, eta = (tuple(a - b for a, b in zip(xi, mul(field, k, rho))),
                   tuple(a - b for a, b in zip(eta, mul(field, k, sigma))))
    return xi, eta


def _minkowski_form(field: FieldData, a, b) -> int:
    """sum_i deg_i Re(a_i conj(b_i)) = Tr(a conj(b)) for a, b in o given by
    ring coordinates, in integers: conj is sigma at a complex place and the
    identity at real places."""
    if field.r2:
        b = _coord_conj(field, *b)
    u, v = _coord_mul(field, *a, *b)
    return u + _coord_conj(field, u, v)[0]


def _reduced_basis(field: FieldData, H):
    """A Z-basis (b1, b2) of the ideal whose Hermite rows are H, as ring
    coordinates: on a quadratic field H Lagrange-Gauss reduced in the
    Minkowski form; on Q (N, 0) and an unused b2."""
    if field.n == 1:
        return (H[0][0], 0), (0, 1)
    b1, b2 = tuple(H[0]), tuple(H[1])
    while True:
        if _minkowski_form(field, b2, b2) < _minkowski_form(field, b1, b1):
            b1, b2 = b2, b1
        num, den = _minkowski_form(field, b1, b2), _minkowski_form(field, b1, b1)
        mu = (2 * num + den) // (2 * den)  # num / den rounded half up
        if mu == 0:
            return b1, b2
        b2 = (b2[0] - mu * b1[0], b2[1] - mu * b1[1])


def ideal_gcd_generator(x, y, field: FieldData) -> tuple[int, int]:
    """The generator of <x, y> (h = 1) that is torsion-canonical and
    unit-balanced (`_canonical_c`, `_unit_balanced`): one per ideal, the
    rule `domains.slice_candidates` applies to c.

    A generator g of <x, y> of norm N in that form has
    |g_i| <= N^(1/n) e^((r-1) R / 2) at every place, so it is a point of
    norm +-N in one ball of the ideal's lattice, enumerated by `_ball_points`
    in the basis of `_reduced_basis`.  The reduction keeps that ball to a
    few hundred points whatever N is; the Hermite basis (N, 0), (b, 1) of a
    principal (k) with k primitive spans about N^(3/2) rows.  The norm is
    tested in Python ints, so g is exact for every input."""
    if x == y == (0, 0):
        raise ValueError("gcd of zero pair")
    H, _ = _hnf(_ideal_rows(field, x, y))
    N = math.prod(H[i][i] for i in range(field.n))
    b1, b2 = _reduced_basis(field, H)
    e1 = _embed_coords(field, *b1)
    omega = [complex(b / a) for a, b in zip(e1, _embed_coords(field, *b2))]
    if (omega[0].imag if field.r2 else omega[0].real - omega[-1].real) < 0:
        b2, omega = (-b2[0], -b2[1]), [-o for o in omega]  # the orientation of `_ball_ranges`
    radius = N ** (1 / field.n) * math.exp((field.r - 1) * field.regulator / 2) * (1 + 1e-9)
    _, m, k = _ball_points(field, [np.zeros(1)] * field.r,
                           [np.full(1, radius / abs(a)) for a in e1], omega)
    pts = [(p * b1[0] + q * b2[0], p * b1[1] + q * b2[1]) for p, q in zip(m.tolist(), k.tolist())]
    pts = [g for g in pts if abs(_coord_norm(field, *g)) == N]
    cu, cv = (np.array([g[i] for g in pts], dtype=object) for i in (0, 1))
    hits = np.flatnonzero(_canonical_c(field, cu, cv) & _unit_balanced(field, cu, cv))
    if hits.size != 1:
        raise ValueError("%d canonical generators of norm %d found" % (hits.size, N))
    return int(cu[hits[0]]), int(cv[hits[0]])


def make_cusp(field: FieldData, rho, sigma) -> Cusp:
    """The cusp rho / sigma (rho, sigma in o, an int n standing for (n, 0))
    as its canonical coprime pair.  The pair is divided by the generator of
    <rho, sigma>, then multiplied by the unit w eps^k that makes sigma the
    generator of (sigma) of `ideal_gcd_generator`: torsion-canonical and
    unit-balanced, the rule `domains.slice_candidates` applies to c.  So
    every pair of one cusp gives the same (rho, sigma), exactly."""
    rho, sigma = ((x, 0) if isinstance(x, int) else tuple(x) for x in (rho, sigma))
    if rho == sigma == (0, 0):
        raise ValueError("(0, 0) does not define a cusp")
    g = ideal_gcd_generator(rho, sigma, field)
    rho, sigma = exact_divide(rho, g, field), exact_divide(sigma, g, field)
    if sigma == (0, 0):
        return cusp_infinity(field)
    c = ideal_gcd_generator(sigma, (0, 0), field)
    return Cusp(mul(field, rho, exact_divide(c, sigma, field)), c)


def assoc_matrix(cusp: Cusp, field: FieldData) -> "GroupElement":
    """The associated matrix A = [[rho, xi], [sigma, eta]] of the cusp, A
    infinity = rho / sigma, with (xi, eta) of `solve_bezout`; the identity
    at infinity."""
    if cusp.sigma == (0, 0):
        return identity_element(field)
    xi, eta = solve_bezout(cusp.rho, cusp.sigma, field)
    return GroupElement(field, cusp.rho, xi, cusp.sigma, eta)


# ---------------------------------------------------------------------------
# PSL(2, o) action, heights, local coordinates and stabilizers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    """Matrix [[a, b], [c, d]] over o of determinant exactly 1, entries in
    ring coordinates, identified with its negation."""

    field: FieldData
    a: tuple[int, int]
    b: tuple[int, int]
    c: tuple[int, int]
    d: tuple[int, int]

    def __post_init__(self):
        det = tuple(p - q for p, q in zip(mul(self.field, self.a, self.d),
                                          mul(self.field, self.b, self.c)))
        if det != (1, 0):
            raise ValueError("determinant must be exactly 1, got %r" % (det,))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        def dot(x, y, z, w):  # x y + z w
            return tuple(p + q for p, q in zip(mul(self.field, x, y), mul(self.field, z, w)))
        return GroupElement(self.field, dot(self.a, other.a, self.b, other.c),
                            dot(self.a, other.b, self.b, other.d),
                            dot(self.c, other.a, self.d, other.c),
                            dot(self.c, other.b, self.d, other.d))

    def inverse(self) -> "GroupElement":
        def neg(x):
            return tuple(-p for p in x)
        return GroupElement(self.field, self.d, neg(self.b), neg(self.c), self.a)


def identity_element(field: FieldData) -> GroupElement:
    return GroupElement(field, (1, 0), (0, 0), (0, 0), (1, 0))


def group_element(field: FieldData, a, b, c, d) -> GroupElement:
    """The matrix [[a, b], [c, d]], an int n standing for (n, 0)."""
    return GroupElement(field, *((x, 0) if isinstance(x, int) else tuple(x) for x in (a, b, c, d)))


def eq_mod_sign(g: GroupElement, h: GroupElement) -> bool:
    """g = +-h, entry by entry."""
    same = all(getattr(g, k) == getattr(h, k) for k in "abcd")
    neg = all(getattr(g, k) == tuple(-p for p in getattr(h, k)) for k in "abcd")
    return same or neg


def act(g: GroupElement, z: Point, field: FieldData) -> Point:
    """Isometric action, Moebius on half-planes and the quaternion formula
    (expanded into complex arithmetic) on half-spaces."""
    out = []
    mats = _embedded_matrix(g, field)
    for i, deg in enumerate(field.place_degrees):
        a, b, c, d = mats[i]
        x, y = z.coords[i]
        if deg == 1:
            w = complex(a * x + b, a * y) / complex(c * x + d, c * y)
            out.append((w.real, w.imag))
        else:
            num = c * x + d
            den = abs(num) ** 2 + abs(c) ** 2 * y * y
            xp = ((a * x + b) * num.conjugate() + a * c.conjugate() * y * y) / den
            out.append((xp, y / den))
    return Point(tuple(out))


def _embedded_matrix(g: GroupElement, field: FieldData):
    cols = [embed(field, getattr(g, k)) for k in "abcd"]
    return [tuple(cols[j][i] for j in range(4)) for i in range(field.r)]


def height(cusp: Cusp, z: Point, field: FieldData) -> float:
    """mu(lambda, z) = N(y) / |N(-sigma z + rho)|^2 (the normalised pair has
    <rho, sigma> = o, so N(a) = 1)."""
    re = embed(field, cusp.rho)
    se = embed(field, cusp.sigma)
    denom = 1.0
    for i, deg in enumerate(field.place_degrees):
        x, y = z.coords[i]
        if deg == 1:
            n = (re[i] - se[i] * x) ** 2 + (se[i] * y) ** 2
        else:
            n = abs(re[i] - se[i] * x) ** 2 + abs(se[i]) ** 2 * y * y
        denom *= n ** deg
    return z.ny(field) / denom


@dataclass(frozen=True)
class LocalCoords:
    q: float
    Y: tuple[float, ...]
    X: tuple[float, ...]   # real components: r1 entries then (Re, Im) pairs

    def in_box(self, tol: float = 1e-9) -> bool:
        vals = list(self.Y) + list(self.X)
        return all(-0.5 - tol <= v < 0.5 + tol for v in vals)


def x_basis_matrix(field: FieldData) -> np.ndarray:
    """Matrix O of the X linear system (columns indexed by the basis)."""
    return _geom_cache(field.d)[0].copy()


def unit_block_matrix(field: FieldData, eps) -> np.ndarray:
    """Block matrix E acting on the real components of x under x -> eps*x."""
    blocks = []
    for i, deg in enumerate(field.place_degrees):
        e = embed(field, eps)[i]
        if deg == 1:
            blocks.append(np.array([[float(e)]]))
        else:
            e = complex(e)
            blocks.append(np.array([[e.real, -e.imag], [e.imag, e.real]]))
    n = sum(b.shape[0] for b in blocks)
    E = np.zeros((n, n))
    ofs = 0
    for b in blocks:
        k = b.shape[0]
        E[ofs:ofs + k, ofs:ofs + k] = b
        ofs += k
    return E


def _x_components(z: Point, field: FieldData) -> np.ndarray:
    out = []
    for (x, y), deg in zip(z.coords, field.place_degrees):
        if deg == 1:
            out.append(float(x))
        else:
            out.append(complex(x).real)
            out.append(complex(x).imag)
    return np.array(out)


def local_coords(cusp: Cusp, z: Point, field: FieldData) -> LocalCoords:
    O, ulogs = _geom_cache(field.d)
    zs = act(assoc_matrix(cusp, field).inverse(), z, field)
    ny = zs.ny(field)
    r = field.r
    if r >= 2:
        # Y system: (r-1) x (r-1) matrix of log |eps_k^(i)|
        U_inv = np.linalg.inv(np.array([[ulogs[i]] for i in range(r - 1)]))
        rhs = np.array([
            0.5 * math.log(zs.coords[i][1] / ny ** (1.0 / field.n))
            for i in range(r - 1)
        ])
        Y = tuple(U_inv @ rhs)
    else:
        Y = ()
    X = tuple(np.linalg.inv(O) @ _x_components(zs, field))
    return LocalCoords(ny, Y, X)


def from_local_coords(cusp: Cusp, lc: LocalCoords, field: FieldData) -> Point:
    O, ulogs = _geom_cache(field.d)
    if lc.q <= 0:
        raise ValueError("q must be positive")
    ny = lc.q
    r = field.r
    ys = []
    for i in range(r):
        expo = 0.0
        if r >= 2:
            expo = 2.0 * lc.Y[0] * ulogs[i]
        ys.append(ny ** (1.0 / field.n) * math.exp(expo))
    xs = O @ np.array(lc.X)
    coords = []
    pos = 0
    for i, deg in enumerate(field.place_degrees):
        if deg == 1:
            coords.append((float(xs[pos]), ys[i]))
            pos += 1
        else:
            coords.append((complex(xs[pos], xs[pos + 1]), ys[i]))
            pos += 2
    zs = Point(tuple(coords))
    return act(assoc_matrix(cusp, field), zs, field)


def stabilizer_element(cusp: Cusp, unit_exps, root_of_unity_index: int,
                       translation, field: FieldData) -> GroupElement:
    """A [[eps, zeta/eps], [0, 1/eps]] A^{-1} for eps a unit and zeta in the
    translation module (o for a normalized cusp), both given by integer data:
    zeta = m_1 + m_2 omega."""
    ws = roots_of_unity(field)
    eps = ws[root_of_unity_index % len(ws)]
    for k in (unit_exps or ())[: field.r - 1]:
        eps = mul(field, eps, unit_power(field, k))
    zeta = (tuple(translation or ()) + (0, 0))[:field.n] + (0,) * (2 - field.n)
    inv = unit_inverse(field, eps)
    U = GroupElement(field, eps, mul(field, zeta, inv), (0, 0), inv)
    A = assoc_matrix(cusp, field)
    return A * U * A.inverse()


def reduce_mod_stabilizer(cusp: Cusp, z: Point, field: FieldData):
    """Translate z into the reduced box of the cusp, returning (point, gamma)."""
    gamma = identity_element(field)
    lc = local_coords(cusp, z, field)
    if field.r >= 2:
        k = -math.floor(lc.Y[0] + 0.5)
        if k:
            g = stabilizer_element(cusp, (k,), 0, None, field)
            z = act(g, z, field)
            gamma = g * gamma
            lc = local_coords(cusp, z, field)
    m = [-math.floor(v + 0.5) for v in lc.X]
    if any(m):
        g = stabilizer_element(cusp, None, 0, m, field)
        z = act(g, z, field)
        gamma = g * gamma
    return z, gamma


def hyperbolic_distance(z: Point, w: Point, field: FieldData) -> float:
    """Product-metric distance: sqrt of the sum of squared factor distances."""
    total = 0.0
    for i, deg in enumerate(field.place_degrees):
        x1, y1 = z.coords[i]
        x2, y2 = w.coords[i]
        dx2 = abs(complex(x1) - complex(x2)) ** 2
        ch = 1.0 + (dx2 + (y1 - y2) ** 2) / (2.0 * y1 * y2)
        total += math.acosh(ch) ** 2
    return math.sqrt(total)


def laplacian_fd(fun, z: Point, field: FieldData, h: float = 1e-3) -> complex:
    """Finite-difference Laplace-Beltrami operator at z.

    Half-plane places: y^2 (d2/dx2 + d2/dy2); half-space places:
    y^2 (d2/du2 + d2/dv2 + d2/dy2) - y d/dy.
    """
    f0 = fun(z)
    total = 0.0 + 0.0j

    def shifted(i, dx=0.0, dy=0.0):
        coords = list(z.coords)
        x, y = coords[i]
        coords[i] = (x + dx, y + dy)
        return Point(tuple(coords))

    for i, deg in enumerate(field.place_degrees):
        x, y = z.coords[i]
        if deg == 1:
            dxx = (fun(shifted(i, dx=h)) - 2 * f0 + fun(shifted(i, dx=-h))) / h ** 2
            dyy = (fun(shifted(i, dy=h)) - 2 * f0 + fun(shifted(i, dy=-h))) / h ** 2
            total += y * y * (dxx + dyy)
        else:
            duu = (fun(shifted(i, dx=h)) - 2 * f0 + fun(shifted(i, dx=-h))) / h ** 2
            dvv = (fun(shifted(i, dx=1j * h)) - 2 * f0 + fun(shifted(i, dx=-1j * h))) / h ** 2
            dyy = (fun(shifted(i, dy=h)) - 2 * f0 + fun(shifted(i, dy=-h))) / h ** 2
            dy1 = (fun(shifted(i, dy=h)) - fun(shifted(i, dy=-h))) / (2 * h)
            total += y * y * (duu + dvv + dyy) - y * dy1
    return total


# ---------------------------------------------------------------------------
# The pairs of the direct route as a list, and the largest cusp height
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticePair:
    """Unit-orbit representative of a coprime pair (c, d) with <c, d> = o,
    in ring coordinates."""

    c: tuple[int, int]
    d: tuple[int, int]


def _pair_table(field: FieldData, z: Point, BV: float):
    """The coprime pairs of _pair_blocks, and (0, 1) for the c = 0 orbit, in
    one (coords, V) table."""
    blocks = [(np.zeros((0, 4), dtype=np.int64), np.zeros(0))]
    if BV >= 1.0:
        blocks.append((np.array([[0, 0, 1, 0]]), np.ones(1)))
    for V, cols in _pair_blocks(field, z, BV):
        cols = cols()
        ok = _coprime_mask(field, *cols)
        blocks.append((np.stack(cols, axis=1)[ok], V[ok]))
    coords, V = zip(*blocks)
    return np.concatenate(coords), np.concatenate(V)


def enumerate_pairs(field: FieldData, cusp: Cusp, z: Point, bound: float):
    """Orbit representatives (c, d) with |N(c z + d)|^2 <= bound N(y), at infinity only."""
    if cusp.sigma != (0, 0):
        raise DomainError("pairs are enumerated at the infinity cusp only")
    if not 0 < bound < math.inf:
        raise DomainError("bound must be positive and finite, got %r" % (bound,))
    BV = bound * z.ny(field)
    coords, V = _pair_table(field, z, BV)
    order = np.lexsort((coords[:, 3], coords[:, 2], coords[:, 1], coords[:, 0], V))
    out = []
    for i in order:
        c1, c2, d1, d2 = (int(v) for v in coords[i])
        out.append(LatticePair((c1, c2), (d1, d2)))
    return out


def weighed_pair_sum(field: FieldData, z: Point, s: complex, bound: float):
    """The pair sum of `eisenstein_direct` at norm bound `bound`, with the
    weights W_s, M at floor(sqrt(BV / V)) and M at floor(sqrt(BV / 2V))
    gathered for every pair, block by block, each block's terms added and
    then their products with W_s - 1: (partial sum, pair count, pairs with
    V <= BV / 2), the counts the coprime ones."""
    ny = z.ny(field)
    BV = bound * ny
    m = int(math.sqrt(bound / ny)) + 2
    mu = sieved_mobius_sums(field, m - 1)
    M = np.cumsum(mu)
    s = complex(s)
    p = s if s.imag else s.real
    W1 = np.cumsum(mu * np.exp(-2 * p * np.log(np.maximum(np.arange(m), 1)))) - 1
    log_ny = math.log(ny)
    unit = BV >= 1.0
    parts, count, inner = [unit * np.exp(p * log_ny)], int(unit), int(BV >= 2.0)
    for V, _ in _pair_blocks(field, z, BV):
        j = np.sqrt(BV / V).astype(np.intp)
        count += int(M.take(j, mode="clip").sum())
        inner += int(M.take(np.sqrt(BV / V * 0.5).astype(np.intp), mode="clip").sum())
        L = log_ny - np.log(V)
        if isinstance(p, complex):
            terms = exp_real_times(p, L, np.empty(L.size, dtype=complex), np.empty((4, L.size)),
                                   np.empty(L.size, dtype=np.intp))
        else:
            terms = np.exp(L * p)
        parts += [np.sum(terms), np.sum(terms * W1.take(j, mode="clip"))]
    parts = np.array(parts, dtype=complex)
    return complex(math.fsum(parts.real), math.fsum(parts.imag)), count, inner


def max_cusp_height(field: FieldData, z: Point, floor: float = 0.2):
    """Largest cusp height at z and the minimising pair (c, d) arrays."""
    ny = z.ny(field)
    BV = ny / floor
    coords, V = _pair_table(field, z, BV)
    if V.size == 0:
        return ny, (0, 0, 1, 0)  # only infinity reachable
    j = int(np.argmin(V))
    best = ny / V[j]
    if best < ny:  # infinity dominates
        return ny, (0, 0, 1, 0)
    return best, tuple(int(v) for v in coords[j])


def eval_test_function(f: TestFunction, z: Point, field: FieldData) -> float:
    """f(z) = psi of the dominating cusp height (single-term sum)."""
    mu, _ = max_cusp_height(field, z, floor=min(0.5, f.t0 / 4))
    return float(f.profile(mu))


# ---------------------------------------------------------------------------
# The Mellin transform's zero mode and its vertical-line scan
# ---------------------------------------------------------------------------

def mellin_zero_mode(f: TestFunction, s: complex, ctx: ZetaContext) -> complex:
    """M(f, s) = Psi1(s) + phi(s) Psi2(s), with Psi1(s) = int psi(q) q^(s-2) dq
    and Psi2(s) = int psi(q) q^(-1-s) dq, wherever phi is regular."""
    s = complex(s)
    if s == 1.0:
        raise PoleAtOne("Mellin transform pole at s=1")
    psi1 = profile_integral(f, s - 2.0)
    psi2 = profile_integral(f, -1.0 - s)
    return psi1 + phi(ctx, s) * psi2


# Wide bump for the vertical-line scan: the growth lemma is asymptotic, and
# a broad smooth profile brings the Mellin decay inside the scanned window.
SCAN_BUMP = (2.0, 30.0, 13.0)


def vertical_line_scan(f: TestFunction, sigma: float, t_max: float,
                       field: FieldData, ctx: ZetaContext | None = None,
                       n_samples: int = 96, fit_from: float = 5.0):
    """Samples of |M_f(sigma + it)| on t in [1, t_max] plus the envelope
    exponent of (r1 + 4 r2)|s(s-1) M_f(s)| fitted on [fit_from, t_max]."""
    if not 0.5 < sigma < 1.0:
        raise ValueError("sigma must lie in (1/2, 1)")
    ctx = ctx or make_context(field)
    ts = np.geomspace(1.0, t_max, n_samples)
    samples = []
    for t in ts:
        s = complex(sigma, t)
        m = mellin_zero_mode(f, s, ctx)
        samples.append((float(t), abs(m)))
    pref = field.r1 + 4 * field.r2
    g = np.array([pref * abs(complex(sigma, t) * complex(sigma - 1, t)) * m
                  for t, m in samples])
    ts_arr = np.array([t for t, _ in samples])
    # envelope via binned maxima on the fitted window
    n_bins = 8
    edges = np.geomspace(fit_from, t_max, n_bins + 1)
    bt, bg = [], []
    for i in range(n_bins):
        sel = (ts_arr >= edges[i]) & (ts_arr <= edges[i + 1])
        if np.any(sel):
            bt.append(math.sqrt(edges[i] * edges[i + 1]))
            bg.append(float(g[sel].max()))
    lt = np.log(np.array(bt))
    lg = np.log(np.maximum(np.array(bg), 1e-300))
    A = np.stack([lt, np.ones(lt.size)], axis=1)
    coef, *_ = np.linalg.lstsq(A, lg, rcond=None)
    exponent = float(coef[0])
    return {"samples": samples, "envelope_exponent": exponent,
            "passes": exponent <= 0.1}
