"""Eisenstein series by lattice sum and by Fourier expansion, truncation,
and the Maass-Selberg / Rankin-Selberg / volume / residue identities.

The two evaluation routes share nothing past the field invariants: the
direct route enumerates coprime lattice pairs (with a calibrated continuum
tail), the Fourier route sums MacDonald-Bessel terms against ideal divisor
sums.  Their agreement is the package's main self-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParameters, NotConvergent
from .fields import FieldData, FieldElement, embed, ideal_divisor_norms
from .geometry import Cusp, Point, make_cusp
from .specfun import bessel_k_grid
from .zeta import ZetaContext, dedekind_zeta, make_context, phi, residue_phi

_BESSEL_DECAY_CUT = 45.0   # Fourier terms kept: total Bessel argument up to this
                           # plus the |Im| of the Bessel orders (_frequency_cut)


@dataclass(frozen=True)
class LatticePair:
    """Unit-orbit representative of a coprime pair (c, d) with <c, d> = o."""

    c: FieldElement
    d: FieldElement


@dataclass
class EisensteinParams:
    s: complex
    norm_bound: float | None = None
    fourier_terms: int | None = None
    truncation_T: float = 3.0
    target_tol: float = 1e-8


# ---------------------------------------------------------------------------
# Pair enumeration
# ---------------------------------------------------------------------------

def _pair_arrays_rational(field: FieldData, z: Point, BV: float):
    """Coprime pairs mod sign for Q with V = (cx+d)^2 + (cy)^2 <= BV."""
    x, y = z.coords[0]
    cs, ds = [], []
    if BV >= 1.0:
        cs.append(np.array([0])), ds.append(np.array([1]))
    cmax = int(math.floor(math.sqrt(BV) / y))
    for c in range(1, cmax + 1):
        w2 = BV - (c * y) ** 2
        if w2 < 0:
            continue
        w = math.sqrt(w2)
        dlo = int(math.ceil(-c * x - w))
        dhi = int(math.floor(-c * x + w))
        if dhi < dlo:
            continue
        d = np.arange(dlo, dhi + 1)
        keep = np.gcd(d, c) == 1
        d = d[keep]
        cs.append(np.full(d.shape, c))
        ds.append(d)
    if not cs:
        return np.zeros((0, 4), dtype=np.int64), np.zeros(0)
    c = np.concatenate(cs)
    d = np.concatenate(ds)
    V = (c * x + d) ** 2 + (c * y) ** 2
    coords = np.stack([c, np.zeros_like(c), d, np.zeros_like(d)], axis=1)
    return coords, V


def _ragged_ranges(lo: np.ndarray, hi: np.ndarray):
    """All integers in [lo_i, hi_i] per row, flattened, with row indices."""
    counts = np.maximum(hi - lo + 1, 0)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    rows = np.repeat(np.arange(lo.size), counts)
    offs = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return rows, lo[rows] + offs


def _omega_embeds(field: FieldData):
    om = field.ring_gen
    return [complex(v) for v in embed(om, field)]


def _c_candidates(field: FieldData, amax: list[float]):
    """Integer coords (c1, c2) with |c^{(i)}| <= amax[i] (quadratic fields)."""
    oe = _omega_embeds(field)
    o1, o2 = (oe[0], oe[1]) if field.d > 0 else (oe[0], None)
    if field.d > 0:
        delta = o1.real - o2.real
        v_lo = int(math.ceil((-amax[0] - amax[1]) / abs(delta)))
        v_hi = int(math.floor((amax[0] + amax[1]) / abs(delta)))
        v = np.arange(v_lo, v_hi + 1)
        lo = np.maximum(np.ceil(-amax[0] - v * o1.real), np.ceil(-amax[1] - v * o2.real))
        hi = np.minimum(np.floor(amax[0] - v * o1.real), np.floor(amax[1] - v * o2.real))
        rows, u = _ragged_ranges(lo.astype(np.int64), hi.astype(np.int64))
        return u, v[rows]
    # imaginary: disc of radius amax[0]
    rad = amax[0]
    vspan = int(math.floor(rad / abs(o1.imag))) + 1
    v = np.arange(-vspan, vspan + 1)
    w = np.sqrt(np.maximum(rad ** 2 - (v * o1.imag) ** 2, 0.0))
    lo = np.ceil(-w - v * o1.real).astype(np.int64)
    hi = np.floor(w - v * o1.real).astype(np.int64)
    rows, u = _ragged_ranges(lo, hi)
    return u, v[rows]


def _coprime_mask(field: FieldData, c1, c2, d1, d2):
    """Vectorised test <c, d> = o via the gcd of the 2x2 minors."""
    if field.d % 4 == 1:
        t, u = (field.d - 1) // 4, 1
    else:
        t, u = field.d, 0
    rows = [
        (c1, c2), (t * c2, c1 + u * c2),
        (d1, d2), (t * d2, d1 + u * d2),
    ]
    g = np.zeros(c1.shape, dtype=np.int64)
    for i in range(4):
        for j in range(i + 1, 4):
            m = rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0]
            g = np.gcd(g, np.abs(m))
    return g == 1


def _pair_arrays_quadratic(field: FieldData, z: Point, BV: float):
    """Coprime unit-orbit representatives with V = prod V_i^{N_i} <= BV.

    Real fields: one representative per orbit via the log-ratio window
    t = log(V1/V2) in [-2R, 2R) plus a sign normalisation.  Imaginary
    fields: one representative per W-orbit via an angular sector.
    """
    oe = _omega_embeds(field)
    o1 = oe[0]
    o2 = oe[1] if field.d > 0 else None
    blocks_coords, blocks_V = [], []
    if field.d > 0:
        (x1, y1), (x2, y2) = z.coords
        R = field.regulator
        M = math.sqrt(BV) * math.exp(R) * 1.0000001
        amax = [math.sqrt(M) / y1, math.sqrt(M) / y2]
        cu, cv = _c_candidates(field, amax)
        ce1 = cu + cv * o1.real
        ce2 = cu + cv * o2.real
        # c = 0 orbit: (0, 1)
        if BV >= 1.0:
            blocks_coords.append(np.array([[0, 0, 1, 0]], dtype=np.int64))
            blocks_V.append(np.array([1.0]))
        live = ~((cu == 0) & (cv == 0))
        cu, cv, ce1, ce2 = cu[live], cv[live], ce1[live], ce2[live]
        for k in range(cu.size):
            w1s = M - (ce1[k] * y1) ** 2
            w2s = M - (ce2[k] * y2) ** 2
            if w1s < 0 or w2s < 0:
                continue
            w1, w2 = math.sqrt(w1s), math.sqrt(w2s)
            lo1, hi1 = -ce1[k] * x1 - w1, -ce1[k] * x1 + w1
            lo2, hi2 = -ce2[k] * x2 - w2, -ce2[k] * x2 + w2
            delta = o1.real - o2.real
            vlo = int(math.ceil((lo1 - hi2) / delta)) if delta > 0 else int(math.ceil((lo2 - hi1) / -delta))
            vhi = int(math.floor((hi1 - lo2) / delta)) if delta > 0 else int(math.floor((hi2 - lo1) / -delta))
            dv = np.arange(vlo, vhi + 1)
            dlo = np.maximum(np.ceil(lo1 - dv * o1.real), np.ceil(lo2 - dv * o2.real)).astype(np.int64)
            dhi = np.minimum(np.floor(hi1 - dv * o1.real), np.floor(hi2 - dv * o2.real)).astype(np.int64)
            rows, du = _ragged_ranges(dlo, dhi)
            if du.size == 0:
                continue
            dvv = dv[rows]
            de1 = du + dvv * o1.real
            de2 = du + dvv * o2.real
            V1 = (ce1[k] * x1 + de1) ** 2 + (ce1[k] * y1) ** 2
            V2 = (ce2[k] * x2 + de2) ** 2 + (ce2[k] * y2) ** 2
            V = V1 * V2
            t = np.log(V1 / V2)
            keep = (V <= BV) & (t >= -2 * R) & (t < 2 * R)
            if not np.any(keep):
                continue
            du, dvv, V = du[keep], dvv[keep], V[keep]
            n = du.size
            coords = np.stack([np.full(n, cu[k]), np.full(n, cv[k]), du, dvv], axis=1)
            blocks_coords.append(coords)
            blocks_V.append(V)
    else:
        (x, y) = z.coords[0]
        sqBV = math.sqrt(BV)  # per-place bound: V1^2 <= BV
        amax = [math.sqrt(sqBV) / y]
        cu, cv = _c_candidates(field, amax)
        ce = cu + cv * np.complex128(o1)
        if BV >= 1.0:
            blocks_coords.append(np.array([[0, 0, 1, 0]], dtype=np.int64))
            blocks_V.append(np.array([1.0]))
        live = ~((cu == 0) & (cv == 0))
        cu, cv, ce = cu[live], cv[live], ce[live]
        for k in range(cu.size):
            r2 = sqBV - (abs(ce[k]) * y) ** 2
            if r2 < 0:
                continue
            center = -ce[k] * x
            rad = math.sqrt(r2)
            vspan_lo = int(math.ceil((center.imag - rad) / o1.imag))
            vspan_hi = int(math.floor((center.imag + rad) / o1.imag))
            dv = np.arange(vspan_lo, vspan_hi + 1)
            w = np.sqrt(np.maximum(rad ** 2 - (dv * o1.imag - center.imag) ** 2, 0.0))
            dlo = np.ceil(center.real - w - dv * o1.real).astype(np.int64)
            dhi = np.floor(center.real + w - dv * o1.real).astype(np.int64)
            rows, du = _ragged_ranges(dlo, dhi)
            if du.size == 0:
                continue
            dvv = dv[rows]
            de = du + dvv * np.complex128(o1)
            V1 = np.abs(ce[k] * x + de) ** 2 + (abs(ce[k]) * y) ** 2
            V = V1 ** 2
            keep = V <= BV
            if not np.any(keep):
                continue
            du, dvv, V = du[keep], dvv[keep], V[keep]
            n = du.size
            coords = np.stack([np.full(n, cu[k]), np.full(n, cv[k]), du, dvv], axis=1)
            blocks_coords.append(coords)
            blocks_V.append(V)
    if not blocks_coords:
        return np.zeros((0, 4), dtype=np.int64), np.zeros(0)
    coords = np.concatenate(blocks_coords).astype(np.int64)
    V = np.concatenate(blocks_V)
    # quotient by the torsion units (sign / angular sector on c, or d if c = 0)
    keep = _torsion_canonical_mask(field, coords)
    coords, V = coords[keep], V[keep]
    keep = _coprime_mask(field, coords[:, 0], coords[:, 1], coords[:, 2], coords[:, 3])
    return coords[keep], V[keep]


def _torsion_canonical_mask(field: FieldData, coords: np.ndarray) -> np.ndarray:
    o1 = _omega_embeds(field)[0]
    c1, c2, d1, d2 = coords.T
    if field.d > 0 or field.omega == 2:
        # sign by the first nonzero coordinate
        first = np.where((c1 != 0) | (c2 != 0),
                         np.where(c1 != 0, c1, c2),
                         np.where(d1 != 0, d1, d2))
        return first > 0
    # omega > 2: angular sector of width 2 pi / omega on the leading entry
    lead = np.where((c1 != 0) | (c2 != 0), c1 + c2 * complex(o1), d1 + d2 * complex(o1))
    theta = np.mod(np.angle(lead), 2 * math.pi)
    sector = 2 * math.pi / field.omega
    return theta < sector - 1e-14


def enumerate_pairs(field: FieldData, cusp: Cusp, z: Point, bound: float):
    """Orbit representatives (c, d) with |N(c z + d)|^2 <= bound N(y) N(a)^2."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    BV = bound * z.ny(field) * cusp.ideal.norm ** 2
    coords, V = _pair_arrays(field, z, BV)
    order = np.lexsort((coords[:, 3], coords[:, 2], coords[:, 1], coords[:, 0], V))
    out = []
    for i in order:
        c1, c2, d1, d2 = (int(v) for v in coords[i])
        out.append(LatticePair(field.from_ring_coords(c1, c2),
                               field.from_ring_coords(d1, d2)))
    return out


def _pair_arrays(field: FieldData, z: Point, BV: float):
    if field.d == 0:
        return _pair_arrays_rational(field, z, BV)
    return _pair_arrays_quadratic(field, z, BV)


def canonicalize_pair(field: FieldData, z: Point, c: FieldElement, d: FieldElement):
    """Exact unit-orbit canonical form of (c, d) at the point z: the
    fundamental-unit power lands the log-ratio of the place values in
    [-2R, 2R), then torsion is fixed by sign (or angular sector)."""
    if field.d > 0:
        from .fields import unit_power
        ce, de = embed(c, field), embed(d, field)
        (x1, y1), (x2, y2) = z.coords
        V1 = (ce[0] * x1 + de[0]) ** 2 + (ce[0] * y1) ** 2
        V2 = (ce[1] * x2 + de[1]) ** 2 + (ce[1] * y2) ** 2
        t = math.log(V1 / V2)
        k = -math.floor((t + 2 * field.regulator) / (4 * field.regulator))
        if k:
            u = unit_power(field, k)
            c, d = c * u, d * u
    if field.d < 0 and field.omega > 2:
        from .fields import roots_of_unity
        for w in roots_of_unity(field):
            cw, dw = c * w, d * w
            lead = cw if not cw.is_zero() else dw
            e = complex(embed(lead, field)[0])
            if math.atan2(e.imag, e.real) % (2 * math.pi) \
                    < 2 * math.pi / field.omega - 1e-14:
                return cw, dw
        return c, d
    lead = c if not c.is_zero() else d
    u, v = lead.ring_coords() if lead.is_integral() else (float(lead.a), float(lead.b))
    first = u if u != 0 else v
    if first < 0:
        return -c, -d
    return c, d


# ---------------------------------------------------------------------------
# Direct evaluation
# ---------------------------------------------------------------------------

def eisenstein_direct(field: FieldData, cusp: Cusp, z: Point,
                      params: EisensteinParams, return_parts: bool = False):
    """Lattice-sum Eisenstein value at Re(s) > 1 with a calibrated tail.

    Partial sum over enumerated orbit representatives plus the continuum
    tail A * N(y)^s * B^{1-s}/(s-1), where A is the empirical slope of the
    pair-counting function on the outer window [B/2, B].  The fluctuation
    of the counting function around its mean makes the residual error
    O(B^{1/3 - sigma}), documented in the tests that calibrate defaults.
    """
    s = complex(params.s)
    if s.real <= 1.0:
        raise NotConvergent("direct series requires Re(s) > 1")
    B = params.norm_bound or default_norm_bound(field, s, params.target_tol)
    ny = z.ny(field) * cusp.ideal.norm ** 2
    BV = B * ny
    coords, V = _pair_arrays(field, z, BV)
    order = np.argsort(V, kind="stable")
    V = V[order]
    main = complex(np.sum(np.exp(s * (math.log(ny) - np.log(V)))))
    inner = np.count_nonzero(V <= BV / 2)
    A = (V.size - inner) / (BV / 2)
    tail = A * ny ** s * BV ** (1 - s) / (s - 1)
    if return_parts:
        return main + tail, main, tail, V.size
    return main + tail


def default_norm_bound(field: FieldData, s: complex, tol: float) -> float:
    """Cutoff from the documented tail estimate c * B^{1/3 - sigma} <= tol."""
    sigma = complex(s).real
    c_fluct = 2.0
    B = (c_fluct / tol) ** (1.0 / (sigma - 1.0 / 3.0))
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
    a_i = (2 pi or 4 pi) y_i / |dg^(i)|, plus the per-frequency weights."""
    dg = embed(field.different_gen, field)
    if field.d == 0:
        a1 = 2 * math.pi * ys[0]
        nmax = int(math.floor(cut / a1))
        n = np.arange(-nmax, nmax + 1)
        n = n[n != 0]
        coords = np.stack([n, np.zeros_like(n)], axis=1)
        weight = a1 * np.abs(n)
        return coords, weight
    oe = _omega_embeds(field)
    o1 = oe[0]
    if field.d > 0:
        o2 = oe[1]
        a1 = 2 * math.pi * ys[0] / abs(complex(dg[0]))
        a2 = 2 * math.pi * ys[1] / abs(complex(dg[1]))
        amax = [cut / a1, cut / a2]
        u, v = _c_candidates(field, amax)
        e1 = u + v * o1.real
        e2 = u + v * o2.real
        weight = a1 * np.abs(e1) + a2 * np.abs(e2)
    else:
        a1 = 4 * math.pi * ys[0] / abs(complex(dg[0]))
        u, v = _c_candidates(field, [cut / a1])
        e1 = np.abs(u + v * np.complex128(o1))
        weight = a1 * e1
    keep = (weight <= cut) & ~((u == 0) & (v == 0))
    coords = np.stack([u[keep], v[keep]], axis=1)
    return coords, weight[keep]


_tau_cache: dict = {}


def _tau_for_nu(ctx: ZetaContext, nu: FieldElement, s_tau: complex) -> complex:
    norms = _divisor_norms_cached(ctx.field, nu)
    ntot = norms[-1]
    acc = 0.0 + 0.0j
    for m in norms:
        acc += m ** s_tau
    return ntot ** (-s_tau / 2.0) * acc


def _divisor_norms_cached(field: FieldData, nu: FieldElement):
    key = (field.d, nu.ring_coords())
    hit = _tau_cache.get(key)
    if hit is None:
        hit = tuple(sorted(ideal_divisor_norms(field, nu)))
        _tau_cache[key] = hit
    return hit


def eisenstein_fourier(field: FieldData, z: Point, s: complex,
                       fourier_terms: int | None = None,
                       ctx: ZetaContext | None = None) -> complex:
    """Fourier-expansion value at the infinity cusp (h = 1), valid wherever
    the scattering quotient is regular, including 1/2 < Re(s) <= 1."""
    s = complex(s)
    ctx = ctx or make_context(field)
    ys = [c[1] for c in z.coords]
    q = z.ny(field)
    zero_mode = q ** s + phi(ctx, s) * q ** (1 - s)
    coords, weight = _frequency_box(field, ys, _frequency_cut(field, s))
    if fourier_terms is not None and coords.shape[0] > fourier_terms:
        order = np.argsort(weight, kind="stable")[:fourier_terms]
        coords = coords[order]
    if coords.shape[0] == 0:
        return zero_mode
    tail = _fourier_tail(field, ctx, z, s, coords)
    zeta_star_2s = _completed(ctx, 2 * s)
    return zero_mode + 2 ** field.r * math.sqrt(q) / zeta_star_2s * tail


def _completed(ctx: ZetaContext, w: complex) -> complex:
    from .zeta import completed_zeta
    return completed_zeta(ctx, w)


def _fourier_tail(field: FieldData, ctx: ZetaContext, z: Point, s: complex,
                  coords: np.ndarray) -> complex:
    """sum over nu of tau_{1-2s}(l) K_{s-1/2}(y*, l) e^{2 pi i Tr(l x*)}."""
    xs = [c[0] for c in z.coords]
    ys = [c[1] for c in z.coords]
    dg = [complex(v) for v in embed(field.different_gen, field)]
    o_emb = _omega_embeds(field)
    n_freq = coords.shape[0]
    # frequency embeddings l^(i) = nu^(i) / dg^(i)
    if field.d == 0:
        l1 = coords[:, 0].astype(float)
        args = [2 * math.pi * ys[0] * np.abs(l1)]
        phases = l1 * xs[0]
        l_embs = [l1]
    elif field.d > 0:
        nu1 = coords[:, 0] + coords[:, 1] * o_emb[0].real
        nu2 = coords[:, 0] + coords[:, 1] * o_emb[1].real
        l1, l2 = nu1 / dg[0].real, nu2 / dg[1].real
        args = [2 * math.pi * ys[0] * np.abs(l1), 2 * math.pi * ys[1] * np.abs(l2)]
        phases = l1 * xs[0] + l2 * xs[1]
        l_embs = [l1, l2]
    else:
        nu = coords[:, 0] + coords[:, 1] * np.complex128(o_emb[0])
        l1 = nu / dg[0]
        args = [4 * math.pi * ys[0] * np.abs(l1)]
        phases = 2 * (l1 * complex(xs[0])).real
        l_embs = [l1]
    # Bessel factors per place
    K = np.ones(n_freq, dtype=complex)
    for i, deg in enumerate(field.place_degrees):
        K = K * bessel_k_grid(_bessel_order(s, deg), args[i])
    taus = np.empty(n_freq, dtype=complex)
    for j in range(n_freq):
        nu_el = field.from_ring_coords(int(coords[j, 0]), int(coords[j, 1]))
        taus[j] = _tau_for_nu(ctx, nu_el, 1 - 2 * s)
    terms = taus * K * np.exp(2j * math.pi * phases)
    order2 = np.lexsort((coords[:, 1], coords[:, 0]))
    return complex(np.sum(terms[order2]))


def max_cusp_height(field: FieldData, z: Point, floor: float = 0.2):
    """Largest cusp height at z and the minimising pair (c, d) arrays."""
    ny = z.ny(field)
    BV = ny / floor
    coords, V = _pair_arrays(field, z, BV)
    if V.size == 0:
        return ny, (0, 0, 1, 0)  # only infinity reachable
    j = int(np.argmin(V))
    best = ny / V[j]
    if best < ny:  # infinity dominates
        return ny, (0, 0, 1, 0)
    return best, tuple(int(v) for v in coords[j])


def eisenstein_truncated(field: FieldData, z: Point, params: EisensteinParams,
                         ctx: ZetaContext | None = None) -> complex:
    """E^T: subtracts the zero modes of the dominating cusp when its height
    exceeds T; computed as the bare frequency tail there (no cancellation)."""
    ctx = ctx or make_context(field)
    s = complex(params.s)
    T = params.truncation_T
    mu, pair = max_cusp_height(field, z, floor=min(0.2, 1.0 / (2 * T)))
    if mu <= T:
        return eisenstein_fourier(field, z, s, params.fourier_terms, ctx)
    c1, c2, d1, d2 = pair
    if (c1, c2) != (0, 0):
        # move the dominating cusp to infinity and evaluate there
        c = field.from_ring_coords(c1, c2)
        d = field.from_ring_coords(d1, d2)
        lam = make_cusp(field, d, -c)  # cusp -d/c as (rho : sigma) = (d : -c)
        from .geometry import act
        z = act(lam.assoc_matrix.inverse(), z, field)
    coords, weight = _frequency_box(field, [c[1] for c in z.coords],
                                    _frequency_cut(field, s))
    if coords.shape[0] == 0:
        return 0.0 + 0.0j
    q = z.ny(field)
    tail = _fourier_tail(field, ctx, z, s, coords)
    return 2 ** field.r * math.sqrt(q) / _completed(ctx, 2 * s) * tail


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def maass_selberg_closed_form(field: FieldData, s: complex, sp: complex,
                              T: float, ctx: ZetaContext | None = None) -> complex:
    """C[(T^{s+s'-1} - phi(s)phi(s')T^{1-s-s'})/(s+s'-1)]
       + C[(T^{s-s'}phi(s') - T^{s'-s}phi(s))/(s-s')],
       with C = 2^{r1-r2} sqrt(D) R h / omega."""
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
