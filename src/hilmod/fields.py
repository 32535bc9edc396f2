"""Integer ring arithmetic and the invariants of class-number-one fields.

Supported fields are the rationals (d = 0) and a fixed allow list of
quadratic fields Q(sqrt(d)) with class number one.  An element of o is the
pair of integer coordinates (u, v) of u + v*omega in the integral basis
{1, omega}, omega = (1 + sqrt d)/2 when d = 1 mod 4, else sqrt d (v = 0 on
Q), and all arithmetic on it is exact in Python or numpy integers.  The
values at the infinite places are the only lossy step.  Sums over the
ideals of each norm (the totient and Moebius tables) come from one Euler
product over prime ideals (`_euler_product`), read off the norms of the
primes above each p (`_prime_norms`), as does `ideal_factorization`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureBudgetExceeded, UnsupportedField

# Real quadratic d with h(Q(sqrt d)) = 1 kept small enough that the
# fundamental unit is tiny; imaginary list is the full Heegner set.
REAL_H1 = (2, 3, 5, 6, 7, 11, 13, 17, 19, 21, 29, 33, 37, 41)
IMAG_H1 = (-1, -2, -3, -7, -11, -19, -43, -67, -163)

_UNIT_CF_CAP = 10_000


@dataclass(frozen=True)
class FieldData:
    """Arithmetic invariants of a supported field.  The fundamental unit
    eps (None when r = 1) and the generator dg of the different are ring
    coordinates (u, v); omega (1 on Q), dg and eps are also kept as their
    values at the r places, from `_places`."""

    d: int
    r1: int
    r2: int
    n: int
    D: int                 # absolute discriminant
    disc_signed: int       # signed fundamental discriminant (1 for Q)
    h: int
    omega: int             # number of roots of unity
    fundamental_unit: tuple[int, int] | None
    regulator: float
    different_gen: tuple[int, int]
    omega_places: tuple[complex, ...]
    different_places: tuple[complex, ...]
    unit_places: tuple[complex, ...]  # empty when r = 1
    l1_estimate: float     # conservative horoball-separation constant

    @property
    def r(self) -> int:
        return self.r1 + self.r2

    @property
    def place_degrees(self) -> tuple[int, ...]:
        return (1,) * self.r1 + (2,) * self.r2


def _sqrt_d_coords(d: int, u: int, v: int) -> tuple[int, int]:
    """Twice the rational coordinates (a, b) of u + v omega = a + b sqrt d."""
    return (2 * u + v, v) if d % 4 == 1 else (2 * u, 2 * v)


def _places(field: FieldData, u: int, v: int) -> tuple[complex, ...]:
    """u + v omega at each place as a +- b sqrt|d| (the real places) or
    a + i b sqrt|d| (the complex place), with a and b its rational
    coordinates rounded to floats: the values of the field's constants.
    Lattice arrays take `_embed_coords`, u + v omega_i, which can differ
    from this in the last bit (on Q(sqrt 13), -1 + 2 omega_1 is not
    sqrt 13)."""
    A, B = _sqrt_d_coords(field.d, u, v)
    a, b, s = A / 2, B / 2, math.sqrt(abs(field.d))
    if field.r2:
        return (complex(a, b * s),)
    return (complex(a + b * s), complex(a - b * s))[:field.r1]


def _fundamental_unit_cf(field: FieldData) -> tuple[int, int]:
    """Fundamental unit of Q(sqrt d), d > 0, by the continued fraction of omega.

    Runs the exact surd recursion for omega = sqrt(d) (or (1+sqrt d)/2 when
    d = 1 mod 4) and returns the first convergent quotient p - q*conj(omega)
    of unit norm, (p - s q, q) in ring coordinates as conj(omega) = s - omega.
    Classical theory guarantees the first hit is fundamental, and it is > 1
    at the first place: p, q >= 1 and conj(omega) < 0.
    """
    d = field.d
    P, Q = (1, 2) if d % 4 == 1 else (0, 1)
    s = _omega_square_coords(field)[1]
    sqrt_d_floor = math.isqrt(d)
    a = (P + sqrt_d_floor) // Q
    p_prev, p_cur = 1, a
    q_prev, q_cur = 0, 1
    for _ in range(_UNIT_CF_CAP):
        u = (p_cur - s * q_cur, q_cur)
        if abs(_coord_norm(field, *u)) == 1:
            return u
        P = a * Q - P
        Q = (d - P * P) // Q
        a = (P + sqrt_d_floor) // Q
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    raise UnsupportedField("continued-fraction unit search exceeded %d steps for d=%d"
                           % (_UNIT_CF_CAP, d))


# Conservative horoball-separation constants l1 (largest second-highest cusp
# height observed on dense scans, with margin; the classical value for Q is
# exactly 1).  Test functions must have support above these so at most one
# group translate contributes.
_L1_ESTIMATES = {0: 1.0}
_L1_DEFAULT_QUAD = 1.25


@lru_cache(maxsize=None)  # immutable, at most 24 fields: one table per field and process
def make_field(d: int) -> FieldData:
    """Build the invariant table for Q (d = 0) or an allow-listed quadratic
    field; omega counts its `roots_of_unity`."""
    if d > 0 and d not in REAL_H1 or d < 0 and d not in IMAG_H1:
        raise UnsupportedField("%s quadratic d=%d is not in the h=1 allow list"
                               % ("real" if d > 0 else "imaginary", d))
    # D_signed (d when d = 1 mod 4, negative d included, else 4d; 1 on Q),
    # and sqrt(D_signed) generates the different: 1, sqrt d = 2 omega - 1, 2 sqrt d
    D_signed, different = ((1, (1, 0)) if d == 0 else (d, (-1, 2)) if d % 4 == 1
                           else (4 * d, (0, 2)))
    fd = FieldData(
        d=d, r1=1 if d == 0 else 2 * (d > 0), r2=int(d < 0), n=1 if d == 0 else 2,
        D=abs(D_signed), disc_signed=D_signed, h=1, omega=0, fundamental_unit=None,
        regulator=1.0, different_gen=different, omega_places=(), different_places=(),
        unit_places=(), l1_estimate=_L1_ESTIMATES.get(d, _L1_DEFAULT_QUAD),
    )
    omega = (1, 0) if d == 0 else (0, 1)  # 1 on Q, where every v is 0
    fd = dataclasses.replace(fd, omega_places=_places(fd, *omega),
                             different_places=_places(fd, *different))
    if d > 0:
        unit = _fundamental_unit_cf(fd)
        places = _places(fd, *unit)
        fd = dataclasses.replace(fd, fundamental_unit=unit, unit_places=places,
                                 regulator=math.log(places[0].real))
    return dataclasses.replace(fd, omega=len(roots_of_unity(fd)))


def roots_of_unity(field: FieldData) -> tuple[tuple[int, int], ...]:
    """All roots of unity in the field, in ring coordinates: the points of o
    of norm +-1 in the unit ball, as the powers 1, z, z^2, ... of the one of
    least positive argument z."""
    _, u, v = _ball_points(field, [np.zeros(1)] * field.r, [np.full(1, 1 + 1e-9)] * field.r)
    arg = np.mod(np.angle(_embed_coords(field, u, v)[0]), 2 * math.pi)
    j = np.flatnonzero((np.abs(_coord_norm(field, u, v)) == 1) & (arg > 0))
    z = tuple(int(c[j[np.argmin(arg[j])]]) for c in (u, v))
    out = [(1, 0)]
    while _coord_mul(field, *out[-1], *z) != out[0]:
        out.append(_coord_mul(field, *out[-1], *z))
    return tuple(out)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n)."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # factor out 2s from n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi main loop
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def ideal_totient_sums(field: FieldData, N: int) -> list[int]:
    """T(n) = sum over integral ideals of norm n of the ideal totient
    Phi(a) = N(a) prod_{p | a} (1 - 1/N(p)), for n = 1..N: the coefficients
    of zeta_K(s - 1) / zeta_K(s); Euler phi on Q."""
    return _euler_product(field, N, lambda q, a: q ** a - q ** (a - 1) if a else 1)[1:].tolist()


def sieved_mobius_sums(field: FieldData, N: int) -> np.ndarray:
    """mu_S(n) = sum_{k >= 0, N(2)^k | n} mu_K(n / N(2)^k) for n = 0..N
    (mu_S(0) = 0), where mu_K(n) sums the Moebius function over the integral
    ideals of norm n and N(2) = 2^[K:Q]: the coefficients of
    1 / (zeta_K(s) (1 - N(2)^-s)), which inverts the Dirichlet series of the
    ideals that (2) does not divide.  mu_K convolved with the powers of
    N(2), one slice addition per power."""
    mu = _euler_product(field, N, lambda q, a: (a == 0) - (a == 1))
    out, q = mu.copy(), 2 ** field.n
    while q <= N:
        out[q::q] += mu[1:N // q + 1]
        q *= 2 ** field.n
    return out


def _euler_product(field: FieldData, N: int, weight) -> np.ndarray:
    """Sum over the integral ideals of norm n, for n = 0..N (0 at n = 0), of
    a weight that is multiplicative over prime ideals: weight(N(P), a) at
    P^a, with weight(q, 0) = 1, as an int64 array.

    An Euler product in integer arrays.  At each prime p <= sqrt(N) the
    local series in x = p^-s is the product over the primes P above p
    (`_prime_norms`) of sum_a weight(N(P), a) x^(a f_P), f_P the residue
    degree; the multiples of p take its coefficient at their exponent of p.
    What is left of n is 1 or a prime r > sqrt(N), which only the primes of
    degree 1 above it reach: 1 + chi(r) of them on a quadratic field
    (chi(r) = (D | r) from r mod |D|), one on Q, each weighted
    weight(r, 1); weight must take r as an integer array there."""
    if N < 1:
        raise ValueError("N must be >= 1")
    out = np.ones(N + 1, dtype=np.int64)
    out[0] = 0
    rest = np.arange(N + 1)  # n less its primes <= sqrt(N) so far
    for p in range(2, math.isqrt(N) + 1):
        if rest[p] != p:  # p has a smaller prime factor
            continue
        powers = [1]
        while powers[-1] * p <= N:
            powers.append(powers[-1] * p)
        local = [1] + [0] * (len(powers) - 1)
        for q in _prime_norms(field, p):
            f = 1 if q == p else 2
            local = [sum(local[k - a * f] * weight(q, a) for a in range(k // f + 1))
                     for k in range(len(local))]
        e = np.ones(N // p, dtype=np.intp)  # the exponent of p in the multiples of p
        for pk in powers[2:]:
            e[pk // p - 1::pk // p] += 1
        out[p::p] *= np.array(local)[e]
        rest[p::p] //= np.array(powers)[e]
    chi = 0 if field.n == 1 else np.array(
        [kronecker(field.disc_signed, a) for a in range(field.D)])[rest % field.D]
    return np.where(rest > 1, out * (1 + chi) * weight(rest, 1), out)


def factor_int(n: int) -> list[tuple[int, int]]:
    """Trial-division factorisation of |n| as [(p, e), ...]."""
    n = abs(n)
    if n <= 1:
        return []
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


# ---------------------------------------------------------------------------
# Ring arithmetic in integral-basis coordinates.  Only this section knows
# omega^2 = t + s*omega (`_sqrt_d_coords` knows omega in terms of sqrt d).
# ---------------------------------------------------------------------------

def _omega_square_coords(field: FieldData) -> tuple[int, int]:
    """omega^2 = t + s*omega in the integral basis."""
    d = field.d
    if d % 4 == 1:
        return (d - 1) // 4, 1
    return d, 0


def _coord_mul(field: FieldData, a, b, c, d):
    """(a + b omega)(c + d omega) in ring coordinates, omega^2 = t + s omega."""
    t, s = _omega_square_coords(field)
    return a * c + t * b * d, a * d + b * c + s * b * d


def _coord_conj(field: FieldData, u, v):
    """sigma(u + v omega) = (u + s v) - v omega, as sigma(omega) = s - omega."""
    return u + _omega_square_coords(field)[1] * v, -v


def _coord_norm(field: FieldData, c1, c2):
    """N(c) = c sigma(c) of c = c1 + c2 omega from its integer coordinates
    (exact)."""
    return c1 if field.n == 1 else _coord_mul(field, c1, c2, *_coord_conj(field, c1, c2))[0]


def _coprime_mask(field: FieldData, c1, c2, d1, d2):
    """Vectorised test <c, d> = o via the gcd of the 2x2 minors."""
    if field.n == 1:
        return np.gcd(c1, d1) == 1
    t, s = _omega_square_coords(field)
    rows = [
        (c1, c2), (t * c2, c1 + s * c2),
        (d1, d2), (t * d2, d1 + s * d2),
    ]
    g = np.zeros(c1.shape, dtype=np.int64)
    for i in range(4):
        for j in range(i + 1, 4):
            m = rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0]
            g = np.gcd(g, np.abs(m))
    return g == 1


# ---------------------------------------------------------------------------
# Lattice points of o and of its ideals in balls.  One enumerator serves the
# pairs of the direct route, the Fourier frequencies, the cusp candidates,
# the roots of unity and the ideal generators.
# ---------------------------------------------------------------------------

_PAIR_BLOCK = 1 << 14  # values per block of the ragged streams of the direct route's pair sum

# Entries of the largest table one call builds: the predicted size of a
# ball (`_ball_size`: the d candidates of `domains.slice_candidates`, about
# 120 B each at the tracemalloc peak on Q(i), qT = 1e-6, so about 250 MiB;
# the Fourier frequency box; the c ball of the direct route) and the Moebius
# table of `eisenstein.eisenstein_direct`.  The callers stay 10 times below: 4e4 to
# 8.4e4 candidates at the smallest qT they reach (1e-5, the six fields of
# scripts/remark_identity_accuracy.py), at qT = 1e-4 at most 1.8e5 over the
# 24 supported fields (Q(sqrt 19)), and Moebius tables of at most about 1.5e3
# entries at the lowest heights of the benchmark.
_CANDIDATE_BUDGET = 1 << 21


def _ragged_blocks(lo: np.ndarray, hi: np.ndarray):
    """The integer ranges [lo_j, hi_j], laid end to end, in consecutive
    blocks of at most _PAIR_BLOCK values, as row pieces: per block the rows
    j it touches, the first value of each piece and its length.  A row
    longer than a block is split between blocks; empty rows are dropped.
    The blocks' first and last rows are found at once, so a block costs
    three slices and the trim of its two end pieces."""
    counts = hi - lo + 1
    rows = np.flatnonzero(counts > 0)
    counts, lo = counts[rows], lo[rows]
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    a = np.arange(0, total, _PAIR_BLOCK)
    b = np.minimum(a + _PAIR_BLOCK, total)
    # rows r0..r1-1 hold the values a..b-1: r0 the first ending past a, r1 - 1
    # the first ending at or past b
    r0, r1 = np.searchsorted(ends, a, side="right"), np.searchsorted(ends, b) + 1
    for a, b, r0, r1 in zip(a.tolist(), b.tolist(), r0.tolist(), r1.tolist()):
        v0, n = lo[r0:r1].copy(), counts[r0:r1].copy()
        head = a - int(ends[r0] - counts[r0])  # values of the first row in earlier blocks
        v0[0] += head
        n[0] -= head
        n[-1] -= int(ends[r1 - 1]) - b         # values of the last row in later blocks
        yield rows[r0:r1], v0, n


def _piece_values(v0: np.ndarray, n: np.ndarray) -> np.ndarray:
    """v0_j, v0_j + 1, ..., v0_j + n_j - 1 for each piece j, concatenated."""
    x = np.repeat(v0 - np.cumsum(n) + n, n)
    x += np.arange(x.size)
    return x


def _ragged_values(lo: np.ndarray, hi: np.ndarray):
    """The blocks of `_ragged_blocks` with their pieces expanded: per block
    the row and the value of every entry."""
    for j, v0, n in _ragged_blocks(lo, hi):
        yield np.repeat(j, n), _piece_values(v0, n)


def _embed_coords(field: FieldData, u, v):
    """u + v omega at each place, from integer coordinate arrays: real at
    degree-1 places, complex at the complex place."""
    return [u + v * (o if deg == 2 else o.real)
            for o, deg in zip(field.omega_places, field.place_degrees)]


def _ball_ranges(field: FieldData, centres, radii, omega=None):
    """The points x = u + v omega of the lattice Z + Z omega with
    |x^(i) - centres[i]| <= radii[i] at every place i, one ball per row of
    the centre and radius arrays, as chained ranges: per ball the range
    [vlo, vhi] of v, and u_range(k, v), the range [ulo, uhi] of u for the
    rows (ball k, v).

    omega is given by its embeddings, one per place; by default it is the
    ring generator, and the lattice is o.  A sublattice Z b1 + Z b2 is the
    change of variables x / b1 = u + v (b2 / b1): centres divided by b1,
    radii by |b1|, omega = b2 / b1.  v is 0 on Q; at two real places
    x^(1) - x^(2) = v (omega^(1) - omega^(2)) bounds it, at a complex place
    Im x = v Im omega does, so omega^(1) - omega^(2) > 0, or Im omega > 0.
    This is the only lattice code that knows the place structure."""
    omega = field.omega_places if omega is None else omega
    if field.r2:
        (m,), (w,), (o,) = centres, radii, omega
        vlo, vhi = np.ceil((m.imag - w) / o.imag), np.floor((m.imag + w) / o.imag)

        def u_range(k, v):
            h = np.sqrt(np.maximum(w[k] ** 2 - (v * o.imag - m.imag[k]) ** 2, 0.0))
            return np.ceil(m.real[k] - h - v * o.real), np.floor(m.real[k] + h - v * o.real)
    else:
        o = [oi.real for oi in omega]
        lo = [m - w for m, w in zip(centres, radii)]
        hi = [m + w for m, w in zip(centres, radii)]
        if field.n == 1:
            vlo = vhi = np.zeros(lo[0].shape)
        else:
            delta = o[0] - o[1]  # sqrt(D) > 0 for the ring generator
            vlo, vhi = np.ceil((lo[0] - hi[1]) / delta), np.floor((hi[0] - lo[1]) / delta)

        def u_range(k, v):
            return (np.maximum.reduce([np.ceil(a[k] - v * oi) for a, oi in zip(lo, o)]),
                    np.minimum.reduce([np.floor(b[k] - v * oi) for b, oi in zip(hi, o)]))
    return vlo.astype(np.int64), vhi.astype(np.int64), u_range


def _ball_points(field: FieldData, centres, radii, omega=None):
    """Every point of `_ball_ranges` in one (k, u, v) triple of int64
    arrays, in order of ball, then v, then u: the v ranges expanded into
    the rows (ball k, v), and the u range of each row into its points, all
    at once: the callers size the large balls by `_ball_size` first."""
    vlo, vhi, u_range = _ball_ranges(field, centres, radii, omega)
    nv = np.maximum(vhi - vlo + 1, 0)
    k, v = np.repeat(np.arange(nv.size), nv), _piece_values(vlo, nv)
    ulo, uhi = (a.astype(np.int64) for a in u_range(k, v))
    nu = np.maximum(uhi - ulo + 1, 0)
    return np.repeat(k, nu), _piece_values(ulo, nu), np.repeat(v, nu)


def _ball_size(field: FieldData, radii, what: str) -> float:
    """The predicted size of the balls of the given radii (one scalar or
    array per place) in `_ball_ranges`: their volume over covol(o) =
    sqrt(D) / 2^r2, or, at two real places, their rows of v,
    2 (R_1 + R_2) / sqrt(D), where these are more.  Raises
    QuadratureBudgetExceeded, naming `what`, above _CANDIDATE_BUDGET, so a
    caller refuses before it builds anything."""
    sqrt_d = math.sqrt(field.D)
    size = float(np.sum(math.prod(2 * R if deg == 1 else math.pi * R * R
                                  for R, deg in zip(radii, field.place_degrees)))) \
        * 2 ** field.r2 / sqrt_d
    if field.r == 2:
        size = max(size, 2 * float(np.sum(sum(radii))) / sqrt_d)
    if not size <= _CANDIDATE_BUDGET:
        raise QuadratureBudgetExceeded("about %.3g candidates in %s pass the budget of %d"
                                       % (size, what, _CANDIDATE_BUDGET))
    return size


def _canonical_c(field: FieldData, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """c = cu + cv omega != 0 in torsion-canonical form: its first nonzero
    coordinate is positive, or, when omega > 2, cu > 0 and cv >= 0.  Then
    omega is the root of unity of argument 2 pi / omega (i on Q(i), a sixth
    root on Q(sqrt -3)), so that is arg c in [0, 2 pi / omega), exactly."""
    if field.omega == 2:
        return np.where(cu != 0, cu, cv) > 0
    return (cu > 0) & (cv >= 0)


def _unit_balanced(field: FieldData, cu, cv) -> np.ndarray:
    """Whether c = cu + cv omega has log|c_1 / c_2| in [-R, R): one c in each
    orbit of the fundamental unit eps (eps_1 > 1 on every supported field);
    all c when r = 1.  The window's edges are decided in integers: c with
    |c_1 / c_2| = eps_1 is c = +-eps sigma(c), and is dropped; c with
    |c_1 / c_2| = 1 / eps_1 is eps c = +-sigma(c), and is kept.  Integer or
    object (Python int) coordinate arrays."""
    if field.r == 1:
        return np.ones(cu.shape, dtype=bool)
    c1, c2 = _embed_coords(field, cu, cv)
    t = np.log(np.abs(np.asarray(c1 / c2, dtype=float)))
    eu, ev = field.fundamental_unit
    su, sv = _coord_conj(field, cu, cv)

    def assoc(a, b, u, v):  # a + b omega = +-(u + v omega)
        return ((a == u) & (b == v)) | ((a == -u) & (b == -v))
    upper = assoc(*_coord_mul(field, eu, ev, su, sv), cu, cv)
    lower = assoc(*_coord_mul(field, eu, ev, cu, cv), su, sv)
    R = field.regulator
    return (((t >= -R) & (t < R)) & ~upper) | lower


# ---------------------------------------------------------------------------
# Prime splitting and divisor enumeration
# ---------------------------------------------------------------------------

def _prime_norms(field: FieldData, p: int) -> tuple[int, ...]:
    """The norms of the prime ideals above p: (p, p) when p splits, (p^2,)
    when it is inert, (p,) when it ramifies.  Q has no quadratic character
    (zeta_Q has no L-factor), so its primes take the ramified rule: one
    prime of norm p."""
    chi = kronecker(field.disc_signed, p) if field.n == 2 else 0
    return ((p,), (p, p), (p * p,))[chi]


def ideal_factorization(field: FieldData, u: int, v: int) -> list[tuple[int, int]]:
    """Factor the principal ideal (x), x = u + v omega, as
    [(prime-ideal norm, exponent), ...].

    The exponents come from integers alone: N = |N(x)| and the content
    g = gcd(u, v) of x = u + v omega.  An inert p has exponent v_p(N) / 2
    and a ramified p = P^2 has v_p(N).  For a split p = P P', p^v_p(g)
    divides x and what is left lies in at most one of P and P', so the
    exponents are v_p(g) and v_p(N) - v_p(g).
    """
    if u == 0 and v == 0:
        raise ValueError("cannot factor the zero ideal")
    g = math.gcd(u, v)
    out = []
    for p, e in factor_int(_coord_norm(field, u, v)):
        norms = _prime_norms(field, p)
        if len(norms) == 2:
            a = 0
            while g % p == 0:
                g, a = g // p, a + 1
            out += [(p, a), (p, e - a)]
        else:  # inert, ramified, or a prime of Q
            out.append((norms[0], e if norms[0] == p else e // 2))
    return [(q, e) for (q, e) in out if e > 0]


def ideal_divisor_norms(field: FieldData, u: int, v: int) -> list[int]:
    """Norms of all integral ideal divisors of (u + v omega), with multiplicity."""
    fact = ideal_factorization(field, u, v)
    norms = [1]
    for q, e in fact:
        norms = [m * q ** j for m in norms for j in range(e + 1)]
    return norms
