"""The product space H = (H_2)^{r1} x (H_3)^{r2}, PSL(2,o) action, cusps,
heights, local coordinates, stabilizers, and induced measures."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SingularBasisMatrix
from .fields import (
    FieldData,
    FieldElement,
    embed,
    fe_one,
    fe_zero,
    ideal_gcd_generator,
    roots_of_unity,
    solve_bezout,
    unit_power,
)


@dataclass(frozen=True)
class Point:
    """Point of H as a tuple of (x_i, y_i); x real at half-plane places,
    complex at half-space places; every y_i > 0."""

    coords: tuple[tuple[float | complex, float], ...]

    def __post_init__(self):
        for x, y in self.coords:
            if not y > 0:
                raise ValueError("point has non-positive height component")

    @property
    def r(self) -> int:
        return len(self.coords)

    def ny(self, field: FieldData) -> float:
        out = 1.0
        for (x, y), deg in zip(self.coords, field.place_degrees):
            out *= y ** deg
        return out


def make_point(field: FieldData, *pairs) -> Point:
    if len(pairs) != field.r:
        raise ValueError("expected %d place coordinates" % field.r)
    coords = []
    for i, (x, y) in enumerate(pairs):
        if field.place_degrees[i] == 2:
            coords.append((complex(x), float(y)))
        else:
            coords.append((float(x), float(y)))
    return Point(tuple(coords))


@dataclass(frozen=True)
class GroupElement:
    """Unimodular matrix over the field, identified with its negation."""

    a: FieldElement
    b: FieldElement
    c: FieldElement
    d: FieldElement

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det.a != 1 or det.b != 0:
            raise ValueError("determinant must be exactly 1, got %r" % (det,))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(self.d, -self.b, -self.c, self.a)

    def eq_mod_sign(self, other: "GroupElement") -> bool:
        same = all(getattr(self, k) == getattr(other, k) for k in "abcd")
        neg = all(getattr(self, k) == -getattr(other, k) for k in "abcd")
        return same or neg


def identity_element(field: FieldData) -> GroupElement:
    one, zero = fe_one(field.d), fe_zero(field.d)
    return GroupElement(one, zero, zero, one)


def group_element(field: FieldData, a, b, c, d) -> GroupElement:
    conv = lambda v: v if isinstance(v, FieldElement) else field.element(v)
    return GroupElement(conv(a), conv(b), conv(c), conv(d))


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
    cols = [embed(getattr(g, k), field) for k in "abcd"]
    return [tuple(cols[j][i] for j in range(4)) for i in range(field.r)]


# ---------------------------------------------------------------------------
# Cusps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cusp:
    """Point of P(K) as a coprime-normalized pair (rho, sigma)."""

    rho: FieldElement
    sigma: FieldElement
    assoc_matrix: GroupElement

    def value(self):
        """rho/sigma as a field element, or None for infinity."""
        if self.sigma.is_zero():
            return None
        return self.rho / self.sigma

    def __eq__(self, other):
        if not isinstance(other, Cusp):
            return NotImplemented
        return self.rho == other.rho and self.sigma == other.sigma

    def __hash__(self):
        return hash((self.rho.a, self.rho.b, self.sigma.a, self.sigma.b))


def cusp_infinity(field: FieldData) -> Cusp:
    one, zero = fe_one(field.d), fe_zero(field.d)
    return Cusp(one, zero, identity_element(field))


def make_cusp(field: FieldData, rho, sigma) -> Cusp:
    """Normalize (rho, sigma) to its canonical coprime representative and
    attach an associated matrix A with first column (rho, sigma).  The pair
    is divided by the generator of <rho, sigma>, then multiplied by the unit
    w eps^k that makes sigma the generator of (sigma) of
    `fields.ideal_gcd_generator`: torsion-canonical and unit-balanced, the
    rule `domains.slice_candidates` applies to c.  So every pair of one cusp
    gives the same (rho, sigma), exactly."""
    conv = lambda v: v if isinstance(v, FieldElement) else field.element(v)
    rho, sigma = conv(rho), conv(sigma)
    if rho.is_zero() and sigma.is_zero():
        raise ValueError("(0, 0) does not define a cusp")
    g = ideal_gcd_generator(rho, sigma, field).inverse()
    rho, sigma = rho * g, sigma * g
    if sigma.is_zero():
        return cusp_infinity(field)
    c = ideal_gcd_generator(sigma, field.element(0), field)
    rho, sigma = rho * c / sigma, c
    xi, eta = solve_bezout(rho, sigma, field)
    A = GroupElement(rho, xi, sigma, eta)
    return Cusp(rho, sigma, A)


def height(cusp: Cusp, z: Point, field: FieldData) -> float:
    """mu(lambda, z) = N(y) / |N(-sigma z + rho)|^2 (the normalised pair has
    <rho, sigma> = o, so N(a) = 1)."""
    re = embed(cusp.rho, field)
    se = embed(cusp.sigma, field)
    denom = 1.0
    for i, deg in enumerate(field.place_degrees):
        x, y = z.coords[i]
        if deg == 1:
            n = (re[i] - se[i] * x) ** 2 + (se[i] * y) ** 2
        else:
            n = abs(re[i] - se[i] * x) ** 2 + abs(se[i]) ** 2 * y * y
        denom *= n ** deg
    return z.ny(field) / denom


# ---------------------------------------------------------------------------
# Local coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalCoords:
    q: float
    Y: tuple[float, ...]
    X: tuple[float, ...]   # real components: r1 entries then (Re, Im) pairs

    def in_box(self, tol: float = 1e-9) -> bool:
        vals = list(self.Y) + list(self.X)
        return all(-0.5 - tol <= v < 0.5 + tol for v in vals)


@lru_cache(maxsize=32)
def _geom_cache(d: int):
    from .fields import make_field
    field = make_field(d)
    # X system matrix O: rows are real components of the places, columns the
    # integral basis elements.
    rows = []
    for i, deg in enumerate(field.place_degrees):
        if deg == 1:
            rows.append([float(embed(al, field)[i]) for al in field.integral_basis])
        else:
            rows.append([complex(embed(al, field)[i]).real for al in field.integral_basis])
            rows.append([complex(embed(al, field)[i]).imag for al in field.integral_basis])
    O = np.array(rows, dtype=float)
    if abs(np.linalg.det(O)) < 1e-12:
        raise SingularBasisMatrix("integral basis embedding matrix is singular")
    O_inv = np.linalg.inv(O)
    # Y system: (r-1) x (r-1) matrix of log |eps_k^(i)|
    r = field.r
    if r >= 2:
        eps = field.fundamental_unit
        col = [math.log(abs(complex(e))) for e in embed(eps, field)]
        U = np.array([[col[i]] for i in range(r - 1)], dtype=float)
        U_inv = np.linalg.inv(U)
        ulogs = np.array(col, dtype=float)
    else:
        U = np.zeros((0, 0))
        U_inv = U
        ulogs = np.zeros(0)
    return O, O_inv, U, U_inv, ulogs


def x_basis_matrix(field: FieldData) -> np.ndarray:
    """Matrix O of the X linear system (columns indexed by the basis)."""
    return _geom_cache(field.d)[0].copy()


def unit_block_matrix(field: FieldData, eps: FieldElement) -> np.ndarray:
    """Block matrix E acting on the real components of x under x -> eps*x."""
    blocks = []
    for i, deg in enumerate(field.place_degrees):
        e = embed(eps, field)[i]
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
    O, O_inv, U, U_inv, ulogs = _geom_cache(field.d)
    zs = act(cusp.assoc_matrix.inverse(), z, field)
    ny = zs.ny(field)
    r = field.r
    if r >= 2:
        rhs = np.array([
            0.5 * math.log(zs.coords[i][1] / ny ** (1.0 / field.n))
            for i in range(r - 1)
        ])
        Y = tuple(U_inv @ rhs)
    else:
        Y = ()
    X = tuple(O_inv @ _x_components(zs, field))
    return LocalCoords(ny, Y, X)


def from_local_coords(cusp: Cusp, lc: LocalCoords, field: FieldData) -> Point:
    O, O_inv, U, U_inv, ulogs = _geom_cache(field.d)
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
    return act(cusp.assoc_matrix, zs, field)


def stabilizer_element(cusp: Cusp, unit_exps, root_of_unity_index: int,
                       translation, field: FieldData) -> GroupElement:
    """A [[eps, zeta/eps], [0, 1/eps]] A^{-1} for eps a unit and zeta in the
    translation module (o for a normalized cusp), both given by integer data."""
    d = field.d
    ws = roots_of_unity(field)
    eps = ws[root_of_unity_index % len(ws)]
    for k in (unit_exps or ())[: field.r - 1]:
        eps = eps * unit_power(field, k)
    zeta = fe_zero(d)
    basis = field.integral_basis
    for m, al in zip(translation or (), basis):
        zeta = zeta + field.element(m) * al
    U = GroupElement(eps, zeta * eps.inverse(), fe_zero(d), eps.inverse())
    A = cusp.assoc_matrix
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


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

def horosphere_measure_density(field: FieldData, q: float) -> float:
    """Scalar density of the induced measure on B(q, lambda) against dX dY."""
    if q <= 0:
        raise ValueError("q must be positive")
    return (math.sqrt(field.r1 + 4 * field.r2) * 2.0 ** (field.r1 - field.r2 - 1)
            / q * math.sqrt(field.D) * field.regulator)


def haar_density(field: FieldData, q: float) -> float:
    """Scalar density of the Haar measure dv against dX dY dq."""
    if q <= 0:
        raise ValueError("q must be positive")
    return 2.0 ** (field.r1 - field.r2 - 1) / (q * q) * math.sqrt(field.D) * field.regulator


def horosphere_volume(field: FieldData, q: float) -> float:
    """Volume of the closed horosphere quotient at height q."""
    return (math.sqrt(field.r1 + 4 * field.r2) * 2.0 ** (field.r1 - field.r2)
            / (q * field.omega) * math.sqrt(field.D) * field.regulator)


def unfold_constant(field: FieldData) -> float:
    """omega^{-1} 2^{r1-r2} R sqrt(D): the cusp-unfolding measure constant."""
    return 2.0 ** (field.r1 - field.r2) * field.regulator * math.sqrt(field.D) / field.omega


def _agm(a, b):
    """Arithmetic-geometric mean in 6 steps: to rounding for b / a up to
    1e3, 4.5e-13 relative at 1e4."""
    for _ in range(6):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return a


# Per place-degree signature, the density w(x, t) at t = 1 + x^2 with
# vol{a in R^r1 x C^r2 : prod_i (1 + |a_i|^2)^deg_i < rho} = int_0^sqrt(rho-1) w dx,
# 2x times the density of that product: (t - 1)^-1/2 at one real place,
# pi / (2 sqrt t) at a complex place, pi / AGM(1, sqrt t) at two real places
# (to rounding up to t = 1e6).  The unfolded kernel and the shadow areas use it.
_PLACE_WEIGHTS = {
    (1,): lambda x, t: 2.0,
    (2,): lambda x, t: math.pi * x / np.sqrt(t),
    (1, 1): lambda x, t: 2.0 * math.pi * x / _agm(1.0, np.sqrt(t)),
}


def scan_sphere_of_influence(z: Point, candidate_cusps, field: FieldData) -> Cusp:
    """Argmax of the height over the candidates; ties keep the first."""
    if not candidate_cusps:
        raise ValueError("candidate list must be nonempty")
    best, best_mu = None, -1.0
    for c in candidate_cusps:
        mu = height(c, z, field)
        if mu > best_mu:
            best, best_mu = c, mu
    return best


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
# Vectorised slice embeddings (used by the measure quadratures)
# ---------------------------------------------------------------------------

def slice_embeddings(field: FieldData, q: float, X: np.ndarray, Y: np.ndarray | None):
    """Embedding coordinates of from_local_coords at the infinity cusp for
    arrays of box coordinates.

    X has shape (N, n); Y has shape (N, r-1) or is None when r = 1.
    Returns (xs, ys): lists over places; xs[i] is float or complex (N,),
    ys[i] is float (N,).
    """
    O, O_inv, U, U_inv, ulogs = _geom_cache(field.d)
    N = X.shape[0]
    ny = q  # N(a) = 1 at infinity
    ys = []
    for i in range(field.r):
        if field.r >= 2 and Y is not None:
            ys.append(ny ** (1.0 / field.n) * np.exp(2.0 * Y[:, 0] * ulogs[i]))
        else:
            ys.append(np.full(N, ny ** (1.0 / field.n)))
    xs_real = X @ O.T
    xs = []
    pos = 0
    for i, deg in enumerate(field.place_degrees):
        if deg == 1:
            xs.append(xs_real[:, pos])
            pos += 1
        else:
            xs.append(xs_real[:, pos] + 1j * xs_real[:, pos + 1])
            pos += 2
    return xs, ys
