"""The product space H = (H_2)^{r1} x (H_3)^{r2}, cusps with their
associated matrices, the cusp-unfolding measure constant and place
densities, and the embeddings of a cusp cross section's box coordinates."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, SingularBasisMatrix
from .fields import (
    FieldData,
    FieldElement,
    embed,
    fe_one,
    fe_zero,
    ideal_gcd_generator,
    make_field,
    solve_bezout,
)


@dataclass(frozen=True)
class Point:
    """Point of H as a tuple of (x_i, y_i); x real at half-plane places,
    complex at half-space places; every x_i finite and every y_i positive
    and finite, else DomainError."""

    coords: tuple[tuple[float | complex, float], ...]

    def __post_init__(self):
        for x, y in self.coords:
            if not (0 < y < math.inf and cmath.isfinite(x)):
                raise DomainError("point coordinate (%r, %r) is not finite with y > 0" % (x, y))

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
        raise DomainError("expected %d place coordinates" % field.r)
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


def identity_element(field: FieldData) -> GroupElement:
    one, zero = fe_one(field.d), fe_zero(field.d)
    return GroupElement(one, zero, zero, one)


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


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Vectorised slice embeddings (used by the measure quadratures)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _geom_cache(d: int):
    """The matrix O that maps the box coordinates X to the real components
    of x (rows: the places' components, columns: the integral basis), and
    log |eps^(i)| of the fundamental unit at each place (empty when r = 1)."""
    field = make_field(d)
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
    ulogs = np.zeros(0)
    if field.r >= 2:
        ulogs = np.array([math.log(abs(complex(e))) for e in embed(field.fundamental_unit, field)])
    return O, ulogs


def slice_embeddings(field: FieldData, q: float, X: np.ndarray, Y: np.ndarray | None):
    """Embedding coordinates at the infinity cusp of arrays of box
    coordinates on the cross section at height q: y_i = q^(1/n)
    exp(2 Y log |eps^(i)|) and x = O X.

    X has shape (N, n); Y has shape (N, r-1) or is None when r = 1.
    Returns (xs, ys): lists over places; xs[i] is float or complex (N,),
    ys[i] is float (N,).
    """
    O, ulogs = _geom_cache(field.d)
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
