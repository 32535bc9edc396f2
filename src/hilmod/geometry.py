"""The product space H = (H_2)^{r1} x (H_3)^{r2}, the cusp at infinity, the
cusp-unfolding measure constant and place densities, and the embeddings of
a cusp cross section's box coordinates."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .fields import FieldData, make_field


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

    def ny(self, field: FieldData) -> float:
        """N(y) = prod_i y_i^deg_i; DomainError where it leaves the double
        range (y = 1e-300 or 1e300 at a complex place)."""
        out = 1.0
        for (x, y), deg in zip(self.coords, field.place_degrees):
            try:
                out *= y ** deg
            except OverflowError:
                out = math.inf
        if not 0 < out < math.inf:
            raise DomainError("N(y) of %r is outside the double range" % (self.coords,))
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


# ---------------------------------------------------------------------------
# Cusps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cusp:
    """Point rho / sigma of P(K) as a coprime pair of ring coordinates
    (u, v); infinity is ((1, 0), (0, 0))."""

    rho: tuple[int, int]
    sigma: tuple[int, int]


def cusp_infinity(field: FieldData) -> Cusp:
    return Cusp((1, 0), (0, 0))


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
    of x (rows: the places' components, columns: the integral basis 1,
    omega), and log |eps^(i)| of the fundamental unit at each place (empty
    when r = 1)."""
    field = make_field(d)
    rows = []
    for o, deg in zip(field.omega_places, field.place_degrees):
        basis = [1.0, o][:field.n]
        rows += [[b.real for b in basis]] + ([[0.0, o.imag]] if deg == 2 else [])
    return np.array(rows, dtype=float), np.array([math.log(abs(e)) for e in field.unit_places])


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
