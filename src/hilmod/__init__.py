"""Numerical laboratory for Hilbert modular orbifolds of class-number-one
fields: Eisenstein series by two routes, the classical integral identities,
and cusp-section equidistribution experiments."""

from .fields import FieldData, make_field
from .geometry import Cusp, Point

__version__ = "0.1.0"

__all__ = [
    "FieldData", "make_field",
    "Cusp", "Point",
]
