import random

import pytest

from hilmod import fields, geometry, zeta
from oracles import group_element, identity_element, unit_inverse


@pytest.fixture(scope="session")
def field_q():
    return fields.make_field(0)


@pytest.fixture(scope="session")
def field_q5():
    return fields.make_field(5)


@pytest.fixture(scope="session")
def field_qi():
    return fields.make_field(-1)


@pytest.fixture(scope="session")
def ctx_q(field_q):
    return zeta.make_context(field_q)


@pytest.fixture(scope="session")
def ctx_q5(field_q5):
    return zeta.make_context(field_q5)


@pytest.fixture(scope="session")
def ctx_qi(field_qi):
    return zeta.make_context(field_qi)


def random_group_element(field, rng, length=6):
    """Random word in translations, units, and the inversion."""
    S = group_element(field, 0, -1, 1, 0)
    gens = [S]
    for b in ((1, 0), (0, 1) if field.n == 2 else (1, 0)):  # 1 and omega (1 on Q)
        gens.append(group_element(field, 1, b, 0, 1))
    if field.d > 0:
        u = field.fundamental_unit
        gens.append(group_element(field, u, 0, 0, unit_inverse(field, u)))
    if field.omega > 2:
        w = fields.roots_of_unity(field)[1]
        gens.append(group_element(field, w, 0, 0, unit_inverse(field, w)))
    g = identity_element(field)
    for _ in range(length):
        h = rng.choice(gens)
        if rng.random() < 0.5:
            h = h.inverse()
        g = g * h
    return g


def random_point(field, rng, y_lo=0.7, y_hi=1.8):
    pairs = []
    for deg in field.place_degrees:
        y = rng.uniform(y_lo, y_hi)
        if deg == 1:
            pairs.append((rng.uniform(-0.5, 0.5), y))
        else:
            pairs.append((complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)), y))
    return geometry.make_point(field, *pairs)
