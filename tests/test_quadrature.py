import numpy as np

from hilmod import quadrature as QD


def test_gl_panels_polynomial_exact():
    x, w = QD.gl_panel_nodes(-1.0, 2.0, 3, 8)
    got = float(np.sum(w * x ** 7))
    expect = (2.0 ** 8 - 1.0) / 8
    assert abs(got - expect) < 1e-12
