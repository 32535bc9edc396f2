import os
import pathlib
import subprocess
import sys

import numpy as np

from hilmod import quadrature as QD


def test_gl_panels_polynomial_exact():
    x, w = QD.gl_panel_nodes(-1.0, 2.0, 3, 8)
    got = float(np.sum(w * x ** 7))
    expect = (2.0 ** 8 - 1.0) / 8
    assert abs(got - expect) < 1e-12


def test_gl_nodes_bit_equal_to_leggauss():
    # the nodes are built without numpy.polynomial, by leggauss's own steps
    from numpy.polynomial.legendre import leggauss
    for n in range(1, 65):
        x, w = QD._gl_nodes(n)
        want_x, want_w = leggauss(n)
        assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes(), n


def test_gl_panel_nodes_leave_numpy_polynomial_unloaded():
    # importing numpy.polynomial took 4-5 ms in each fresh process
    code = ("import sys; from hilmod import quadrature; quadrature.gl_panel_nodes(0.0, 1.0, 3, 20); "
            "print('numpy.polynomial' in sys.modules)")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "False"
