"""Composite Gauss-Legendre panel quadrature."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _legendre_sum(x: np.ndarray, c: list) -> np.ndarray:
    """sum_k c[k] P_k(x) by the Clenshaw recurrence, in the order of
    operations of numpy's legval."""
    if len(c) == 1:
        return c[0] + 0 * x
    nd, c0, c1 = len(c), c[-2], c[-1]
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=64)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n by the steps of numpy's
    leggauss, without importing numpy.polynomial (4-5 ms and nine modules
    in a fresh process): the eigenvalues of the symmetric companion matrix
    of P_n, one Newton step, the weights 1 / (P_{n-1} P_n') at the nodes,
    each factor scaled to a largest size of 1, then both symmetrised and
    the weights scaled to sum to 2.  Bit-identical to leggauss for
    n = 1..200 on numpy 2.4."""
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    mat = np.zeros((n, n))
    mat.reshape(-1)[1::n + 1] = mat.reshape(-1)[n::n + 1] = np.arange(1, n) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(mat)
    p_n = [0.0] * n + [1.0]
    dy = _legendre_sum(x, p_n)
    # P_n' = sum of (2k + 1) P_k over k = n - 1, n - 3, ...
    df = _legendre_sum(x, [(2.0 * k + 1) * ((n - 1 - k) % 2 == 0) for k in range(n)])
    x -= dy / df
    fm = _legendre_sum(x, p_n[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    return x, w


def gl_panel_nodes(a: float, b: float, panels: int, order: int):
    """Composite Gauss-Legendre nodes/weights on [a, b]."""
    x, w = _gl_nodes(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights
