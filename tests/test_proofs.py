"""Exact symbolic checks of the per-mode coefficients of the boundary form b.

k1 and eps are symbols with k2 = 1/k1, wave vectors are symbols, and each
coefficient c = x + i y is split into its real and imaginary parts.  The
library's helpers run on these symbols as they run on arrays; the float
literals in them (3.0, 4.0, 2.0) are read as the rationals they equal, and
every check reduces a difference of rational functions to exactly 0.
"""

from types import SimpleNamespace

import numpy as np
import sympy as sp

from dehnfill.weitzenboeck import _mode_coefficients, _mode_matrix, _row_b

k1, eps = sp.symbols("k1 epsilon", positive=True)
k2 = 1 / k1
CURV = SimpleNamespace(k1=k1, k2=k2, epsilon=eps)
kap1, kap2 = sp.symbols("kappa1 kappa2", real=True)
x1, y1, x2, y2 = sp.symbols("x1 y1 x2 y2", real=True)


def docstring_b(kap1, kap2, c1, c2):
    """The formula in ``mode_b``'s docstring, with c1, c2 as (re, im) pairs."""
    def abs2(c):
        return c[0] ** 2 + c[1] ** 2

    area = (3 - k1 ** 2) * kap1 ** 2 + (3 - k2 ** 2) * kap2 ** 2
    curl = (kap2 * c1[0] - kap1 * c2[0], kap2 * c1[1] - kap1 * c2[1])
    return sp.Rational(1, 4) * area * (k1 * abs2(c1) + k2 * abs2(c2)) + eps / 2 * abs2(curl) * (
        (k2 - eps / 2) * kap2 ** 2 + (k1 - eps / 2) * kap1 ** 2)


def vanishes(expr) -> bool:
    return sp.cancel(sp.nsimplify(expr, rational=True)) == 0


def scan_row(wave_vectors, draws):
    """The scan's b for one form whose modes sit at ``wave_vectors`` with raw
    draws ``draws``, through a coefficient table with one class per mode."""
    table = np.array([(*_mode_coefficients(CURV, a, b), a, b) for a, b in wave_vectors],
                     dtype=object).T
    pick = np.arange(len(wave_vectors))[None, :]
    (b,) = _row_b(table, pick, np.array([draws], dtype=object))
    return b


def test_table_contraction_is_the_docstring_formula():
    a1, a2, w = _mode_coefficients(CURV, kap1, kap2)
    contraction = a1 * (x1 ** 2 + y1 ** 2) + a2 * (x2 ** 2 + y2 ** 2) + w * (
        (kap2 * x1 - kap1 * x2) ** 2 + (kap2 * y1 - kap1 * y2) ** 2)
    assert vanishes(contraction - docstring_b(kap1, kap2, (x1, y1), (x2, y2)))
    # the scan's contraction of one mode, times its sum g^2
    scan = scan_row([(kap1, kap2)], [(x1, y1, x2, y2)])
    norm = x1 ** 2 + y1 ** 2 + x2 ** 2 + y2 ** 2
    assert vanishes(scan * norm - docstring_b(kap1, kap2, (x1, y1), (x2, y2)))


def test_mode_matrix_is_the_polarization():
    def b(c1, c2):
        return docstring_b(kap1, kap2, (c1, 0), (c2, 0))

    q11, q22, q12 = _mode_matrix(CURV, kap1, kap2)
    assert vanishes(q11 - b(1, 0))
    assert vanishes(q22 - b(0, 1))
    assert vanishes(q12 - (b(1, 1) - b(1, 0) - b(0, 1)) / 2)
    assert vanishes(q11 * x1 ** 2 + 2 * q12 * x1 * x2 + q22 * x2 ** 2 - b(x1, x2))


def test_scan_row_is_b_at_the_unit_form():
    # two modes at independent wave vectors, as one row of the scan
    p1, p2 = sp.symbols("p1 p2", real=True)
    u1, v1, u2, v2 = sp.symbols("u1 v1 u2 v2", real=True)
    draws = [(x1, y1, x2, y2), (u1, v1, u2, v2)]
    scan = scan_row([(kap1, kap2), (p1, p2)], draws)
    scale = sp.sqrt(2 * sum(t ** 2 for row in draws for t in row))
    unit = [[t / scale for t in row] for row in draws]
    # a mode and its conjugate contribute equally
    b_unit = 2 * sum(docstring_b(a, b, row[:2], row[2:]) for (a, b), row in
                     zip([(kap1, kap2), (p1, p2)], unit))
    assert vanishes(scan - b_unit)
