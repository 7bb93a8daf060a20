"""Tube-packing bounds on the visual area of tubular boundaries.

The central object is the function h(r) = 3.3957 * tanh(r) / cosh(2r): the
total visual area of the boundary is at least h(R) where R is the tube
radius of the filled manifold.  The coefficients come from packing disjoint
ellipses (the shadows of bumping tubes) on the boundary torus at density at
most pi/(2*sqrt(3)).

The decimal constants H_COEFFICIENT = 3.3957 and AXIS_COEFFICIENT =
0.980258 are kept as the literal truncated values the certified statements
use; recomputing them more precisely would change certified outputs.
tests/test_proofs.py proves in exact and interval arithmetic that each sits
on its safe side, within its truncation:
0.980258 <= 1/S < 0.980258 + 1e-6, and 3.3957 <= 2*sqrt(3) * 0.980258 <
3.3957 + 1e-4; and that h(R0) = 1/H(1/sqrt(3)) = 3.3957/(2*sqrt(3)) lies in
[0.980254, 0.980255).  tests/test_packing.py rebuilds h from the
bumping-ellipse axes.  Note 0.980258 (the axis coefficient, ~1/S) and
0.980254 (the value h(R0)) are different numbers and are never conflated.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = [
    "S_CONSTANT",
    "H_COEFFICIENT",
    "AXIS_COEFFICIENT",
    "R0",
    "Z0",
    "h",
]

#: tanh(R0) = 1/sqrt(3), the lower end z0 of the certified envelope range.
Z0 = 1.0 / math.sqrt(3.0)

#: Critical tube radius arctanh(1/sqrt(3)) ~ 0.65848 below which the packing
#: bound no longer pins the geometry.
R0 = math.atanh(Z0)

#: S = (1/(2 sqrt 2)) / arcsinh(1/(2 sqrt 2)).
S_CONSTANT = (1.0 / (2.0 * math.sqrt(2.0))) / math.asinh(1.0 / (2.0 * math.sqrt(2.0)))

#: 3.3957, the coefficient of h(r).
H_COEFFICIENT = 3.3957

#: 0.980258, the semi-axis shrink factor of the bumping ellipses, ~ 1/S.
AXIS_COEFFICIENT = 0.980258


def h(r: float) -> float:
    """Visual-area lower bound h(r) = 3.3957 tanh(r)/cosh(2r), r > 0."""
    if not r > 0.0:
        raise DomainError(f"h needs r > 0, got {r}")
    x = H_COEFFICIENT * math.tanh(r)
    try:
        return x / math.cosh(2.0 * r)
    except OverflowError:  # past cosh's float range, 1/cosh(2r) = 2e^(-2r)
        e = math.exp(-r)  # e^(-2r) itself would be subnormal
        return x * e * 2.0 * e
