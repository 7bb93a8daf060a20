"""Closed-form geometry of tubular boundary tori.

A tubular torus is the flat boundary torus of an embedded tube of radius R
around a geodesic in a hyperbolic 3-manifold.  Its intrinsic geometry is the
quotient of the Euclidean plane by two translations, which we store in the
principal-curvature frame: the first component of each translation vector
points in the k1 = coth(R) direction, the second in the k2 = tanh(R)
direction.  All operations here are exact closed forms; the horospherical
limit R = inf is represented by ``math.inf`` and carries its own conventions
(complex length identically zero, no surgery coefficient).

Sign convention: complex length is defined up to sign; we fix it by always
evaluating the stored, positively oriented basis in the given order.

Overflow policy: each function and method below whose value would overflow
the float range (a tiny radius, a huge slope or holonomy, a subnormal area)
raises DomainError naming its input; none returns inf or NaN.  Values below
the float range round to subnormals or 0, as float arithmetic does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InfiniteCoefficientError, OrientationError
from .packing import _over

__all__ = [
    "TubularTorus",
    "SlopeClass",
    "ComplexLength",
    "principal_curvatures",
    "complex_length",
    "euclidean_length",
    "visual_area",
    "normalized_length",
    "surgery_coefficient",
]


def _finite(values: tuple[float, ...], what: str, *inputs) -> None:
    """The overflow policy: DomainError unless every value is finite, naming
    the input as ``what.format(*inputs)`` (formatted only then)."""
    if not all(map(math.isfinite, values)):
        raise DomainError(what.format(*inputs) + " is beyond the float range")


@dataclass(frozen=True)
class SlopeClass:
    """A real homology class p*a + q*b relative to the torus's stored basis.

    Integral coprime (p, q) correspond to simple closed curves; arbitrary
    real coefficients are allowed (generalized surgery coefficients).
    """

    p: float
    q: float

    def require_nonzero(self):
        if self.p == 0.0 and self.q == 0.0:
            raise DomainError("slope (0, 0) is not a valid surgery coefficient")


@dataclass(frozen=True)
class ComplexLength:
    """Signed translation length plus total rotation angle (radians, not mod 2pi)."""

    trans: float
    rot: float


@dataclass(frozen=True)
class TubularTorus:
    """A flat boundary torus: tube radius plus Euclidean holonomy of a basis.

    ``basis_holonomy`` holds the two translation vectors ((x1_a, x2_a),
    (x1_b, x2_b)) of the basis generators a, b in the principal frame.
    The basis must be finite and positively oriented: 0 < x1_a*x2_b - x1_b*x2_a < inf.
    ``tube_radius`` is a positive real or ``math.inf`` (horospherical torus).
    """

    tube_radius: float
    basis_holonomy: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        if not self.tube_radius > 0.0:
            raise DomainError(f"tube radius must be positive, got {self.tube_radius}")
        if not math.isfinite(self.area):  # so is every entry: inf or NaN ones make it inf or NaN
            raise DomainError(f"basis holonomy and area must be finite, got {self.basis_holonomy}")
        if not self.area > 0.0:
            raise OrientationError(
                f"basis holonomy is not positively oriented (determinant {self.area!r} <= 0)"
            )

    def holonomy(self, slope: SlopeClass) -> tuple[float, float]:
        """Real-linear extension of the holonomy applied to p*a + q*b."""
        (x1a, x2a), (x1b, x2b) = self.basis_holonomy
        x = (slope.p * x1a + slope.q * x1b, slope.p * x2a + slope.q * x2b)
        _finite(x, "holonomy of {} on {}", slope, self)
        return x

    @property
    def area(self) -> float:
        """Area x1_a*x2_b - x1_b*x2_a of the fundamental parallelogram."""
        (x1a, x2a), (x1b, x2b) = self.basis_holonomy
        return x1a * x2b - x1b * x2a

    @property
    def is_horospherical(self) -> bool:
        return math.isinf(self.tube_radius)


def principal_curvatures(tube_radius: float) -> tuple[float, float]:
    """Principal curvatures (k1, k2) = (coth R, tanh R) of the tube boundary.

    Satisfies k1 >= k2 and k1*k2 = 1; the horospherical limit R = inf
    gives (1, 1).
    """
    if not tube_radius > 0.0:
        raise DomainError(f"tube radius must be positive, got {tube_radius}")
    t = math.tanh(tube_radius)
    k1 = 1.0 / t
    _finite((k1,), "coth R at tube radius {}", tube_radius)
    return (k1, t)


def complex_length(torus: TubularTorus, slope: SlopeClass) -> ComplexLength:
    """Complex length (trans, rot) = (x2/cosh R, x1/sinh R) of a homology class.

    For a horospherical torus the complex length is zero by convention.
    """
    if torus.is_horospherical:
        return ComplexLength(0.0, 0.0)
    x1, x2 = torus.holonomy(slope)
    R = torus.tube_radius
    trans, rot = _over(x2, math.cosh, R), _over(x1, math.sinh, R)
    _finite((trans, rot), "complex length of {} on {}", slope, torus)
    return ComplexLength(trans, rot)


def euclidean_length(torus: TubularTorus, slope: SlopeClass) -> float:
    """Euclidean length of a homology class on the flat torus."""
    slope.require_nonzero()
    length = math.hypot(*torus.holonomy(slope))
    _finite((length,), "euclidean length of {} on {}", slope, torus)
    return length


def visual_area(torus: TubularTorus) -> float:
    """Visual area area(T_R)/(sinh R cosh R) = l_b*theta_a - l_a*theta_b.

    Independent of the radius at which a parallel family of tori is
    presented, and invariant under positively oriented basis change.
    Requires a finite tube radius.
    """
    if torus.is_horospherical:
        raise DomainError("visual area requires a finite tube radius")
    R = torus.tube_radius
    area = _over(_over(torus.area, math.sinh, R), math.cosh, R)
    _finite((area,), "visual area of {}", torus)
    return area


def normalized_length(torus: TubularTorus, slope: SlopeClass) -> float:
    """Euclidean length of the class after rescaling the torus to unit area."""
    length = euclidean_length(torus, slope) / math.sqrt(torus.area)
    _finite((length,), "normalized length of {} on {}", slope, torus)
    return length


def surgery_coefficient(torus: TubularTorus) -> SlopeClass:
    """The unique real class c = (p, q) with complex length (0, 2*pi).

    p*L(a) + q*L(b) = 2*pi*i reads p*x2_a + q*x2_b = 0, p*x1_a + q*x1_b = 2*pi*sinh R,
    so (p, q) = 2*pi*sinh(R)/area * (x2_b, -x2_a).  Raises for a horospherical torus
    (the coefficient is infinite) and where it leaves the float range (any R > 710.47).
    """
    if torus.is_horospherical:
        raise InfiniteCoefficientError("infinite coefficient: complete cusp (R = inf)")
    R = torus.tube_radius
    try:
        sinh_r = math.sinh(R)
    except OverflowError:
        sinh_r = math.inf
    (_, x2a), (_, x2b) = torus.basis_holonomy
    p, q = (x / torus.area * 2.0 * math.pi * sinh_r for x in (x2b, -x2a))
    _finite((p, q), "surgery coefficient at tube radius {}", R)
    return SlopeClass(p, q)
