"""Cusp-shape lattice arithmetic.

A cusp shape is the unit-area normalization of the flat metric on a cusp
cross-section, presented as a modulus tau in the upper half plane: the
lattice generated by 1 and tau.  A slope (p, q) is the class p*1 + q*tau.
This module computes normalized slope lengths, reduces the modulus by an
SL(2, Z) walk, and enumerates all primitive slopes below a normalized-length
cutoff (complete, by exact scanlines in the reduced basis, and capped at
MAX_CANDIDATES tests).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

__all__ = [
    "CuspShape",
    "slope_normalized_length",
    "lattice_reduce",
    "enumerate_short_slopes",
]


@dataclass(frozen=True)
class CuspShape:
    """Modulus tau = re + i*im of a unit-area flat torus lattice; im > 0."""

    re: float
    im: float

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise DomainError(
                f"cusp shape needs finite re and im, got re={self.re}, im={self.im}"
            )
        if not self.im > 0.0:
            raise DomainError(f"cusp shape needs im(tau) > 0, got {self.im}")

    @property
    def tau(self) -> complex:
        return complex(self.re, self.im)


def slope_normalized_length(shape: CuspShape, slope: tuple[float, float]) -> float:
    """Normalized length |p + q*tau| / sqrt(im tau) of the class p + q*tau, or
    inf where it leaves the float range.

    It measures in the reduced basis, where no change of basis can cancel:
    lattice_reduce's M maps (p, q) exactly (as Fractions), the image is
    rounded once, and the length is |p' + q'*tau'| / sqrt(im tau'), for an
    integral slope the float enumerate_short_slopes lists, bit for bit.

    It returns inf rather than raising by design: certify reads an infinite
    normalized length as a cusp too long to count (1/Lhat^2 = 0).  A NaN
    entry, or a shape that lattice_reduce refuses, raises DomainError."""
    p, q = slope
    if p == 0.0 and q == 0.0:
        raise DomainError("slope (0, 0) has no normalized length")
    if p != p or q != q:  # NaN, tested without converting an int or Fraction to float
        raise DomainError(f"slope {slope} has no normalized length: an entry is NaN")
    reduced, ((m11, m12), (m21, m22)) = lattice_reduce(shape)
    try:
        p, q = Fraction(p), Fraction(q)
        p, q = float(m11 * p + m12 * q), float(m21 * p + m22 * q)
        return abs(p + q * reduced.tau) / math.sqrt(reduced.im)
    except OverflowError:
        return math.inf


def lattice_reduce(shape: CuspShape) -> tuple[CuspShape, tuple[tuple[int, int], tuple[int, int]]]:
    """SL(2, Z) walk on tau: translate by round(re tau), invert while |tau| < 1.

    Returns (reduced shape, M) where the reduced modulus tau' satisfies
    |re tau'| <= 1/2 and |tau'| >= 1 (to rounding), and M is an integer matrix of
    determinant 1 mapping old slope coordinates to new ones:
    normalized lengths satisfy L(slope, tau) == L(M @ slope, tau').

    Raises DomainError when an inversion leaves the float range.
    """
    tau = shape.tau
    m11, m12, m21, m22 = 1, 0, 0, 1
    for _ in range(10_000):
        t = round(tau.real)
        # p + q*tau == (p + t*q) + q*(tau - t)
        tau -= t
        m11, m12 = m11 + t * m21, m12 + t * m22
        if abs(tau) >= 1.0:
            break
        # p + q*tau == tau * (q + (-p)*(-1/tau)), and |tau| cancels in the length
        inv = -1.0 / tau
        if inv.imag <= tau.imag:
            break  # |tau| is 1 to rounding, and inverting would cycle
        tau = inv
        m11, m12, m21, m22 = m21, m22, -m11, -m12
        if not cmath.isfinite(tau):
            raise DomainError(f"cusp shape re={shape.re}, im={shape.im} overflows when reduced")
    return CuspShape(tau.real, tau.imag), ((m11, m12), (m21, m22))


#: Most candidate slopes one enumeration may test (about a second of work).
MAX_CANDIDATES = 1_500_000


def enumerate_short_slopes(shape: CuspShape, cutoff: float) -> list[tuple[int, int, float]]:
    """All primitive integral slopes with normalized length <= cutoff.

    Identifies (p, q) ~ (-p, -q) and reports the representative with p > 0
    (or p = 0 and q > 0), sorted by (length, p, q).  Each entry is
    (p, q, normalized_length).

    The scan walks the reduced basis over q > 0 plus (1, 0), which
    meets each class once: row q holds the p within one of the chord of
    (p + q*re)^2 + (q*im)^2 <= cutoff^2 * im, for q <= cutoff/sqrt(im).
    Each listed length is the float the scan decided with, |p + q*tau'| /
    sqrt(im tau') in the reduced basis, slope_normalized_length's bit for
    bit; only (p, q) is mapped back, with exact integers.

    Raises DomainError for a cutoff that is not positive and finite, or one
    whose scan would test more than MAX_CANDIDATES slopes, and for a shape
    whose reduction or short slopes leave the float range.
    """
    if not (cutoff > 0.0 and math.isfinite(cutoff)):
        raise DomainError(f"cutoff must be positive and finite, got {cutoff}")
    reduced, ((m11, m12), (m21, m22)) = lattice_reduce(shape)
    tau, re, im = reduced.tau, reduced.re, reduced.im
    root = math.sqrt(im)
    # rows q = 1..floor(span); the slack keeps a row whose float length
    # rounds down onto the cutoff
    span = cutoff / root * (1.0 + 1e-12)
    reach = cutoff * cutoff * im
    out, tested = [], 0
    # a row q >= 1 holds at least 3 candidates, so clamping the rows (span is inf
    # where cutoff/root overflows) and a row's half-width at MAX_CANDIDATES changes
    # no scan the cap lets through
    for q in range(math.floor(min(MAX_CANDIDATES, span)) + 1):
        qtau = q * tau
        if q == 0:
            ps = (1,)
        else:
            try:
                half = min(MAX_CANDIDATES, math.sqrt(max(reach - (q * im) ** 2, 0.0)))
            except OverflowError:  # reach is inf too, so the row is wider than the cap
                half = MAX_CANDIDATES
            centre = -q * re
            ps = range(math.floor(centre - half) - 1, math.ceil(centre + half) + 2)
        tested += len(ps)
        if tested > MAX_CANDIDATES:
            raise DomainError(
                f"cutoff {cutoff} is too large for this shape: the scan would test more "
                f"than {MAX_CANDIDATES} candidate slopes"
            )
        for p in ps:
            if math.gcd(p, q) != 1 or (length := abs(p + qtau) / root) > cutoff:
                continue
            # back to given-basis coordinates: M has det 1, so its inverse is its adjugate;
            # negating (p, q) keeps the length exact
            p0, q0 = m22 * p - m12 * q, m11 * q - m21 * p
            out.append((p0, q0, length) if p0 > 0 or (p0 == 0 and q0 > 0) else (-p0, -q0, length))
    # certify --slope reads floats; |p|, |q| < 2**22 under MAX_CANDIDATES, so only an entry
    # of M above 2**960 can carry a slope to 2**1024 - 2**970, the least int float() refuses
    if max(map(abs, (m11, m12, m21, m22))) > 2 ** 960 and any(
            max(abs(p0), abs(q0)) >= 2 ** 1024 - 2 ** 970 for p0, q0, _ in out):
        raise DomainError(f"cusp shape re={shape.re}, im={shape.im} has a slope beyond "
                          f"the float range at cutoff {cutoff}")
    # a float key takes CPython's fast float compare; adjacent tied lengths need p, then q
    out.sort(key=operator.itemgetter(2))
    lengths = list(map(operator.itemgetter(2), out))
    if any(map(operator.eq, lengths, lengths[1:])):
        out.sort(key=operator.itemgetter(2, 0, 1))
    return out
