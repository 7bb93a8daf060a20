"""The deformation envelope bounding visual area along a radial filling path.

In the variable z = tanh(rho) (where h(rho) equals the visual area), the
integrated extremals of the differential inequalities for v = A/alpha^2 are

    f(z)      = 3.3957 (1 - z) exp(-int_1^z F(w) dw),
    ftilde(z) = 3.3957 (1 - z) exp(-int_1^z Ftilde(w) dw),

and the deformation parameter x = alpha^2 / Lhat^2 is pinched between them:
ftilde(z) >= x >= f(z).  H(z) = 1/A is the reciprocal visual area; G and
Gtilde are the coefficient functions of the inequalities.  Ftilde has a pole
at z = sqrt(2) - 1; we work on [Z_MIN, 1] with Z_MIN = 0.45, strictly above
it (the certified range only needs [1/sqrt(3), 1]).

F and Ftilde are rational, so both exponents are elementary (a rational
term and logarithms; see f and ftilde).  Inversion of f and ftilde
(producing z-hat and z-tilde from a target x) is Newton's method with
g' = -g (1/(1-z) + F) for g = f (Ftilde for ftilde), kept inside a
bisection bracket: the slope at z = 1 is -3.3957, and both functions turn
over just above Z_MIN (near z = 0.4506), where a step that leaves the
bracket is replaced by a bisection step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, UncertifiableError
from .packing import PACKING

__all__ = [
    "Z_MIN",
    "POLE",
    "EnvelopeTable",
    "H",
    "H_prime",
    "G",
    "Gtilde",
    "F",
    "Ftilde",
    "f",
    "ftilde",
    "invert_f",
    "invert_ftilde",
    "sample_envelope",
]

#: Excluded singularity of Ftilde.
POLE = math.sqrt(2.0) - 1.0

#: Lower end of the working domain; the certified range is [1/sqrt(3), 1].
Z_MIN = 0.45

#: Inversion tolerance: |f(z) - x| <= INV_TOL * max(1, x).
INV_TOL = 1e-12

_COEFF = PACKING.h_coefficient  # 3.3957
_R2 = math.sqrt(2.0)
_A = (_R2 - 1.0) / (2.0 * _R2)
_B = (_R2 + 1.0) / (2.0 * _R2)


def _check_open_unit(z: float):
    if not 0.0 < z < 1.0:
        raise DomainError(f"argument must lie in (0, 1), got {z}")


def H(z: float) -> float:
    """Reciprocal visual area H(z) = (1+z^2)/(3.3957 z (1-z^2))."""
    _check_open_unit(z)
    return (1.0 + z * z) / (_COEFF * z * (1.0 - z * z))


def H_prime(z: float) -> float:
    """Analytic derivative of H."""
    _check_open_unit(z)
    num = 1.0 + z * z
    den = z - z ** 3
    return (2.0 * z * den - num * (1.0 - 3.0 * z * z)) / (_COEFF * den * den)


def G(z: float) -> float:
    """G(z) = (1+z^2)/(6.7914 z^3)."""
    _check_open_unit(z)
    return (1.0 + z * z) / (2.0 * _COEFF * z ** 3)


def Gtilde(z: float) -> float:
    """Gtilde(z) = (1+z^2)^2/(6.7914 z^3 (3-z^2)); finite at z = 1."""
    if not 0.0 < z <= 1.0:
        raise DomainError(f"argument must lie in (0, 1], got {z}")
    return (1.0 + z * z) ** 2 / (2.0 * _COEFF * z ** 3 * (3.0 - z * z))


def F(z: float) -> float:
    """F(z) = -(1+4z+6z^2+z^4)/((z+1)(1+z^2)^2), regular on [0, 1]."""
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"F is defined on [0, 1], got {z}")
    return -(1.0 + 4.0 * z + 6.0 * z * z + z ** 4) / ((z + 1.0) * (1.0 + z * z) ** 2)


def Ftilde(z: float) -> float:
    """Ftilde(z), regular on (sqrt(2)-1, 1]; pole at sqrt(2)-1."""
    if not POLE < z <= 1.0:
        raise DomainError(f"Ftilde is defined on (sqrt(2)-1, 1], got {z}")
    num = z ** 6 + 7.0 * z ** 4 + 12.0 * z ** 3 - 9.0 * z * z - 4.0 * z + 1.0
    den = (z + 1.0) * (z * z + 1.0) * (z * z - 2.0 * z - 1.0) * (z * z + 2.0 * z - 1.0)
    return -num / den


def _check_working(z: float):
    if not Z_MIN <= z <= 1.0:
        raise DomainError(f"argument must lie in [{Z_MIN}, 1], got {z}")


def f(z: float) -> float:
    """Lower envelope f(z) = 3.3957 (1-z^2)/2 exp((z^2-1)/(z^2+1)); f(1) = 0."""
    _check_working(z)
    zz = z * z
    return 0.5 * _COEFF * (1.0 - z) * (1.0 + z) * math.exp((zz - 1.0) / (zz + 1.0))


def ftilde(z: float) -> float:
    """Upper envelope, same shape with Ftilde; ftilde(1) = 0.  The partial fractions
    -1/(w+1) + 2w/(w^2+1) - w/(w^2+2w-1) - w/(w^2-2w-1) of Ftilde give the logs."""
    _check_working(z)
    exponent = (
        math.log((1.0 + z * z) / (1.0 + z))
        - _A * math.log((z + 1.0 - _R2) / (2.0 - _R2))
        - _B * math.log((z + 1.0 + _R2) / (2.0 + _R2))
        - _B * math.log((_R2 + 1.0 - z) / _R2)
        - _A * math.log((z - 1.0 + _R2) / _R2)
    )
    return _COEFF * (1.0 - z) * math.exp(-exponent)


def _invert_decreasing(func, integrand, x_hat: float, name: str) -> float:
    if not x_hat >= 0.0:
        raise DomainError(f"target value must be nonnegative, got {x_hat}")
    if x_hat == 0.0:
        return 1.0
    top = func(Z_MIN)
    if x_hat > top:
        raise UncertifiableError(
            f"uncertifiable: normalized length too small "
            f"(target {x_hat} exceeds {name}({Z_MIN}) = {top})"
        )
    tol = INV_TOL * max(1.0, x_hat)
    lo, hi = Z_MIN, 1.0  # func(lo) >= x_hat >= func(hi)
    z = max(Z_MIN, 1.0 - x_hat / _COEFF)
    for _ in range(200):
        val = func(z)
        if abs(val - x_hat) <= tol:
            return z
        if val > x_hat:
            lo = z
        else:
            hi = z
        # z < 1 here: z = 1 is tried only when x_hat/c rounds away against 1,
        # and then func(1) = 0 meets the tolerance
        slope = -val * (1.0 / (1.0 - z) + integrand(z))
        step = z - (val - x_hat) / slope if slope < 0.0 else lo
        z = step if lo < step < hi else 0.5 * (lo + hi)
        if not lo < z < hi:
            break
    raise ConvergenceError(
        f"{name} inversion at {x_hat} stopped in [{lo}, {hi}] "
        f"without meeting |{name}(z) - x| <= {tol}"
    )


def invert_f(x_hat: float) -> float:
    """z-hat with f(z-hat) = x_hat; bracketed Newton on the decreasing branch."""
    return _invert_decreasing(f, F, x_hat, "f")


def invert_ftilde(x_hat: float) -> float:
    """z-tilde with ftilde(z-tilde) = x_hat."""
    return _invert_decreasing(ftilde, Ftilde, x_hat, "ftilde")


@dataclass(frozen=True)
class EnvelopeTable:
    """Sampled envelope values on an ascending z-grid.

    Immutable once built; safe to share across threads.
    """

    z_grid: np.ndarray
    f_values: np.ndarray
    ftilde_values: np.ndarray
    H_values: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.z_grid) <= 0.0):
            raise DomainError("z_grid must be strictly ascending")


def sample_envelope(samples: int, z_min: float = Z_MIN, z_max: float = 1.0) -> EnvelopeTable:
    """Tabulate f, ftilde and H at evenly spaced z values in [z_min, z_max]."""
    if samples < 2:
        raise DomainError("need at least 2 samples")
    if not Z_MIN <= z_min < z_max <= 1.0:
        raise DomainError(f"bad table range [{z_min}, {z_max}]")
    zs = np.linspace(z_min, z_max, samples)
    fs = np.array([f(z) for z in zs])
    fts = np.array([ftilde(z) for z in zs])
    # H blows up at z = 1; record inf there
    Hs = np.array([H(z) if z < 1.0 else math.inf for z in zs])
    return EnvelopeTable(zs, fs, fts, Hs)
