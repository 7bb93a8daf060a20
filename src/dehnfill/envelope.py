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
over just above Z_MIN, at the root z = 0.48587 of 1/(1-z) + F (Ftilde has
the same root), where a step that leaves the bracket is replaced by a
bisection step.  Newton starts from a cubic Hermite interpolant of the
inverse on the decreasing branch, built at import from 32 z-nodes on
[0.49, 1]; from that start one step usually meets the tolerance.
"""

from __future__ import annotations

import bisect
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
_P2 = (_R2 - 1.0) ** 2
_Q2 = (_R2 + 1.0) ** 2
_BELOW_ONE = math.nextafter(1.0, 0.0)

#: The inversion seed interpolates the inverse through this many z-nodes,
#: evenly spaced from SEED_Z_FIRST to 1.
SEED_NODES = 32
SEED_Z_FIRST = 0.49


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


def _F(z: float) -> float:
    return -(1.0 + 4.0 * z + 6.0 * z * z + z ** 4) / ((z + 1.0) * (1.0 + z * z) ** 2)


def F(z: float) -> float:
    """F(z) = -(1+4z+6z^2+z^4)/((z+1)(1+z^2)^2), regular on [0, 1]."""
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"F is defined on [0, 1], got {z}")
    return _F(z)


def _Ftilde(z: float) -> float:
    num = z ** 6 + 7.0 * z ** 4 + 12.0 * z ** 3 - 9.0 * z * z - 4.0 * z + 1.0
    den = (z + 1.0) * (z * z + 1.0) * (z * z - 2.0 * z - 1.0) * (z * z + 2.0 * z - 1.0)
    return -num / den


def Ftilde(z: float) -> float:
    """Ftilde(z), regular on (sqrt(2)-1, 1]; pole at sqrt(2)-1."""
    if not POLE < z <= 1.0:
        raise DomainError(f"Ftilde is defined on (sqrt(2)-1, 1], got {z}")
    return _Ftilde(z)


def _check_working(z: float):
    if not Z_MIN <= z <= 1.0:
        raise DomainError(f"argument must lie in [{Z_MIN}, 1], got {z}")


def _f(z: float) -> float:
    zz = z * z
    return 0.5 * _COEFF * (1.0 - z) * (1.0 + z) * math.exp((zz - 1.0) / (zz + 1.0))


def f(z: float) -> float:
    """Lower envelope f(z) = 3.3957 (1-z^2)/2 exp((z^2-1)/(z^2+1)); f(1) = 0."""
    _check_working(z)
    return _f(z)


def _ftilde(z: float) -> float:
    zz = z * z
    exponent = (
        math.log((1.0 + zz) / (1.0 + z))
        - _A * math.log((zz - _P2) / (2.0 * _R2 - 2.0))
        - _B * math.log((_Q2 - zz) / (2.0 * _R2 + 2.0))
    )
    return _COEFF * (1.0 - z) * math.exp(-exponent)


def ftilde(z: float) -> float:
    """Upper envelope, same shape with Ftilde; ftilde(1) = 0.  The partial fractions
    -1/(w+1) + 2w/(w^2+1) - w/(w^2+2w-1) - w/(w^2-2w-1) of Ftilde give the logs;
    each pair of linear factors (w -+ (sqrt(2)-1))(w +- (sqrt(2)+1)) shares a
    coefficient, so its two logs are one log of z^2 - (sqrt(2)-1)^2 or of
    (sqrt(2)+1)^2 - z^2."""
    _check_working(z)
    return _ftilde(z)


class _InverseSeed:
    """Start values for inverting g (f or ftilde) on its decreasing branch:
    the cubic Hermite interpolant of the inverse through x = g(z) with
    dz/dx = 1/g'(z) at SEED_NODES z-nodes evenly spaced on [SEED_Z_FIRST, 1].

    ``x_nodes`` ascend (z descends); above the last node the last cubic is
    extended.  The nodes stop short of the turnover at z = 0.48587, where
    1/g' is infinite; every target x <= g(Z_MIN) has its root above z = 0.5.
    """

    def __init__(self, g, integrand):
        step = (1.0 - SEED_Z_FIRST) / (SEED_NODES - 1)
        zs = [1.0 - k * step for k in range(SEED_NODES)]
        xs = [g(z) for z in zs]
        # g' = -g (1/(1-z) + integrand) tends to -3.3957 at z = 1
        dz = [-1.0 / _COEFF] + [
            -1.0 / (x * (1.0 / (1.0 - z) + integrand(z))) for z, x in zip(zs[1:], xs[1:])
        ]
        self.x_nodes = xs
        self._cubics = []  # (z, dz/dx, c2, c3) at the left end of each interval
        for i in range(SEED_NODES - 1):
            h = xs[i + 1] - xs[i]
            secant = (zs[i + 1] - zs[i]) / h
            self._cubics.append((
                zs[i], dz[i],
                (3.0 * secant - 2.0 * dz[i] - dz[i + 1]) / h,
                (dz[i] + dz[i + 1] - 2.0 * secant) / (h * h),
            ))

    def __call__(self, x: float) -> float:
        i = bisect.bisect_right(self.x_nodes, x, 1, SEED_NODES - 1) - 1
        z, d, c2, c3 = self._cubics[i]
        dx = x - self.x_nodes[i]
        return z + dx * (d + dx * (c2 + dx * c3))


def _linear_start(x_hat: float) -> float:
    return 1.0 - x_hat / _COEFF


def _invert_decreasing(func, integrand, x_hat: float, name: str, top=None,
                       seed=_linear_start) -> float:
    """z in [Z_MIN, 1] with |func(z) - x_hat| <= INV_TOL * max(1, x_hat), by
    Newton's method from seed(x_hat) inside the bracket [Z_MIN, 1].  ``top``
    is func(Z_MIN), the largest target accepted; it is evaluated if not given.
    """
    if not x_hat >= 0.0:
        raise DomainError(f"target value must be nonnegative, got {x_hat}")
    if x_hat == 0.0:
        return 1.0
    if top is None:
        top = func(Z_MIN)
    if x_hat > top:
        raise UncertifiableError(
            f"uncertifiable: normalized length too small "
            f"(target {x_hat} exceeds {name}({Z_MIN}) = {top})"
        )
    tol = INV_TOL * max(1.0, x_hat)
    lo, hi = Z_MIN, 1.0  # func(lo) >= x_hat >= func(hi)
    # kept below 1, where the slope would divide by 1 - z; func there is
    # below 4e-16, so a target that small is met at once
    z = min(max(Z_MIN, seed(x_hat)), _BELOW_ONE)
    for _ in range(200):
        val = func(z)
        if abs(val - x_hat) <= tol:
            return z
        if val > x_hat:
            lo = z
        else:
            hi = z
        slope = -val * (1.0 / (1.0 - z) + integrand(z))
        step = z - (val - x_hat) / slope if slope < 0.0 else lo
        z = step if lo < step < hi else 0.5 * (lo + hi)
        if not lo < z < hi:
            break
    raise ConvergenceError(
        f"{name} inversion at {x_hat} stopped in [{lo}, {hi}] "
        f"without meeting |{name}(z) - x| <= {tol}"
    )


_F_TOP, _FTILDE_TOP = _f(Z_MIN), _ftilde(Z_MIN)
_F_SEED, _FTILDE_SEED = _InverseSeed(_f, _F), _InverseSeed(_ftilde, _Ftilde)


def invert_f(x_hat: float) -> float:
    """z-hat with f(z-hat) = x_hat; bracketed Newton on the decreasing branch."""
    return _invert_decreasing(_f, _F, x_hat, "f", _F_TOP, _F_SEED)


def invert_ftilde(x_hat: float) -> float:
    """z-tilde with ftilde(z-tilde) = x_hat."""
    return _invert_decreasing(_ftilde, _Ftilde, x_hat, "ftilde", _FTILDE_TOP, _FTILDE_SEED)


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
