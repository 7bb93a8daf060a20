"""The deformation envelope bounding visual area along a radial filling path.

In the variable z = tanh(rho) (where h(rho) equals the visual area), the
integrated extremals of the differential inequalities for v = A/alpha^2 are

    f(z)      = 3.3957 (1 - z) exp(-int_1^z F(w) dw),
    ftilde(z) = 3.3957 (1 - z) exp(-int_1^z Ftilde(w) dw),

and the deformation parameter x = alpha^2 / Lhat^2 is pinched between them:
ftilde(z) >= x >= f(z), where H(z) = (1+z^2)/(3.3957 z (1-z^2)) = 1/A is
the reciprocal visual area.  Ftilde has a pole at z = sqrt(2) - 1; f and
ftilde are checked on the certified range [Z0, 1], Z0 = 1/sqrt(3) =
tanh(R0), where both decrease.

This module owns every envelope formula: the exported f, ftilde and their
inversions invert_f, invert_ftilde; the integrands F and Ftilde (``_F``,
``_Ftilde``); and the closed forms that read the volume-drop and area bounds
off a z (``_dv_upper_from_z``, ``_dv_lower_from_z``, and ``_area_from_z`` =
1/H), which ``certificates`` applies at z-hat and z-tilde.

F and Ftilde are rational, so both exponents are elementary (a rational term
and logarithms; see f and ftilde).  invert_f and invert_ftilde are one
inverter per envelope, each built once at import by ``_inverter`` around its
envelope, integrand and seed.  Inverting g = f or ftilde takes at most two
Newton steps, written out as two passes, with g' = -g (1/(1-z) + F) (Ftilde
for ftilde), from a cubic Hermite interpolant of the inverse on 27 z-nodes,
from 1 down to the first below Z0.  A target outside (0, g(Z0)] gives z = 1
at 0, else raises (UncertifiableError above, DomainError if NaN or negative).
A Newton step d with bend * d^2 <= tol, where bend bounds |g''| on
[Z0 - 1e-6, 1] (10.2 for f, 14.6 for ftilde), is returned without
evaluating g there: Taylor's theorem proves that g at it meets the
tolerance, so it is the float one more evaluation would accept.  The seed's
proven error makes every second step such a step.  Over the figure grids of
2 to 488 rows, 89 % of f and 99.6 % of ftilde inversions end after the
seed's one evaluation; the rest take two.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .errors import DomainError, UncertifiableError
from .packing import H_COEFFICIENT, Z0

__all__ = ["f", "ftilde", "invert_f", "invert_ftilde"]

#: Excluded singularity of Ftilde.
_POLE = math.sqrt(2.0) - 1.0

#: Inversion tolerance: |f(z) - x| <= INV_TOL * max(1, x).
INV_TOL = 1e-12

_COEFF = H_COEFFICIENT  # 3.3957
_R2 = math.sqrt(2.0)
_A = (_R2 - 1.0) / (2.0 * _R2)
_B = (_R2 + 1.0) / (2.0 * _R2)
_P2 = (_R2 - 1.0) ** 2
_Q2 = (_R2 + 1.0) ** 2
_BELOW_ONE = math.nextafter(1.0, 0.0)

#: The inversion seed interpolates the inverse through the z-nodes
#: 1 - k * SEED_STEP, k = 0, 1, ..., down to the first node below Z0: the
#: spacing of 32 nodes on [0.49, 1], which fixes the seed's floats.
SEED_STEP = (1.0 - 0.49) / 31


def _dv_upper_from_z(z: float) -> float:
    """(1/4) int_z^1 H'/(H (H + G)), integrand 2c w^2 (w^4 + 4w^2 - 1)/(1 + w^2)^3."""
    if z >= 1.0:
        return 0.0
    zz1 = 1.0 + z * z
    return _COEFF / 16.0 * (
        4.0 - math.pi - 8.0 * z + 4.0 * math.atan(z) + (12.0 * z ** 3 + 4.0 * z) / (zz1 * zz1)
    )


def _dv_lower_from_z(z: float) -> float:
    """(1/4) int_z^1 H'/(H (H - Gtilde)) = (P(1) - P(z))/4, where
    P' = 2c + 3c/(z^2+1) - 4c/(z^2+1)^2 - (c/2)(3z-1)/(z^2+2z-1)
         + (c/2)(3z+1)/(z^2-2z-1)."""
    if z >= 1.0:
        return 0.0
    # H - Gtilde = -(z^2+1)(z^2-2z-1)(z^2+2z-1) / (2c z^3 (z^2-1)(z^2-3)) has
    # the sign of z^2+2z-1 on (0, 1), so the integrand needs z > sqrt(2)-1
    if not z > _POLE:
        raise DomainError(f"H <= Gtilde at z = {z}; lower bound not applicable")
    rational = 2.0 * (1.0 - z) + (math.pi / 4.0 - math.atan(z)) - (1.0 - z) ** 2 / (1.0 + z * z)
    logs = 0.75 * math.log((z * z + 2.0 * z - 1.0) / (1.0 + 2.0 * z - z * z)) + 0.5 * _R2 * (
        math.log((2.0 - _R2) * (z + 1.0 + _R2) / ((2.0 + _R2) * (z + 1.0 - _R2)))
        - math.log((_R2 + 1.0 - z) / (z - 1.0 + _R2))
    )
    return _COEFF / 4.0 * (rational + logs)


def _area_from_z(z: float) -> float:
    """1/H(z), the reciprocal of H as the module docstring writes it; 0 at z >= 1."""
    if z >= 1.0:
        return 0.0
    return 1.0 / ((1.0 + z * z) / (_COEFF * z * (1.0 - z * z)))


def _F(z: float) -> float:
    """F(z) = -(1+4z+6z^2+z^4)/((z+1)(1+z^2)^2), regular on [0, 1]."""
    return -(1.0 + 4.0 * z + 6.0 * z * z + z ** 4) / ((z + 1.0) * (1.0 + z * z) ** 2)


def _Ftilde(z: float) -> float:
    """Ftilde(z), regular on (sqrt(2)-1, 1]; pole at sqrt(2)-1."""
    num = z ** 6 + 7.0 * z ** 4 + 12.0 * z ** 3 - 9.0 * z * z - 4.0 * z + 1.0
    den = (z + 1.0) * (z * z + 1.0) * (z * z - 2.0 * z - 1.0) * (z * z + 2.0 * z - 1.0)
    return -num / den


def _check_working(z: float):
    if not Z0 <= z <= 1.0:
        raise DomainError(f"argument must lie in [1/sqrt(3), 1], got {z}")


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
    """Start values for inverting g (f or ftilde) on [Z0, 1]: the cubic
    Hermite interpolant of the inverse through x = g(z) with dz/dx =
    1/g'(z) at the z-nodes 1 - k SEED_STEP down to the first below Z0.

    ``x_nodes`` ascend (z descends).  The last node lies below Z0, so every
    accepted target x <= g(Z0) lies between two nodes; each cubic decreases
    there, and the seed of g(Z0) lies above Z0.
    """

    def __init__(self, g, integrand):
        zs = [1.0]
        while zs[-1] >= Z0:
            zs.append(1.0 - len(zs) * SEED_STEP)
        xs = [g(z) for z in zs]
        # g' = -g (1/(1-z) + integrand) tends to -3.3957 at z = 1
        dz = [-1.0 / _COEFF] + [
            -1.0 / (x * (1.0 / (1.0 - z) + integrand(z))) for z, x in zip(zs[1:], xs[1:])
        ]
        self.x_nodes = xs
        self._cubics = []  # (x, z, dz/dx, c2, c3) at the left end of each interval
        for i in range(len(zs) - 1):
            h = xs[i + 1] - xs[i]
            secant = (zs[i + 1] - zs[i]) / h
            self._cubics.append((
                xs[i], zs[i], dz[i],
                (3.0 * secant - 2.0 * dz[i] - dz[i + 1]) / h,
                (dz[i] + dz[i + 1] - 2.0 * secant) / (h * h),
            ))

    def __call__(self, x: float) -> float:
        x0, z, d, c2, c3 = self._cubics[bisect_right(self.x_nodes, x, 1) - 1]
        dx = x - x0
        return z + dx * (d + dx * (c2 + dx * c3))


def _inverter(func, integrand, name: str, top: float, seed, bend: float):
    """invert(x_hat): z in [Z0, 1] with |func(z) - x_hat| <= INV_TOL * max(1,
    x_hat), by at most two Newton steps from seed(x_hat), written out as two
    passes.  ``top`` is func(Z0), the largest target accepted.  Built once
    per envelope, at import; the seed is read through its bound ``__call__``.

    Each pass evaluates func at z and returns z if it meets the tolerance;
    else it takes the Newton step d and returns it, unevaluated, if bend *
    d^2 <= tol, where ``bend`` bounds |func''| on [Z0 - 1e-6, 1].  Taylor's
    theorem puts the step's residual within max|func''| d^2/2 <= tol/2, and
    rounding adds at most 1.1e-14 * max(1, x_hat) < tol/2 (the step's own
    rounding, at most max|func'| 2^-54 with |func'| <= 3.8; the slope and
    quotient; both evaluations, with glibc's documented exp and log
    errors), so one more evaluation would accept it.  The second pass
    returns its step: from the seed's error bound, the first step lies in
    [Z0 - 1e-6, 1) and the second meets bend * d^2 <= tol.  The seed lies in
    [Z0, 1], and every returned z in [Z0, 1].  tests/test_proofs.py checks
    the bounds, the allowance and both passes.
    """
    start = seed.__call__

    def invert(x_hat: float) -> float:
        if not 0.0 < x_hat <= top:
            if x_hat == 0.0:
                return 1.0
            if x_hat > top:
                raise UncertifiableError(f"uncertifiable: normalized length too small "
                                         f"(target {x_hat} exceeds {name}(1/sqrt(3)) = {top})")
            raise DomainError(f"target value must be nonnegative, got {x_hat}")
        tol = INV_TOL * x_hat if x_hat > 1.0 else INV_TOL
        # kept below 1, where the slope would divide by 1 - z; func there is
        # below 4e-16, so a target that small is met at once
        z = start(x_hat)
        z = z if z <= _BELOW_ONE else _BELOW_ONE
        val = func(z)
        if -tol <= val - x_hat <= tol:
            return z
        slope = -val * (1.0 / (1.0 - z) + integrand(z))
        step = z - (val - x_hat) / slope
        d = step - z
        if bend * d * d <= tol:
            return step
        z = step
        val = func(z)
        if -tol <= val - x_hat <= tol:
            return z
        slope = -val * (1.0 / (1.0 - z) + integrand(z))
        return z - (val - x_hat) / slope

    invert.__name__ = invert.__qualname__ = f"invert_{name}"
    return invert


_F_TOP, _FTILDE_TOP = _f(Z0), _ftilde(Z0)
_F_SEED, _FTILDE_SEED = _InverseSeed(_f, _F), _InverseSeed(_ftilde, _Ftilde)

#: Bounds on |f''| and |ftilde''| over [Z0 - 1e-6, 1] for the inverters'
#: early exit: the maxima are 10.187 at z = 1 and 14.554 at Z0.
F_BEND, FTILDE_BEND = 10.2, 14.6

invert_f = _inverter(_f, _F, "f", _F_TOP, _F_SEED, F_BEND)
invert_f.__doc__ = "z-hat in [Z0, 1] with f(z-hat) = x_hat."

invert_ftilde = _inverter(_ftilde, _Ftilde, "ftilde", _FTILDE_TOP, _FTILDE_SEED, FTILDE_BEND)
invert_ftilde.__doc__ = "z-tilde in [Z0, 1] with ftilde(z-tilde) = x_hat."
