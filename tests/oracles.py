"""Test-only oracles: the reciprocal visual area H, its derivative, and the
coefficient functions G and Gtilde of the differential inequalities, against
which the closed forms in dehnfill.envelope are checked, the json
serialization against which certificate_to_json is checked, an earlier
seeded Newton inversion (``ParentSeed``, ``parent_invert_decreasing``)
against which invert_f and invert_ftilde are checked bit for bit, and an
earlier two-pass decision (``parent_certify``, ``parent_full_certificate``)
against which certify and full_certificate are checked bit for bit.  No
package code calls them."""

import bisect
import json
import math

from dehnfill.certificates import _INV_C_SQ, FillingCertificate, envelope_bounds
from dehnfill.envelope import _BELOW_ONE, INV_TOL
from dehnfill.errors import DomainError, UncertifiableError
from dehnfill.packing import H_COEFFICIENT, R0

_COEFF = H_COEFFICIENT  # 3.3957

#: The lower end of the range parent_invert_decreasing brackets on.
Z_MIN = 0.45


class ConvergenceError(ArithmeticError):
    """parent_invert_decreasing stopped before meeting its tolerance."""


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


def certificate_json(cert) -> str:
    """A certificate as json's indent-2 strict encoder writes it."""
    return json.dumps(cert.as_dict(), indent=2, allow_nan=False)


class ParentSeed:
    """The inversion seed as first written: the (z, dz/dx, c2, c3) table on
    32 z-nodes evenly spaced on [0.49, 1] and its lookup, kept verbatim with
    its node count and first node written out, so that it does not move with
    the seed it checks.  ``ParentSeed(g, integrand)`` for g = f or ftilde
    (their unchecked forms) and its integrand F or Ftilde."""

    def __init__(self, g, integrand):
        step = (1.0 - 0.49) / (32 - 1)
        zs = [1.0 - k * step for k in range(32)]
        xs = [g(z) for z in zs]
        # g' = -g (1/(1-z) + integrand) tends to -3.3957 at z = 1
        dz = [-1.0 / _COEFF] + [
            -1.0 / (x * (1.0 / (1.0 - z) + integrand(z))) for z, x in zip(zs[1:], xs[1:])
        ]
        self.x_nodes = xs
        self._cubics = []  # (z, dz/dx, c2, c3) at the left end of each interval
        for i in range(32 - 1):
            h = xs[i + 1] - xs[i]
            secant = (zs[i + 1] - zs[i]) / h
            self._cubics.append((
                zs[i], dz[i],
                (3.0 * secant - 2.0 * dz[i] - dz[i + 1]) / h,
                (dz[i] + dz[i + 1] - 2.0 * secant) / (h * h),
            ))

    def __call__(self, x: float) -> float:
        i = bisect.bisect_right(self.x_nodes, x, 1, 32 - 1) - 1
        z, d, c2, c3 = self._cubics[i]
        dx = x - self.x_nodes[i]
        return z + dx * (d + dx * (c2 + dx * c3))


def parent_invert_decreasing(func, integrand, x_hat: float, name: str, top: float, seed) -> float:
    """The bracketed Newton inversion as first written, kept verbatim: the
    three refusals tested one by one, then Newton from the clamped seed."""
    if not x_hat >= 0.0:
        raise DomainError(f"target value must be nonnegative, got {x_hat}")
    if x_hat == 0.0:
        return 1.0
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


# certify and full_certificate as written with a two-pass decision (a
# conversion pass, then a sum pass), kept verbatim with their helper _sq
def _sq(v: float) -> float:
    """v ** 2, or inf where the float power overflows (it raises there).

    ``v ** 2`` is kept rather than ``v * v``: the two differ in the last bit
    for some inputs, and decisions at the threshold depend on those bits.
    """
    try:
        return v ** 2
    except OverflowError:
        return math.inf


def parent_decide(lhats) -> tuple:
    """Fields per_cusp_lhat (as floats) to tube_radius_floor, after certify's
    checks; records are built on them with tuple.__new__, not NamedTuple's."""
    # a list or tuple, the usual argument, passes at the first and cheaper test
    if not isinstance(lhats, (list, tuple)) and (
        isinstance(lhats, (str, bytes, bytearray))
        or isinstance(lhats, memoryview) and lhats.format in ("B", "b", "c")
        and isinstance(lhats.obj, (bytes, bytearray))
    ):
        raise DomainError(f"normalized lengths must be numbers, not a string: {lhats!r}")
    values = []
    positive = True
    for v in lhats:
        if type(v) is not float:  # a float is taken as it is, a string refused
            if isinstance(v, (str, bytes, bytearray)):
                raise DomainError(f"normalized lengths must be numbers, not a string: {v!r}")
            v = float(v)
        values.append(v)
        positive = positive and v > 0.0
    if not values:
        raise DomainError("need at least one normalized length")
    if not positive:
        raise DomainError(f"normalized lengths must be positive, got {values}")
    try:
        inv_sq = sum([1.0 / v ** 2 for v in values])
    except (OverflowError, ZeroDivisionError):  # some Lhat_i^2 overflows or underflows
        squares = [_sq(v) for v in values]
        inv_sq = math.inf if 0.0 in squares else sum([1.0 / sq for sq in squares])
    if not 0.0 < inv_sq < math.inf:
        reason = (
            "0: every cusp is unfilled or too long" if inv_sq == 0.0
            else "not finite: a cusp is too short"
        )
        raise DomainError(f"sum of 1/Lhat^2 is {reason} (normalized lengths {values})")
    margin = _INV_C_SQ - inv_sq
    if margin > 0.0:
        return tuple(values), 1.0 / math.sqrt(inv_sq), True, margin, R0
    return tuple(values), 1.0 / math.sqrt(inv_sq), False, margin, None


def parent_certify(lhats) -> FillingCertificate:
    """Decision-only certificate: certified iff sum(1/Lhat_i^2) < 1/C^2.
    Raises DomainError for a str, bytes or bytearray, as the argument or as
    one of its elements, or a byte or char view of bytes (their characters
    are not lengths); for no or non-positive lengths; or when the sum is 0
    or not finite (Lhat_i^2 underflows, or a term or the sum overflows)."""
    return tuple.__new__(FillingCertificate, parent_decide(lhats) + (None,) * 5)


def parent_full_certificate(lhats) -> FillingCertificate:
    """Certificate with geometric bounds filled in when certified."""
    decision = parent_decide(lhats)
    if not decision[2]:
        return tuple.__new__(FillingCertificate, decision + (None,) * 5)
    env = envelope_bounds(decision[1])
    bounds = env.volume_drop, env.visual_area, env.core_length_hi, env.z_hat, env.z_tilde
    return tuple.__new__(FillingCertificate, decision + bounds)
