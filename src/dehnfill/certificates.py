"""Decision procedure and geometric bounds for certified Dehn fillings.

A surgery coefficient is certified hyperbolic-fillable when the normalized
lengths Lhat_i of its components satisfy sum(1/Lhat_i^2) < 1/C^2 with the
universal constant C = 7.5832 (strict inequality; equality is reported as
not certified).  The tighter derived value sqrt(57.5041) ~ 7.58315 is
exposed as C_DERIVED, but decisions are governed by the literal 7.5832 the
certified statements use.

For certified inputs the change of geometry is pinned by the envelope:
with x-hat = (2*pi)^2/Lhat^2, z-hat and z-tilde solve f(z-hat) = x-hat and
ftilde(z-tilde) = x-hat, and

    (1/4) int_{z-tilde}^1 H'/(H (H - Gtilde)) <= Delta V
        <= (1/4) int_{z-hat}^1 H'/(H (H + G)),
    1/H(z-tilde) <= visual area <= 1/H(z-hat),

with the core-length bound visual_area_hi/(2*pi) for a smooth core.
``envelope_bounds`` is the one evaluation of all of these.  Both
volume-drop integrands are rational in z and are integrated in closed form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .envelope import POLE, H, f, invert_f, invert_ftilde
from .errors import DomainError, UncertifiableError
from .packing import PACKING, R0

__all__ = [
    "UNIVERSAL_C",
    "C_DERIVED",
    "FillingCertificate",
    "SchlafliStep",
    "combine_normalized_lengths",
    "certify",
    "full_certificate",
    "envelope_bounds",
    "volume_drop_bounds",
    "visual_area_bounds",
    "core_length_bound",
    "schlafli_dV",
    "figure_data",
    "certificate_to_json",
]

#: Universal certification threshold, stored as the literal decimal.
UNIVERSAL_C = 7.5832
_INV_C_SQ = 1.0 / UNIVERSAL_C ** 2

Z0 = 1.0 / math.sqrt(3.0)  # tanh(R0)

C_DERIVED = 7.58315


@dataclass(frozen=True)
class FillingCertificate:
    """Full decision-plus-bounds report for one surgery coefficient.

    Bound fields are None when the input is not certified (the envelope
    does not apply below the threshold).
    """

    per_cusp_lhat: tuple[float, ...]
    combined_lhat: float
    certified: bool
    margin: float  # 1/C^2 - sum(1/Lhat_i^2); certified iff > 0
    tube_radius_floor: float | None
    volume_drop: tuple[float, float] | None = None
    visual_area: tuple[float, float] | None = None
    core_length_hi: float | None = None
    z_hat: float | None = None
    z_tilde: float | None = None


@dataclass(frozen=True)
class SchlafliStep:
    """An infinitesimal radial deformation step: visual area, angle, d(angle)."""

    visual_area: float
    alpha: float
    d_alpha: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if not self.visual_area > 0.0:
            raise DomainError(f"visual area must be positive, got {self.visual_area}")


def _sq(v: float) -> float:
    """v ** 2, or inf where the float power overflows (it raises there).

    ``v ** 2`` is kept rather than ``v * v``: the two differ in the last bit
    for some inputs, and decisions at the threshold depend on those bits.
    """
    try:
        return v ** 2
    except OverflowError:
        return math.inf


def _inv_sq_sum(lhats) -> float:
    """sum(1/Lhat_i^2) over a non-empty sequence of positive normalized
    lengths; raises DomainError otherwise, or when the sum is 0."""
    if not lhats:
        raise DomainError("need at least one normalized length")
    for v in lhats:
        if not v > 0.0:
            raise DomainError(f"normalized lengths must be positive, got {list(lhats)}")
    inv_sq = sum([1.0 / _sq(v) for v in lhats])
    if inv_sq == 0.0:
        raise DomainError(
            "sum of 1/Lhat^2 is 0: every cusp is unfilled or too long "
            f"(normalized lengths {list(lhats)})"
        )
    return inv_sq


def combine_normalized_lengths(lhats) -> float:
    """Combined multi-cusp normalized length: 1/Lhat^2 = sum(1/Lhat_i^2)."""
    return 1.0 / math.sqrt(_inv_sq_sum(list(lhats)))


def certify(lhats) -> FillingCertificate:
    """Decision-only certificate: certified iff sum(1/Lhat_i^2) < 1/C^2."""
    lhats = tuple(map(float, lhats))
    inv_sq = _inv_sq_sum(lhats)
    combined = 1.0 / math.sqrt(inv_sq)
    margin = _INV_C_SQ - inv_sq
    certified = margin > 0.0
    return FillingCertificate(
        per_cusp_lhat=lhats,
        combined_lhat=combined,
        certified=certified,
        margin=margin,
        tube_radius_floor=R0 if certified else None,
    )


_C = PACKING.h_coefficient  # 3.3957
_R2 = math.sqrt(2.0)


def _dv_upper_from_z(z: float) -> float:
    """(1/4) int_z^1 H'/(H (H + G)), integrand 2c w^2 (w^4 + 4w^2 - 1)/(1 + w^2)^3."""
    if z >= 1.0:
        return 0.0
    zz1 = 1.0 + z * z
    return _C / 16.0 * (
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
    if not z > POLE:
        raise DomainError(f"H <= Gtilde at z = {z}; lower bound not applicable")
    rational = 2.0 * (1.0 - z) + (math.pi / 4.0 - math.atan(z)) - (1.0 - z) ** 2 / (1.0 + z * z)
    logs = 0.75 * math.log((z * z + 2.0 * z - 1.0) / (1.0 + 2.0 * z - z * z)) + 0.5 * _R2 * (
        math.log((2.0 - _R2) * (z + 1.0 + _R2) / ((2.0 + _R2) * (z + 1.0 - _R2)))
        - math.log((_R2 + 1.0 - z) / (z - 1.0 + _R2))
    )
    return _C / 4.0 * (rational + logs)


def _area_from_z(z: float) -> float:
    return 0.0 if z >= 1.0 else 1.0 / H(z)


def envelope_bounds(lhat: float) -> tuple:
    """(z_hat, z_tilde, volume_drop, visual_area, core_length_hi) at one
    normalized length Lhat >= C: both envelopes inverted once at
    x-hat = (2*pi)^2/Lhat^2, and every bound read off z-hat and z-tilde.

    volume_drop and visual_area are (lo, hi) pairs; core_length_hi is
    visual_area_hi/(2*pi).  Raises UncertifiableError below C.
    """
    if not lhat >= UNIVERSAL_C:
        raise UncertifiableError(
            f"uncertifiable: normalized length {lhat} below threshold {UNIVERSAL_C}"
        )
    x_hat = (2.0 * math.pi) ** 2 / _sq(lhat)
    z_hat, z_tilde = invert_f(x_hat), invert_ftilde(x_hat)
    dv = (_dv_lower_from_z(z_tilde), _dv_upper_from_z(z_hat))
    area = (_area_from_z(z_tilde), _area_from_z(z_hat))
    return z_hat, z_tilde, dv, area, area[1] / (2.0 * math.pi)


def volume_drop_bounds(lhat: float) -> tuple[float, float]:
    """Rigorous (lo, hi) bounds on the volume decrease during filling."""
    return envelope_bounds(lhat)[2]


def visual_area_bounds(lhat: float) -> tuple[float, float]:
    """(lo, hi) bounds on the total visual area of the filled boundary."""
    return envelope_bounds(lhat)[3]


def core_length_bound(lhat: float) -> float:
    """Upper bound on the core geodesic length: visual_area_hi / (2*pi)."""
    return envelope_bounds(lhat)[4]


def full_certificate(lhats) -> FillingCertificate:
    """Certificate with geometric bounds filled in when certified."""
    cert = certify(lhats)
    if not cert.certified:
        return cert
    z_hat, z_tilde, dv, area, core = envelope_bounds(cert.combined_lhat)
    return FillingCertificate(
        cert.per_cusp_lhat, cert.combined_lhat, True, cert.margin, R0, dv, area, core, z_hat, z_tilde
    )


def schlafli_dV(step: SchlafliStep) -> float:
    """Variation in volume dV = -(A/(2*alpha)) d(alpha)."""
    return -step.visual_area / (2.0 * step.alpha) * step.d_alpha


def certificate_to_json(cert: FillingCertificate) -> str:
    """Serialize a certificate with exactly its field names, as strict JSON;
    an unfilled cusp (Lhat = inf) is written as null."""
    lhats = [None if v == math.inf else v for v in cert.per_cusp_lhat]
    doc = dict(vars(cert), per_cusp_lhat=lhats)
    return json.dumps(doc, indent=2, allow_nan=False)


FIGURE_HEADERS = {
    1: ("x", "area_lower", "area_upper"),
    2: ("x_hat", "volume_drop_lower", "volume_drop_upper", "nz_asymptote"),
    3: ("x_hat", "area_lower", "area_upper", "nz_asymptote"),
}


def figure_data(which: int, samples: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Tabulate the envelope figures on an x grid from 0 to f(1/sqrt(3)).

    Figure 1: visual-area envelope (lower from ftilde, upper from f) versus
    x = alpha^2/Lhat^2.  Figure 2: volume-drop bounds versus
    x_hat = (2*pi)^2/Lhat^2, with the asymptote pi^2/Lhat^2 = x_hat/4.
    Figure 3: visual-area bounds versus x_hat, asymptote (2*pi)^2/Lhat^2
    = x_hat.  Returns (header, rows).
    """
    if which not in FIGURE_HEADERS:
        raise DomainError(f"figure id must be 1, 2 or 3, got {which}")
    if samples < 2:
        raise DomainError(f"need at least 2 samples, got {samples}")
    x_max = f(Z0)
    xs = np.linspace(0.0, x_max, samples)
    width = len(FIGURE_HEADERS[which])
    rows = []
    for x in xs.tolist():  # Python floats: scalar math on np.float64 is slow
        z_hat, z_tilde = invert_f(x), invert_ftilde(x)
        if which == 2:
            rows.append((x, _dv_lower_from_z(z_tilde), _dv_upper_from_z(z_hat), x / 4.0))
        else:  # figure 3 adds the asymptote x to figure 1's columns
            rows.append((x, _area_from_z(z_tilde), _area_from_z(z_hat), x)[:width])
    return FIGURE_HEADERS[which], np.array(rows)
