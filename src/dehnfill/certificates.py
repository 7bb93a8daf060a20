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

with the core-length bound visual_area_hi/(2*pi) for a smooth core.  Both
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
    "volume_drop_bounds",
    "visual_area_bounds",
    "core_length_bound",
    "schlafli_dV",
    "figure_data",
    "certificate_to_json",
]

#: Universal certification threshold, stored as the literal decimal.
UNIVERSAL_C = 7.5832

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
    volume_drop: tuple[float, float] | None
    visual_area: tuple[float, float] | None
    core_length_hi: float | None
    z_hat: float | None
    z_tilde: float | None


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


def combine_normalized_lengths(lhats) -> float:
    """Combined multi-cusp normalized length: 1/Lhat^2 = sum(1/Lhat_i^2)."""
    lhats = list(lhats)
    if not lhats:
        raise DomainError("need at least one normalized length")
    if any(not v > 0.0 for v in lhats):
        raise DomainError(f"normalized lengths must be positive, got {lhats}")
    inv_sq = sum(1.0 / v ** 2 for v in lhats)
    if inv_sq == 0.0:
        raise DomainError(f"every cusp is unfilled (normalized lengths {lhats})")
    return 1.0 / math.sqrt(inv_sq)


def certify(lhats) -> FillingCertificate:
    """Decision-only certificate: certified iff sum(1/Lhat_i^2) < 1/C^2."""
    lhats = tuple(float(v) for v in lhats)
    combined = combine_normalized_lengths(lhats)
    margin = 1.0 / UNIVERSAL_C ** 2 - sum(1.0 / v ** 2 for v in lhats)
    certified = margin > 0.0
    return FillingCertificate(
        per_cusp_lhat=lhats,
        combined_lhat=combined,
        certified=certified,
        margin=margin,
        tube_radius_floor=R0 if certified else None,
        volume_drop=None,
        visual_area=None,
        core_length_hi=None,
        z_hat=None,
        z_tilde=None,
    )


def _zhat_ztilde(lhat: float) -> tuple[float, float]:
    if not lhat >= UNIVERSAL_C:
        raise UncertifiableError(
            f"uncertifiable: normalized length {lhat} below threshold {UNIVERSAL_C}"
        )
    x_hat = (2.0 * math.pi) ** 2 / lhat ** 2
    return invert_f(x_hat), invert_ftilde(x_hat)


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


def volume_drop_bounds(lhat: float) -> tuple[float, float]:
    """Rigorous (lo, hi) bounds on the volume decrease during filling."""
    z_hat, z_tilde = _zhat_ztilde(lhat)
    return _dv_lower_from_z(z_tilde), _dv_upper_from_z(z_hat)


def visual_area_bounds(lhat: float) -> tuple[float, float]:
    """(lo, hi) bounds on the total visual area of the filled boundary."""
    z_hat, z_tilde = _zhat_ztilde(lhat)
    return _area_from_z(z_tilde), _area_from_z(z_hat)


def core_length_bound(lhat: float) -> float:
    """Upper bound on the core geodesic length: visual_area_hi / (2*pi)."""
    return visual_area_bounds(lhat)[1] / (2.0 * math.pi)


def full_certificate(lhats) -> FillingCertificate:
    """Certificate with geometric bounds filled in when certified."""
    cert = certify(lhats)
    if not cert.certified:
        return cert
    lhat = cert.combined_lhat
    z_hat, z_tilde = _zhat_ztilde(lhat)
    dv = (_dv_lower_from_z(z_tilde), _dv_upper_from_z(z_hat))
    area = (_area_from_z(z_tilde), _area_from_z(z_hat))
    return FillingCertificate(
        per_cusp_lhat=cert.per_cusp_lhat,
        combined_lhat=lhat,
        certified=True,
        margin=cert.margin,
        tube_radius_floor=R0,
        volume_drop=dv,
        visual_area=area,
        core_length_hi=area[1] / (2.0 * math.pi),
        z_hat=z_hat,
        z_tilde=z_tilde,
    )


def schlafli_dV(step: SchlafliStep) -> float:
    """Variation in volume dV = -(A/(2*alpha)) d(alpha)."""
    return -step.visual_area / (2.0 * step.alpha) * step.d_alpha


def certificate_to_json(cert: FillingCertificate) -> str:
    """Serialize a certificate with exactly its field names, as strict JSON;
    an unfilled cusp (Lhat = inf) is written as null."""
    doc = {
        "per_cusp_lhat": [None if v == math.inf else v for v in cert.per_cusp_lhat],
        "combined_lhat": cert.combined_lhat,
        "certified": cert.certified,
        "margin": cert.margin,
        "tube_radius_floor": cert.tube_radius_floor,
        "volume_drop": list(cert.volume_drop) if cert.volume_drop else None,
        "visual_area": list(cert.visual_area) if cert.visual_area else None,
        "core_length_hi": cert.core_length_hi,
        "z_hat": cert.z_hat,
        "z_tilde": cert.z_tilde,
    }
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
    rows = np.empty((samples, len(FIGURE_HEADERS[which])))
    for i, x in enumerate(xs.tolist()):  # Python floats: scalar math on np.float64 is slow
        z_hat = invert_f(x)
        z_tilde = invert_ftilde(x)
        if which == 1:
            rows[i] = (x, _area_from_z(z_tilde), _area_from_z(z_hat))
        elif which == 2:
            rows[i] = (x, _dv_lower_from_z(z_tilde), _dv_upper_from_z(z_hat), x / 4.0)
        else:
            rows[i] = (x, _area_from_z(z_tilde), _area_from_z(z_hat), x)
    return FIGURE_HEADERS[which], rows
