"""Test-only oracles: the derivative of H and the coefficient functions G
and Gtilde of the differential inequalities, against which the closed forms
in dehnfill.envelope are checked, and the json serialization against which
certificate_to_json is checked.  No package code calls them."""

import json

from dehnfill.errors import DomainError
from dehnfill.packing import PACKING

_COEFF = PACKING.h_coefficient  # 3.3957


def _check_open_unit(z: float):
    if not 0.0 < z < 1.0:
        raise DomainError(f"argument must lie in (0, 1), got {z}")


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
