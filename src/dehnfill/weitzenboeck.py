"""Spectral evaluation of the boundary quadratic form and ellipticity data.

The boundary term whose sign controls infinitesimal rigidity is, for a
tubular boundary with principal curvatures k1, k2 (k1*k2 = 1) and the
perturbed tangential operator with parameter epsilon,

    b = (1/4) sum_{i,j} (3 - k_i^2) k_j ||grad_i sigma_j||^2
        + (eps/2) int ((k2 - eps/2) a1^2 + (k1 - eps/2) a2^2) dA,

where sigma = sigma_1 theta_1 + sigma_2 theta_2 is a tangential 1-form in
the parallel principal frame and a1, a2 are the components of delta(d sigma).
It is non-negative whenever 1/sqrt(3) <= k1 <= k2 <= sqrt(3) and
eps <= 2*k1.

We evaluate b exactly (up to floating point) on finite Fourier sums over
the unit-area square flat torus: derivatives act as multiplication by
2*pi*(m, n) per mode, and L2 norms follow from Parseval.  The quadratic
form depends on the flat metric only through L2 norms, so the square torus
loses no generality.  The same module carries the coefficient record
(a, b, c, xi, w) of the boundary-torus contribution in standard form, and
the principal symbol computations behind ellipticity of the perturbed
boundary value problem (including the explicit epsilon = 0 kernel showing
the unperturbed problem is not elliptic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "BoundaryCurvature",
    "FourierMode1Form",
    "StandardFormCoefficients",
    "standard_form_coeffs",
    "boundary_form_b",
    "symbol_matrix_LS",
    "epsilon_zero_kernel",
    "random_form",
]

_CURV_TOL = 1e-12


@dataclass(frozen=True)
class BoundaryCurvature:
    """Principal curvatures of a tubular boundary plus the form parameter."""

    k1: float
    k2: float
    epsilon: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.k1 < math.inf and 0.0 < self.k2 < math.inf):
            raise DomainError(f"curvatures must be positive and finite, got {self.k1}, {self.k2}")
        if abs(self.k1 * self.k2 - 1.0) > _CURV_TOL:
            raise DomainError(
                f"tubular boundary needs k1*k2 = 1, got {self.k1 * self.k2}"
            )
        if not 0.0 <= self.epsilon < math.inf:
            raise DomainError(f"epsilon must be finite and nonnegative, got {self.epsilon}")


class FourierMode1Form:
    """A tangential 1-form on the unit-area square torus as a finite Fourier sum.

    ``modes`` maps integer frequencies (m, n) to coefficient pairs
    (c1, c2) of the components along theta_1, theta_2; the stored map is
    closed under (m, n) -> (-m, -n) with conjugate coefficients so that
    the form is real.  Missing conjugate entries are filled in on
    construction; conflicting ones raise.
    """

    def __init__(self, modes: dict[tuple[int, int], tuple[complex, complex]]):
        full: dict[tuple[int, int], tuple[complex, complex]] = {}
        for (m, n), (c1, c2) in modes.items():
            c1, c2 = complex(c1), complex(c2)
            conj = (complex(c1).conjugate(), complex(c2).conjugate())
            for key, val in (((m, n), (c1, c2)), ((-m, -n), conj)):
                if key in full:
                    if abs(full[key][0] - val[0]) > 1e-14 or abs(full[key][1] - val[1]) > 1e-14:
                        raise DomainError(f"mode {key} violates the reality constraint")
                else:
                    full[key] = val
        if (0, 0) in full and (abs(full[0, 0][0].imag) > 1e-14 or abs(full[0, 0][1].imag) > 1e-14):
            raise DomainError("constant mode must be real")
        self.modes = full

    def coefficient_norm_sq(self) -> float:
        """Parseval: the L2 norm squared of (sigma_1, sigma_2)."""
        return sum(abs(c1) ** 2 + abs(c2) ** 2 for c1, c2 in self.modes.values())


def random_form(rng: np.random.Generator, n_modes: int = 8, max_freq: int = 3) -> FourierMode1Form:
    """A random real 1-form with ``n_modes`` independent nonzero modes,
    scaled to unit coefficient norm."""
    modes: dict[tuple[int, int], tuple[complex, complex]] = {}
    while len(modes) < n_modes:
        m = int(rng.integers(-max_freq, max_freq + 1))
        n = int(rng.integers(-max_freq, max_freq + 1))
        if (m, n) == (0, 0) or (m, n) in modes or (-m, -n) in modes:
            continue
        c = rng.standard_normal(4)
        modes[m, n] = (complex(c[0], c[1]), complex(c[2], c[3]))
    form = FourierMode1Form(modes)
    scale = 1.0 / math.sqrt(form.coefficient_norm_sq())
    return FourierMode1Form(
        {k: (scale * v[0], scale * v[1]) for k, v in form.modes.items()}
    )


@dataclass(frozen=True)
class StandardFormCoefficients:
    """Coefficient record of the boundary-torus contribution in standard form.

    The quadratic a*(X^2 + Y^2) + b*X + c completes to
    a*((X + xi)^2 + Y^2) + const with xi = b/(2a) and
    w^2 = (b^2 - 4ac)/(4a^2), yielding the bounds
    -w - xi <= weighted mean of X <= w - xi.
    """

    a: float
    b: float
    c: float
    xi: float
    w: float
    x_ratio_bounds: tuple[float, float]


def standard_form_coeffs(R: float) -> StandardFormCoefficients:
    """Coefficients (a, b, c, xi, w) at tube radius R.

    a = -(sinh^2 R / cosh^2 R)(2 cosh^2 R + 1), b = -2/cosh^2 R,
    c = (2 cosh^2 R - 1)/(sinh^2 R cosh^2 R),
    xi = 1/(sinh^2 R (2 cosh^2 R + 1)),
    w = 2 cosh^2 R / (sinh^2 R (2 cosh^2 R + 1)).
    """
    if not (R > 0.0 and math.isfinite(R)):
        raise DomainError(f"tube radius must be positive and finite, got {R}")
    sh2 = math.sinh(R) ** 2
    ch2 = math.cosh(R) ** 2
    a = -(sh2 / ch2) * (2.0 * ch2 + 1.0)
    b = -2.0 / ch2
    c = (2.0 * ch2 - 1.0) / (sh2 * ch2)
    xi = 1.0 / (sh2 * (2.0 * ch2 + 1.0))
    w = 2.0 * ch2 / (sh2 * (2.0 * ch2 + 1.0))
    return StandardFormCoefficients(
        a=a, b=b, c=c, xi=xi, w=w, x_ratio_bounds=(-w - xi, w - xi)
    )


def boundary_form_b(curv: BoundaryCurvature, sigma: FourierMode1Form) -> float:
    """Evaluate the boundary quadratic form b on a finite Fourier sum.

    Per mode with wave vector kappa = 2*pi*(m, n): gradients multiply by
    the frequency components, and delta(d sigma) has coefficients
    [[kappa2^2, -kappa1*kappa2], [-kappa1*kappa2, kappa1^2]] @ (c1, c2).
    """
    k1, k2, eps = curv.k1, curv.k2, curv.epsilon
    ks = (k1, k2)
    grad2 = np.zeros((2, 2))  # ||grad_i sigma_j||^2
    a1_sq = 0.0
    a2_sq = 0.0
    two_pi = 2.0 * math.pi
    for (m, n), (c1, c2) in sigma.modes.items():
        kap1, kap2 = two_pi * m, two_pi * n
        for i, kap in ((0, kap1), (1, kap2)):
            grad2[i, 0] += kap * kap * abs(c1) ** 2
            grad2[i, 1] += kap * kap * abs(c2) ** 2
        a1 = kap2 * kap2 * c1 - kap1 * kap2 * c2
        a2 = -kap1 * kap2 * c1 + kap1 * kap1 * c2
        a1_sq += abs(a1) ** 2
        a2_sq += abs(a2) ** 2
    total = 0.0
    for i in range(2):
        for j in range(2):
            total += (3.0 - ks[i] ** 2) * ks[j] * grad2[i, j]
    total /= 4.0
    total += (eps / 2.0) * ((k2 - eps / 2.0) * a1_sq + (k1 - eps / 2.0) * a2_sq)
    return total


def symbol_matrix_LS(k: float, zeta: tuple[float, float]) -> tuple[np.ndarray, float]:
    """Principal symbol diag(k^2 a^2 + b^2, a^2 + k^-2 b^2) and its determinant.

    Positive determinant for every zeta != 0, so the perturbed second
    boundary operator is invertible on each nonzero frequency.
    """
    if not k > 0.0:
        raise DomainError(f"curvature must be positive, got {k}")
    a, b = zeta
    mat = np.diag([k * k * a * a + b * b, a * a + b * b / (k * k)])
    return mat, float(mat[0, 0] * mat[1, 1])


def epsilon_zero_kernel(zeta: tuple[float, float]) -> tuple[float, np.ndarray]:
    """Nontrivial kernel of the unperturbed (epsilon = 0) symbol system.

    Returns (h0, sigma0) with h0 = 1 and i*sigma0 = h0 * zeta/|zeta|,
    solving h0*|zeta| - i zeta.sigma0 = 0 and sigma0*|zeta| + i h0 zeta = 0.
    """
    z = np.asarray(zeta, dtype=float)
    norm = float(np.hypot(z[0], z[1]))
    if norm == 0.0:
        raise DomainError("zeta must be nonzero")
    h0 = 1.0
    sigma0 = -1j * h0 * z / norm
    return h0, sigma0
