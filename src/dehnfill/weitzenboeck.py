"""Spectral evaluation of the boundary quadratic form and ellipticity data.

The boundary term whose sign controls infinitesimal rigidity is, for a
tubular boundary with principal curvatures k1, k2 (k1*k2 = 1) and the
perturbed tangential operator with parameter epsilon,

    b = (1/4) sum_{i,j} (3 - k_i^2) k_j ||grad_i sigma_j||^2
        + (eps/2) int ((k2 - eps/2) a1^2 + (k1 - eps/2) a2^2) dA,

where sigma = sigma_1 theta_1 + sigma_2 theta_2 is a tangential 1-form in
the parallel principal frame and a1, a2 are the components of delta(d sigma).
It is non-negative whenever 1/sqrt(3) <= k1 <= k2 <= sqrt(3) and
eps <= 2*k1; ``BoundaryCurvature.in_positivity_window`` tests that window.

We evaluate b exactly (up to floating point) on finite Fourier sums over
the unit-area square flat torus: derivatives act as multiplication by
2*pi*(m, n) per mode, and L2 norms follow from Parseval, so b splits into
a sum of per-mode 2x2 forms (``mode_b``).  Their smallest eigenvalue is the
exact minimum of b on unit forms (``exact_min_b``).  The quadratic form
depends on the flat metric only through L2 norms, so the square torus
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
    "mode_b",
    "mode_min_eigenvalue",
    "exact_min_b",
    "scan_min_b",
    "symbol_matrix_LS",
    "epsilon_zero_kernel",
    "random_form",
    "random_modes",
]

_CURV_TOL = 1e-12

#: Largest k1, k2 or epsilon accepted.  Each per-mode term of b is cubic in
#: them, and the 2x2 eigenvalue problem multiplies two terms, so at this cap
#: every intermediate stays below 1e250 for frequencies |m|, |n| <= 3.
MAX_CURVATURE = 1e40


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
        if max(self.k1, self.k2, self.epsilon) > MAX_CURVATURE:
            raise DomainError(
                f"k1, k2 and epsilon must be at most {MAX_CURVATURE:g}, beyond which "
                f"the per-mode form b overflows; got k1={self.k1}, k2={self.k2}, "
                f"epsilon={self.epsilon}"
            )

    def in_positivity_window(self) -> bool:
        """Whether 1/sqrt(3) <= k1, k2 <= sqrt(3), with slack 1e-12 at both
        ends, and eps <= 2*min(k1, k2): the window where b is nonnegative."""
        k_min = min(self.k1, self.k2)
        return (
            1.0 / math.sqrt(3.0) - 1e-12 <= k_min
            and max(self.k1, self.k2) <= math.sqrt(3.0) + 1e-12
            and self.epsilon <= 2.0 * k_min
        )


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


def _pair_classes(max_freq: int) -> np.ndarray:
    """One frequency (m, n) from each pair {(m, n), (-m, -n)} of nonzero
    frequencies with |m|, |n| <= max_freq, as an int array of shape (P, 2)."""
    r = np.arange(-max_freq, max_freq + 1)
    m, n = (a.ravel() for a in np.meshgrid(r, r, indexing="ij"))
    keep = (m > 0) | ((m == 0) & (n > 0))
    return np.stack([m[keep], n[keep]], axis=-1)


def random_modes(
    rng: np.random.Generator, count: int, n_modes: int = 8, max_freq: int = 3
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` random real 1-forms, each with ``n_modes`` distinct pair
    classes drawn uniformly from the nonzero frequencies with
    |m|, |n| <= max_freq, and standard complex Gaussian coefficients.

    Returns (freqs, c1, c2) of shapes (count, n_modes, 2), (count, n_modes)
    and (count, n_modes).  Each row lists one frequency per pair class; its
    conjugate mode is implied, and the row has unit coefficient norm
    counting conjugates: 2 * sum(|c1|^2 + |c2|^2) = 1.
    """
    classes = _pair_classes(max_freq)
    if not 0 < n_modes <= len(classes):
        raise DomainError(f"need 1 <= n_modes <= {len(classes)}, got {n_modes}")
    pick = np.argsort(rng.random((count, len(classes))), axis=1)[:, :n_modes]
    g = rng.standard_normal((count, n_modes, 4))
    g /= np.sqrt(2.0 * np.sum(g * g, axis=(1, 2)))[:, None, None]
    return classes[pick], g[..., 0] + 1j * g[..., 1], g[..., 2] + 1j * g[..., 3]


def random_form(rng: np.random.Generator, n_modes: int = 8, max_freq: int = 3) -> FourierMode1Form:
    """A random real 1-form with ``n_modes`` independent nonzero modes,
    scaled to unit coefficient norm (one row of :func:`random_modes`)."""
    freqs, c1, c2 = random_modes(rng, 1, n_modes, max_freq)
    return FourierMode1Form(
        {(int(m), int(n)): (a, b) for (m, n), a, b in zip(freqs[0], c1[0], c2[0])}
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


def _abs2(c):
    return np.real(c) ** 2 + np.imag(c) ** 2


def mode_b(curv: BoundaryCurvature, kappa, c1, c2) -> np.ndarray:
    """The boundary form b of single Fourier modes, elementwise.

    ``kappa`` has shape (..., 2) and holds wave vectors 2*pi*(m, n); ``c1``
    and ``c2`` broadcast against ``kappa[..., 0]``.  Per mode, with
    A = (3 - k1^2) kappa1^2 + (3 - k2^2) kappa2^2,

        b = (1/4) A (k1 |c1|^2 + k2 |c2|^2)
            + (eps/2) |kappa2 c1 - kappa1 c2|^2
              ((k2 - eps/2) kappa2^2 + (k1 - eps/2) kappa1^2):

    gradients multiply by the wave vector, and delta(d sigma) has
    components (kappa2, -kappa1) * (kappa2 c1 - kappa1 c2).  The form is
    even in kappa, so a mode and its conjugate contribute equally.
    """
    k1, k2, eps = curv.k1, curv.k2, curv.epsilon
    kappa = np.asarray(kappa, dtype=float)
    kap1_sq, kap2_sq = kappa[..., 0] ** 2, kappa[..., 1] ** 2
    area = (3.0 - k1 * k1) * kap1_sq + (3.0 - k2 * k2) * kap2_sq
    curl = kappa[..., 1] * c1 - kappa[..., 0] * c2
    return 0.25 * area * (k1 * _abs2(c1) + k2 * _abs2(c2)) + (eps / 2.0) * _abs2(curl) * (
        (k2 - eps / 2.0) * kap2_sq + (k1 - eps / 2.0) * kap1_sq
    )


def boundary_form_b(curv: BoundaryCurvature, sigma: FourierMode1Form) -> float:
    """Evaluate the boundary quadratic form b on a finite Fourier sum:
    the sum of :func:`mode_b` over its modes."""
    freqs = np.array(list(sigma.modes), dtype=float).reshape(-1, 2)
    coeffs = np.array(list(sigma.modes.values()), dtype=complex).reshape(-1, 2)
    return float(np.sum(mode_b(curv, 2.0 * math.pi * freqs, coeffs[:, 0], coeffs[:, 1])))


_SCAN_BLOCK = 1024  # trials per batch: bounds the scan's memory for any trial count

#: Largest trial count accepted by scan_min_b: about 0.9 s of scanning at
#: 0.6 us per trial (measured on a 2-vCPU x86-64 host).
MAX_TRIALS = 1_500_000


def scan_min_b(curv: BoundaryCurvature, rng: np.random.Generator, trials: int) -> float:
    """Minimum of b over ``trials`` random unit forms from
    :func:`random_modes`, drawn from ``rng`` in blocks of 1024; refuses
    counts below 1 or above MAX_TRIALS before drawing anything."""
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    if trials > MAX_TRIALS:
        raise DomainError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    b_min = math.inf
    for start in range(0, trials, _SCAN_BLOCK):
        freqs, c1, c2 = random_modes(rng, min(_SCAN_BLOCK, trials - start))
        b = 2.0 * mode_b(curv, 2.0 * math.pi * freqs, c1, c2).sum(axis=-1)
        b_min = min(b_min, float(b.min()))
    return b_min


def mode_min_eigenvalue(curv: BoundaryCurvature, kappa) -> np.ndarray:
    """Smallest eigenvalue of each mode's form (c1, c2) -> mode_b.

    That form is a real symmetric 2x2 matrix Q, read off :func:`mode_b` by
    polarization.  The eigenvalue of larger magnitude is tr/2 +- r with
    r = hypot((q11 - q22)/2, q12) and the sign of tr; the other is det over
    it, which avoids the cancellation in tr/2 -+ r when it is near 0.
    """
    q11 = mode_b(curv, kappa, 1.0, 0.0)
    q22 = mode_b(curv, kappa, 0.0, 1.0)
    q12 = (mode_b(curv, kappa, 1.0, 1.0) - q11 - q22) / 2.0
    half_tr = (q11 + q22) / 2.0
    big = half_tr + np.copysign(np.hypot((q11 - q22) / 2.0, q12), half_tr)
    det = q11 * q22 - q12 * q12
    return np.minimum(big, det / np.where(big == 0.0, 1.0, big))  # big == 0 only if Q == 0


def exact_min_b(curv: BoundaryCurvature, max_freq: int = 3) -> tuple[float, tuple[int, int]]:
    """Exact minimum of b over unit-norm real forms whose modes are nonzero
    with |m|, |n| <= max_freq, and a frequency (m, n) that attains it.

    b is a sum of per-mode forms and the norm a sum of per-mode norms, so
    the minimum is the smallest eigenvalue over the pair classes.
    """
    classes = _pair_classes(max_freq)
    lam = mode_min_eigenvalue(curv, 2.0 * math.pi * classes)
    i = int(np.argmin(lam))
    return float(lam[i]), (int(classes[i, 0]), int(classes[i, 1]))


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
