"""Spectral evaluation of the boundary quadratic form.

The boundary term whose sign controls infinitesimal rigidity is, for a
tubular boundary with principal curvatures k1, k2 and the perturbed
tangential operator with parameter epsilon,

    b = (1/4) sum_{i,j} (3 - k_i^2) k_j ||grad_i sigma_j||^2
        + (eps/2) int ((k2 - eps/2) a1^2 + (k1 - eps/2) a2^2) dA,

where sigma = sigma_1 theta_1 + sigma_2 theta_2 is a tangential 1-form in
the parallel principal frame and a1, a2 are the components of delta(d sigma).
It is non-negative whenever 1/sqrt(3) <= k1 <= k2 <= sqrt(3) and
eps <= 2*k1; ``BoundaryCurvature.in_positivity_window`` tests that window.
A tube of radius R has principal curvatures coth R and tanh R, whose product
is 1, so ``BoundaryCurvature`` takes k1 and derives k2 = 1/k1.

We evaluate b exactly (up to floating point) on finite Fourier sums over
the unit-area square flat torus: derivatives act as multiplication by
2*pi*(m, n) per mode, and L2 norms follow from Parseval, so b splits into
a sum of per-mode 2x2 forms (see ``boundary_form_b``).  Their smallest
eigenvalue is the exact minimum of b on unit forms (``exact_min_b``).  The
quadratic form depends on the flat metric only through L2 norms, and another
flat torus only moves the modes to other wave vectors, so the square torus
stands for every flat torus in the sign of the minimum, not in its value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "BoundaryCurvature",
    "FourierMode1Form",
    "boundary_form_b",
    "mode_min_eigenvalue",
    "exact_min_b",
    "scan_min_b",
    "random_form",
    "random_modes",
]

#: Random and exact forms use the nonzero frequencies with |m|, |n| <= MAX_FREQ.
MAX_FREQ = 3

#: Random forms have this many distinct pair classes of modes.
N_MODES = 8

#: Largest k1, k2 or epsilon accepted.  At this cap the per-mode coefficients
#: a1, a2 and w*kappa^2 of b stay below 9e121 for |m|, |n| <= MAX_FREQ, so the
#: products q11*q22 and q12^2 of the 2x2 eigenvalue problem stay below 1e244.
MAX_CURVATURE = 1e40


@dataclass(frozen=True)
class BoundaryCurvature:
    """Principal curvatures k1 and k2 = 1/k1 of a tubular boundary plus the
    form parameter; k2 is derived, not passed."""

    k1: float
    epsilon: float = field(default=0.0, kw_only=True)
    k2: float = field(init=False)

    def __post_init__(self):
        # k2 is NaN for k1 <= 0 or NaN (refused undivided), 0 for k1 = inf and inf
        # for k1 < 1/DBL_MAX, so one test on k2 refuses every k1 that is no tube
        k2 = 1.0 / self.k1 if self.k1 > 0.0 else math.nan
        if not 0.0 < k2 < math.inf:
            raise DomainError(f"curvatures must be positive and finite, got {self.k1}, {k2}")
        object.__setattr__(self, "k2", k2)
        if not 0.0 <= self.epsilon < math.inf:
            raise DomainError(f"epsilon must be finite and nonnegative, got {self.epsilon}")
        if max(self.k1, self.k2, self.epsilon) > MAX_CURVATURE:
            raise DomainError(
                f"k1, k2 and epsilon must be at most {MAX_CURVATURE:g}, beyond which "
                f"the per-mode form b overflows; got k1={self.k1}, k2={self.k2}, "
                f"epsilon={self.epsilon}"
            )

    def in_positivity_window(self) -> bool:
        """Whether 1/sqrt(3) <= k1, k2 <= sqrt(3), with slack 1e-12, and
        eps <= 2*min(k1, k2): the window where b is nonnegative.  As k1*k2 = 1,
        max(k1, k2) <= sqrt(3) + 1e-12 puts min(k1, k2) above 1/sqrt(3) - 4e-13."""
        return (
            max(self.k1, self.k2) <= math.sqrt(3.0) + 1e-12
            and self.epsilon <= 2.0 * min(self.k1, self.k2)
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
            for key, val in (((m, n), (c1, c2)), ((-m, -n), (c1.conjugate(), c2.conjugate()))):
                # a constant mode is its own conjugate, so it must be real
                old = full.setdefault(key, val)
                if abs(old[0] - val[0]) > 1e-14 or abs(old[1] - val[1]) > 1e-14:
                    raise DomainError(f"mode {key} violates the reality constraint")
        self.modes = full


#: One frequency (m, n) from each pair {(m, n), (-m, -n)} of nonzero
#: frequencies with |m|, |n| <= MAX_FREQ: 24 rows, m ascending, then n.
_PAIR_CLASSES = np.array([
    (m, n) for m in range(-MAX_FREQ, MAX_FREQ + 1) for n in range(-MAX_FREQ, MAX_FREQ + 1)
    if m > 0 or (m == 0 and n > 0)
])
_KAPPA = 2.0 * math.pi * _PAIR_CLASSES  # their wave vectors 2*pi*(m, n)


def _draw(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair-class picks and Gaussians (Re c1, Im c1, Re c2, Im c2) of ``count`` forms."""
    pick = np.argsort(rng.random((count, len(_PAIR_CLASSES))), axis=1)[:, :N_MODES]
    return pick, rng.standard_normal((count, N_MODES, 4))


def random_modes(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` random real 1-forms, each with N_MODES distinct pair
    classes drawn uniformly from the nonzero frequencies with
    |m|, |n| <= MAX_FREQ, and standard complex Gaussian coefficients.

    Returns (freqs, c1, c2) of shapes (count, N_MODES, 2), (count, N_MODES)
    and (count, N_MODES).  Each row lists one frequency per pair class; its
    conjugate mode is implied, and the row has unit coefficient norm
    counting conjugates: 2 * sum(|c1|^2 + |c2|^2) = 1.
    """
    pick, g = _draw(rng, count)
    g /= np.sqrt(2.0 * np.sum(g * g, axis=(1, 2)))[:, None, None]
    return _PAIR_CLASSES[pick], g[..., 0] + 1j * g[..., 1], g[..., 2] + 1j * g[..., 3]


def random_form(rng: np.random.Generator) -> FourierMode1Form:
    """A random real 1-form with N_MODES independent nonzero modes,
    scaled to unit coefficient norm (one row of :func:`random_modes`)."""
    freqs, c1, c2 = random_modes(rng, 1)
    return FourierMode1Form(
        {(int(m), int(n)): (a, b) for (m, n), a, b in zip(freqs[0], c1[0], c2[0])}
    )


def _mode_coefficients(curv: BoundaryCurvature, kap1, kap2):
    """(a1, a2, w) with a mode's b = a1 |c1|^2 + a2 |c2|^2 + w |kap2 c1 - kap1 c2|^2: the one
    formula for b, in plain arithmetic, so arrays and symbols pass through alike."""
    k1, k2, eps = curv.k1, curv.k2, curv.epsilon
    sq1, sq2 = kap1 * kap1, kap2 * kap2
    area = (3.0 - k1 * k1) * sq1 + (3.0 - k2 * k2) * sq2
    w = (eps / 2.0) * ((k2 - eps / 2.0) * sq2 + (k1 - eps / 2.0) * sq1)
    return area * (k1 / 4.0), area * (k2 / 4.0), w


def _abs2(c):
    return np.real(c) ** 2 + np.imag(c) ** 2


def boundary_form_b(curv: BoundaryCurvature, sigma: FourierMode1Form) -> float:
    """Evaluate the boundary quadratic form b on a finite Fourier sum: the
    sum over its modes of each mode's b.  For a mode with wave vector
    kappa = 2*pi*(m, n) and coefficients (c1, c2), with
    A = (3 - k1^2) kappa1^2 + (3 - k2^2) kappa2^2,

        b = (1/4) A (k1 |c1|^2 + k2 |c2|^2)
            + (eps/2) |kappa2 c1 - kappa1 c2|^2
              ((k2 - eps/2) kappa2^2 + (k1 - eps/2) kappa1^2):

    gradients multiply by the wave vector, and delta(d sigma) has
    components (kappa2, -kappa1) * (kappa2 c1 - kappa1 c2).  The form is
    even in kappa, so a mode and its conjugate contribute equally.
    """
    kap1, kap2 = 2.0 * math.pi * np.array(list(sigma.modes), dtype=float).reshape(-1, 2).T
    c1, c2 = np.array(list(sigma.modes.values()), dtype=complex).reshape(-1, 2).T
    a1, a2, w = _mode_coefficients(curv, kap1, kap2)
    return float(np.sum(a1 * _abs2(c1) + a2 * _abs2(c2) + w * _abs2(kap2 * c1 - kap1 * c2)))


_SCAN_BLOCK = 1024  # trials per batch: bounds the scan's memory for any trial count

#: Largest trial count accepted by scan_min_b: about 3 s of scanning at 1.9-2.3 us
#: per trial, half of it drawing (scans at this cap on a 2-vCPU x86-64 host).
MAX_TRIALS = 1_500_000


def _row_b(table, pick, g) -> np.ndarray:
    """b of each unit form g / sqrt(2 sum g^2) from raw draws (pick, g), with the
    table's columns (a1, a2, w, kap1, kap2) per class: a mode and its conjugate
    count twice.  The modes are flattened so each numpy call is one long loop."""
    a1, a2, w, kap1, kap2 = np.take(table, pick.ravel(), axis=1)
    g1, h1, g2, h2 = g.reshape(-1, 4).T
    re, im = kap2 * g1 - kap1 * g2, kap2 * h1 - kap1 * h2  # kap2 c1 - kap1 c2
    b = a1 * (g1 * g1 + h1 * h1) + a2 * (g2 * g2 + h2 * h2) + w * (re * re + im * im)
    return b.reshape(pick.shape).sum(axis=-1) / (g * g).sum(axis=(-2, -1))


def scan_min_b(curv: BoundaryCurvature, rng: int | np.random.Generator, trials: int) -> float:
    """Minimum of b over ``trials`` random unit forms, drawn as
    :func:`random_modes` draws them, in blocks of 1024 from
    ``np.random.default_rng(rng)``: a Generator is used as it is, a seed
    starts a fresh one.  Refuses counts below 1 or above MAX_TRIALS before
    seeding or drawing anything."""
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    if trials > MAX_TRIALS:
        raise DomainError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    rng = np.random.default_rng(rng)
    kap1, kap2 = _KAPPA.T
    table = np.array([*_mode_coefficients(curv, kap1, kap2), kap1, kap2])  # 5 x 24
    b_min = math.inf
    for start in range(0, trials, _SCAN_BLOCK):
        b = _row_b(table, *_draw(rng, min(_SCAN_BLOCK, trials - start)))
        b_min = min(b_min, float(b.min()))
    return b_min


def _mode_matrix(curv: BoundaryCurvature, kap1, kap2):
    """(q11, q22, q12): the real symmetric matrix Q of each mode's form (c1, c2) -> b."""
    a1, a2, w = _mode_coefficients(curv, kap1, kap2)
    return a1 + w * kap2 ** 2, a2 + w * kap1 ** 2, -w * kap1 * kap2


def mode_min_eigenvalue(curv: BoundaryCurvature, kappa) -> np.ndarray:
    """Smallest eigenvalue of each mode's form (c1, c2) -> b.

    That form is a real symmetric 2x2 matrix Q, read directly off the
    coefficients of b (no polarization).  The eigenvalue of larger magnitude
    is tr/2 +- r with r = hypot((q11 - q22)/2, q12) and the sign of tr; the
    other is det over it, which avoids the cancellation in tr/2 -+ r when it
    is near 0.
    """
    kappa = np.asarray(kappa, dtype=float)
    q11, q22, q12 = _mode_matrix(curv, kappa[..., 0], kappa[..., 1])
    half_tr = (q11 + q22) / 2.0
    big = half_tr + np.copysign(np.hypot((q11 - q22) / 2.0, q12), half_tr)
    det = q11 * q22 - q12 * q12
    return np.minimum(big, det / np.where(big == 0.0, 1.0, big))  # big == 0 only if Q == 0


def exact_min_b(curv: BoundaryCurvature) -> tuple[float, tuple[int, int]]:
    """Exact minimum of b over unit-norm real forms whose modes are nonzero
    with |m|, |n| <= MAX_FREQ, and a frequency (m, n) that attains it.

    b is a sum of per-mode forms and the norm a sum of per-mode norms, so
    the minimum is the smallest eigenvalue over the pair classes.
    """
    lam = mode_min_eigenvalue(curv, _KAPPA)
    i = int(np.argmin(lam))
    return float(lam[i]), (int(_PAIR_CLASSES[i, 0]), int(_PAIR_CLASSES[i, 1]))
