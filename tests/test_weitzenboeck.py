import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from dehnfill import weitzenboeck
from dehnfill.errors import DomainError
from dehnfill.cli import run
from dehnfill.weitzenboeck import (
    BoundaryCurvature,
    FourierMode1Form,
    boundary_form_b,
    exact_min_b,
    mode_min_eigenvalue,
    random_form,
    random_modes,
    scan_min_b,
)

SQRT3 = math.sqrt(3.0)


def parseval_norm_sq(form):
    """Parseval: the L2 norm squared of (sigma_1, sigma_2), over every stored mode."""
    return sum(abs(c1) ** 2 + abs(c2) ** 2 for c1, c2 in form.modes.values())


class TestBoundaryForm:
    def test_zero_form(self):
        curv = BoundaryCurvature(1.0, epsilon=0.5)
        assert boundary_form_b(curv, FourierMode1Form({})) == 0.0

    def test_negative_outside_certified_range(self):
        # k2 = 2 > sqrt(3), single mode sigma = sin(2 pi x2) theta_2
        curv = BoundaryCurvature(0.5, epsilon=0.0)
        sigma = FourierMode1Form({(0, 1): (0.0, -0.5j)})
        assert boundary_form_b(curv, sigma) == pytest.approx(-math.pi**2, abs=1e-9)

    def test_sharpness_at_sqrt3(self):
        # (3 - k2^2) k2 = 0 at k2 = sqrt(3): any g(x2) theta_2 mode gives 0
        curv = BoundaryCurvature(1.0 / SQRT3, epsilon=0.0)
        sigma = FourierMode1Form({(0, 1): (0.0, 0.3 - 0.7j), (0, 2): (0.0, 0.1j)})
        assert abs(boundary_form_b(curv, sigma)) <= 1e-12

    def test_positivity_region_sampled(self):
        rng = np.random.default_rng(101)
        for _ in range(500):
            k1 = float(rng.uniform(1.0 / SQRT3, 1.0))
            eps = float(rng.uniform(0.0, 2.0 * k1))
            curv = BoundaryCurvature(k1, epsilon=eps)
            sigma = random_form(rng)
            assert boundary_form_b(curv, sigma) >= -1e-9

    def test_curvature_invariant_enforced(self):
        with pytest.raises(DomainError):
            BoundaryCurvature(1.0, epsilon=-0.1)

    def test_reality_constraint(self):
        with pytest.raises(DomainError):
            FourierMode1Form({(1, 0): (1j, 0.0), (-1, 0): (1j, 0.0)})

    def test_unit_norm_random_form(self):
        rng = np.random.default_rng(3)
        form = random_form(rng)
        assert parseval_norm_sq(form) == pytest.approx(1.0, rel=1e-12)
        assert len(form.modes) == 16  # 8 modes plus conjugates


class TestDerivedK2:
    """A tube of radius R has principal curvatures coth R and tanh R, whose
    product is 1, so the record takes k1 and derives k2 = 1/k1."""

    def test_k2_is_not_an_argument(self):
        with pytest.raises(TypeError):
            BoundaryCurvature(0.8, 1.25)
        with pytest.raises(TypeError):
            BoundaryCurvature(0.8, k2=1.25)

    @pytest.mark.parametrize("k1", [
        1.0 / weitzenboeck.MAX_CURVATURE, 1e-20, 1.0 / SQRT3, 0.8, 0.9, 1.0, 1.5, SQRT3, 3.0,
        1e20, weitzenboeck.MAX_CURVATURE,
    ])
    def test_k2_is_the_reciprocal(self, k1):
        curv = BoundaryCurvature(k1, epsilon=0.5)
        assert curv.k2.hex() == (1.0 / k1).hex()
        assert (curv.k1, curv.epsilon) == (k1, 0.5)

    def test_epsilon_defaults_to_zero(self):
        assert BoundaryCurvature(0.8).epsilon == 0.0

    @pytest.mark.parametrize("k1", [0.0, -0.0, -1.0, -math.inf, math.nan])
    def test_no_tube_is_refused_before_dividing(self, k1):
        with pytest.raises(DomainError, match="curvatures must be positive and finite"):
            BoundaryCurvature(k1)

    def test_infinite_epsilon_is_refused_as_such(self):
        with pytest.raises(DomainError, match="epsilon must be finite and nonnegative, got inf"):
            BoundaryCurvature(0.8, epsilon=math.inf)

    @pytest.mark.parametrize("k1, k2", [("inf", "0.0"), ("5e-324", "inf")])
    def test_weitz_names_the_pair(self, capsys, k1, k2):
        assert run(["weitz", "--k1", k1, "--eps", "0"]) == 2
        assert capsys.readouterr() == (
            "", f"curvatures must be positive and finite, got {k1}, {k2}\n")


def direct_b(curv, sigma, num=lambda x: x, pi=math.pi):
    """Reference b: gradients and delta(d sigma) mode by mode, accumulated
    into ||grad_i sigma_j||^2 and ||a_i||^2 before the curvature weights.
    num converts each input and pi is pi: floats by default, or
    mpmath.mpmathify and mpmath.pi for the same formula at mpmath's precision."""
    k1, k2, eps = num(curv.k1), num(curv.k2), num(curv.epsilon)
    ks = (k1, k2)
    grad2 = [[0.0, 0.0], [0.0, 0.0]]
    a1_sq = a2_sq = 0.0
    for (m, n), (c1, c2) in sigma.modes.items():
        c1, c2 = num(c1), num(c2)
        kap1, kap2 = 2.0 * pi * m, 2.0 * pi * n
        for i, kap in ((0, kap1), (1, kap2)):
            grad2[i][0] += kap * kap * abs(c1) ** 2
            grad2[i][1] += kap * kap * abs(c2) ** 2
        a1_sq += abs(kap2 * kap2 * c1 - kap1 * kap2 * c2) ** 2
        a2_sq += abs(-kap1 * kap2 * c1 + kap1 * kap1 * c2) ** 2
    total = sum((3.0 - ks[i] ** 2) * ks[j] * grad2[i][j] for i in range(2) for j in range(2))
    return total / 4.0 + (eps / 2.0) * ((k2 - eps / 2.0) * a1_sq + (k1 - eps / 2.0) * a2_sq)


def reference_random_form(rng, n_modes=8, max_freq=3):
    """Rejection sampler: uniform frequencies, skipping (0, 0) and repeated
    pair classes, then scaled to unit norm counting conjugates."""
    modes = {}
    while len(modes) < n_modes:
        m = int(rng.integers(-max_freq, max_freq + 1))
        n = int(rng.integers(-max_freq, max_freq + 1))
        if (m, n) == (0, 0) or (m, n) in modes or (-m, -n) in modes:
            continue
        c = rng.standard_normal(4)
        modes[m, n] = (complex(c[0], c[1]), complex(c[2], c[3]))
    scale = 1.0 / math.sqrt(2.0 * sum(abs(a) ** 2 + abs(b) ** 2 for a, b in modes.values()))
    return FourierMode1Form({k: (scale * a, scale * b) for k, (a, b) in modes.items()})


def random_curvature(rng, k_lo=0.4, k_hi=1.0, eps_hi=2.5):
    k1 = float(rng.uniform(k_lo, k_hi))
    return BoundaryCurvature(k1, epsilon=float(rng.uniform(0.0, eps_hi)))


def row_form(freqs, c1, c2):
    return FourierMode1Form({(int(m), int(n)): (a, b) for (m, n), a, b in zip(freqs, c1, c2)})


PAIR_CLASSES = [(m, n) for m in range(-3, 4) for n in range(-3, 4) if m > 0 or (m == 0 and n > 0)]


class TestModeFactorisation:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            curv = random_curvature(rng)
            sigma = reference_random_form(rng, n_modes=int(rng.integers(1, 13)))
            ref = direct_b(curv, sigma)
            assert abs(boundary_form_b(curv, sigma) - ref) <= 1e-12 * max(abs(ref), 1.0)

    def test_scan_is_min_over_sampled_forms(self):
        rng = np.random.default_rng(43)
        for seed in range(5):
            curv = random_curvature(rng)
            freqs, c1, c2 = random_modes(np.random.default_rng(seed), 50)
            ref = min(direct_b(curv, row_form(*row)) for row in zip(freqs, c1, c2))
            assert scan_min_b(curv, np.random.default_rng(seed), 50) == pytest.approx(
                ref, rel=1e-12
            )


class TestScanMatchesDirectFormula:
    """The scan contracts raw draws with the coefficient table; on the same
    seed it must find the minimum of the direct formula over the forms that
    random_modes gives, across curvatures in and out of the window."""

    @settings(max_examples=200, deadline=None)
    @given(
        k1=st.floats(math.log(1 / 50), math.log(50)).map(math.exp),
        eps=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @example(k1=0.5, eps=0.0, seed=0)  # k2 = 2 > sqrt(3)
    @example(k1=0.9, eps=2.5, seed=1)  # eps > 2 k1
    @example(k1=50.0, eps=3.0, seed=2)
    @example(k1=1 / 50, eps=0.0, seed=3)
    # float direct_b is 9.8e-12 above the 50-digit minimum here; the scan is within 9.2e-13
    @example(k1=math.exp(1.638671875), eps=1.96875, seed=27979266)
    def test_scan_is_min_of_direct_b(self, k1, eps, seed):
        curv = BoundaryCurvature(k1, epsilon=eps)
        event("inside the window" if curv.in_positivity_window() else "outside the window")
        freqs, c1, c2 = random_modes(np.random.default_rng(seed), 64)
        forms = [row_form(*row) for row in zip(freqs, c1, c2)]
        b = [direct_b(curv, sigma) for sigma in forms]
        # float direct_b errs by far less than 1e-6 of max(1, |b|), so only a
        # form that near its float minimum can hold the exact one
        near = min(b) + 1e-6 * max(1.0, abs(min(b)))
        with mpmath.workdps(50):
            ref = float(min(direct_b(curv, sigma, mpmath.mpmathify, mpmath.pi)
                            for sigma, v in zip(forms, b) if v <= near))
        assert abs(scan_min_b(curv, seed, 64) - ref) <= 1e-12 * max(1.0, abs(ref))


class TestRowContraction:
    """_row_b squares the curl kap2 c1 - kap1 c2 after forming it.  Here it
    is exactly 0 next to w of about -2e13, so the expanded form
    w (kap2^2 |c1|^2 - 2 kap1 kap2 Re(c1 conj(c2)) + kap1^2 |c2|^2) is off
    by about 1e-3 relative, while the curl form is exact to rounding."""

    def test_cancelling_curl_matches_fraction(self):
        curv = BoundaryCurvature(1.5, epsilon=1e6)
        kap1, kap2 = weitzenboeck._KAPPA.T
        table = np.array([*weitzenboeck._mode_coefficients(curv, kap1, kap2), kap1, kap2])
        cls = PAIR_CLASSES.index((1, 1))
        g = np.array([[[0.75, -0.5, 0.75, -0.5]]])
        got = float(weitzenboeck._row_b(table, np.array([[cls]]), g)[0])
        a1, a2, w, k1, k2 = map(Fraction, table[:, cls].tolist())
        g1, h1, g2, h2 = map(Fraction, g.ravel().tolist())
        re, im = k2 * g1 - k1 * g2, k2 * h1 - k1 * h2
        assert re == im == 0 and w < -1e13
        norm = g1 * g1 + h1 * h1 + g2 * g2 + h2 * h2
        exact = (a1 * (g1 * g1 + h1 * h1) + a2 * (g2 * g2 + h2 * h2) + w * (re * re + im * im)) / norm
        assert abs(Fraction(got) - exact) <= Fraction(1e-15) * abs(exact)


class TestRandomModes:
    ROWS = 20_000

    def test_rows_are_unit_forms_on_distinct_pair_classes(self):
        freqs, c1, c2 = random_modes(np.random.default_rng(47), 500)
        assert freqs.shape == (500, 8, 2) and c1.shape == c2.shape == (500, 8)
        norms = 2.0 * np.sum(np.abs(c1) ** 2 + np.abs(c2) ** 2, axis=1)
        assert np.allclose(norms, 1.0, rtol=1e-12, atol=0.0)
        for row in freqs:
            keys = [(int(m), int(n)) for m, n in row]
            assert (0, 0) not in keys
            classes = {max((m, n), (-m, -n)) for m, n in keys}
            assert len(classes) == 8
            assert all(abs(m) <= 3 and abs(n) <= 3 for m, n in keys)

    def test_random_form_is_one_row_of_random_modes(self):
        freqs, c1, c2 = random_modes(np.random.default_rng(9), 1)
        modes = random_form(np.random.default_rng(9)).modes
        assert len(modes) == 16
        for (m, n), a, b in zip(freqs[0].tolist(), c1[0].tolist(), c2[0].tolist()):
            assert modes[m, n] == (a, b)

    def test_pair_classes_uniform(self):
        freqs, _, _ = random_modes(np.random.default_rng(53), self.ROWS)
        index = {mn: i for i, mn in enumerate(PAIR_CLASSES)}
        counts = np.zeros(len(PAIR_CLASSES))
        for m, n in freqs.reshape(-1, 2).tolist():
            counts[index[max((m, n), (-m, -n))]] += 1
        p = 8 / len(PAIR_CLASSES)  # each row holds a given class with this chance
        sigma = math.sqrt(self.ROWS * p * (1.0 - p))
        assert np.all(np.abs(counts - self.ROWS * p) <= 5.0 * sigma)

    @pytest.mark.parametrize("k1, eps", [(0.8, 0.9), (0.5, 0.3)])
    def test_same_b_distribution_as_rejection_sampler(self, k1, eps):
        curv = BoundaryCurvature(k1, epsilon=eps)
        rng = np.random.default_rng(59)
        old = np.array([direct_b(curv, reference_random_form(rng)) for _ in range(3000)])
        freqs, c1, c2 = random_modes(np.random.default_rng(61), 3000)
        new = np.array([boundary_form_b(curv, row_form(*row)) for row in zip(freqs, c1, c2)])
        stderr = math.sqrt(old.var() / old.size + new.var() / new.size)
        assert abs(old.mean() - new.mean()) <= 5.0 * stderr


def reference_mode_matrix(curv, m, n):
    """The 2x2 form of mode (m, n), by polarization of the direct formula;
    a single mode plus its conjugate counts twice."""
    def q(c1, c2):
        return direct_b(curv, FourierMode1Form({(m, n): (c1, c2)})) / 2.0

    q11, q22 = q(1.0, 0.0), q(0.0, 1.0)
    q12 = (q(1.0, 1.0) - q11 - q22) / 2.0
    return np.array([[q11, q12], [q12, q22]])


class TestExactMinimum:
    CURVATURES = [
        (0.9, 0.7), (1.0 / SQRT3, 0.0), (1.0 / SQRT3, 2.0 / SQRT3), (1.0, 2.0),
        (0.5, 0.0), (0.5, 1.5), (0.3, 0.1), (1.0, 0.0),
        # mode (1, 2) has trace -47 and a larger eigenvalue of -6e-13 here,
        # so tr/2 + r would lose every digit of it
        (0.5, 0.00021913433032562995),
    ]

    def test_matches_eigvalsh_on_every_mode(self):
        rng = np.random.default_rng(67)
        cases = self.CURVATURES + [(float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.0, 2.5)))
                                   for _ in range(20)]
        kappa = 2.0 * math.pi * np.array(PAIR_CLASSES, dtype=float)
        for k1, eps in cases:
            curv = BoundaryCurvature(k1, epsilon=eps)
            lam = mode_min_eigenvalue(curv, kappa)
            refs = []
            for (m, n), got in zip(PAIR_CLASSES, lam):
                mat = reference_mode_matrix(curv, m, n)
                ref = np.linalg.eigvalsh(mat)[0]
                assert abs(got - ref) <= 1e-12 * max(np.abs(mat).max(), 1.0)
                refs.append(ref)
            value, mode = exact_min_b(curv)
            assert value == float(np.min(lam))
            assert mode == PAIR_CLASSES[int(np.argmin(lam))]
            assert value == pytest.approx(min(refs), rel=1e-12, abs=1e-9)

    def test_attained_by_a_unit_form(self):
        curv = BoundaryCurvature(0.9, epsilon=0.7)
        value, (m, n) = exact_min_b(curv)
        assert value == pytest.approx(19.36, abs=0.01)
        _, vecs = np.linalg.eigh(reference_mode_matrix(curv, m, n))
        sigma = FourierMode1Form({(m, n): tuple(vecs[:, 0] / math.sqrt(2.0))})
        assert parseval_norm_sq(sigma) == pytest.approx(1.0, rel=1e-12)
        assert direct_b(curv, sigma) == pytest.approx(value, rel=1e-12)

    def test_below_every_scan(self):
        rng = np.random.default_rng(71)
        for seed in range(50):
            curv = random_curvature(rng, k_lo=0.3)
            scan = scan_min_b(curv, np.random.default_rng(seed), 200)
            assert exact_min_b(curv)[0] <= scan + 1e-12 * abs(scan)

    def test_nonnegative_inside_window(self):
        for k1 in np.linspace(1.0 / SQRT3, 1.0, 9):
            for frac in np.linspace(0.0, 1.0, 9):
                curv = BoundaryCurvature(float(k1), epsilon=float(2.0 * k1 * frac))
                assert exact_min_b(curv)[0] >= -1e-9

    def test_negative_at_k2_two(self):
        value, mode = exact_min_b(BoundaryCurvature(0.5, epsilon=0.0))
        assert value == pytest.approx(-18.0 * math.pi ** 2, rel=1e-12)  # (0, 3): -2 pi^2 n^2
        assert mode == (0, 3)

    def test_eps_beyond_window_goes_negative(self):
        assert exact_min_b(BoundaryCurvature(1.0, epsilon=2.2))[0] < 0.0


class TestWeitzCommand:
    @staticmethod
    def payload(capsys, argv):
        code = run(argv)
        return code, json.loads(capsys.readouterr().out)["payload"]

    def test_many_blocks(self, capsys):
        code, doc = self.payload(
            capsys, ["weitz", "--k1", "0.8", "--eps", "0.5", "--seed", "11", "--trials", "5000"]
        )
        assert code == 0 and doc["trials"] == 5000
        # the scan draws whole blocks of 1024 from one stream: 4 full ones and 904
        curv = BoundaryCurvature(0.8, epsilon=0.5)
        rng = np.random.default_rng(11)
        blocks = [scan_min_b(curv, rng, n) for n in (1024, 1024, 1024, 1024, 904)]
        assert doc["min_b"] == min(blocks)
        assert doc["min_b_exact"] <= doc["min_b"]

    def test_scan_draws_exactly_trials_forms(self):
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        scan_min_b(BoundaryCurvature(0.8, epsilon=0.5), rng, 1030)
        weitzenboeck._draw(ref, 1024)
        weitzenboeck._draw(ref, 6)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_seed_starts_the_generator(self):
        curv = BoundaryCurvature(0.8, epsilon=0.5)
        assert scan_min_b(curv, 7, 300) == scan_min_b(curv, np.random.default_rng(7), 300)

    def test_exact_fields(self, capsys):
        code, doc = self.payload(capsys, ["weitz", "--k1", "0.9", "--eps", "0.7", "--trials", "5"])
        assert code == 0
        assert doc["min_b_exact"] == pytest.approx(19.36, abs=0.01)
        assert doc["min_mode"] == list(exact_min_b(BoundaryCurvature(0.9, epsilon=0.7))[1])
        code, doc = self.payload(capsys, ["weitz", "--k1", "0.5", "--eps", "0", "--trials", "5"])
        assert code == 0 and doc["in_certified_range"] is False
        assert doc["min_b_exact"] < 0.0


def window_oracle(k1, eps):
    """The window test as ``weitz`` wrote it inline, with k2 = 1/k1."""
    return (
        1.0 / math.sqrt(3.0) - 1e-12 <= min(k1, 1.0 / k1)
        and max(k1, 1.0 / k1) <= math.sqrt(3.0) + 1e-12
        and eps <= 2.0 * min(k1, 1.0 / k1)
    )


class TestPositivityWindow:
    def test_random_points(self):
        rng = np.random.default_rng(5)
        k1s = np.exp(rng.uniform(math.log(0.3), math.log(3.0), 2000))
        epss = rng.uniform(0.0, 4.0, 2000)
        inside = 0
        for k1, eps in zip(k1s.tolist(), epss.tolist()):
            got = BoundaryCurvature(k1, epsilon=eps).in_positivity_window()
            assert got is window_oracle(k1, eps)
            inside += got
        assert 200 < inside < 1800

    @pytest.mark.parametrize("k1", [
        1.0 / SQRT3, SQRT3, 1.0 / SQRT3 - 1e-12, SQRT3 + 1e-12, 1.0 / SQRT3 - 2e-12,
        SQRT3 + 2e-12, 1.0,
    ])
    def test_corners(self, k1):
        k_min = min(k1, 1.0 / k1)
        for eps in (0.0, 2.0 * k_min, math.nextafter(2.0 * k_min, math.inf)):
            got = BoundaryCurvature(k1, epsilon=eps).in_positivity_window()
            assert got is window_oracle(k1, eps)

    def test_corner_values(self):
        assert BoundaryCurvature(SQRT3, epsilon=2.0 / SQRT3).in_positivity_window()
        assert not BoundaryCurvature(
            SQRT3, epsilon=math.nextafter(2.0 / SQRT3, 3.0)).in_positivity_window()
        assert not BoundaryCurvature(SQRT3 + 2e-12).in_positivity_window()

    def test_slack_is_1e_12(self):
        top = SQRT3 + 1e-12
        assert BoundaryCurvature(top).in_positivity_window()
        assert not BoundaryCurvature(math.nextafter(top, 3.0)).in_positivity_window()


class TestRealityTolerance:
    """A stored conjugate may differ from the exact one by 1e-14 in each
    component, and no more.  A constant mode is its own conjugate, so its
    imaginary part y gives a difference of exactly 2y."""

    @pytest.mark.parametrize("slot", [0, 1])
    def test_bound_is_inclusive(self, slot):
        coeffs = [0.0, 0.0]
        coeffs[slot] = 5e-15j
        assert FourierMode1Form({(0, 0): tuple(coeffs)}).modes[0, 0] == tuple(coeffs)
        coeffs[slot] = 5.004e-15j
        with pytest.raises(DomainError, match="reality constraint"):
            FourierMode1Form({(0, 0): tuple(coeffs)})


class TestZeroModeForm:
    """At k1 = 0x1.a827999fcef33p-2, the float nearest sqrt(2) - 1, the floats
    give (3 - k1^2) + (3 - k2^2) = 0, so at eps = 0 the 2x2 form of the class
    (1, 1) is exactly 0."""

    def test_eigenvalue_is_zero(self):
        curv = BoundaryCurvature(float.fromhex("0x1.a827999fcef33p-2"))
        q11, q22, q12 = weitzenboeck._mode_matrix(curv, *weitzenboeck._KAPPA.T)
        i = PAIR_CLASSES.index((1, 1))
        assert q11[i] == q22[i] == q12[i] == 0.0
        with np.errstate(all="raise"):
            lam = mode_min_eigenvalue(curv, weitzenboeck._KAPPA)
        assert lam[i] == 0.0
        assert math.isfinite(exact_min_b(curv)[0])


class TestMirrorClassTies:
    """(m, n) and (m, -n) have the same 2x2 form up to the sign of q12, so
    the same eigenvalues bit for bit, and exact_min_b names the class of
    such a pair that comes first in the class order: the one with n < 0."""

    KAPPA = 2.0 * math.pi * np.array(PAIR_CLASSES, dtype=float)
    MIRRORS = [(PAIR_CLASSES.index((m, n)), PAIR_CLASSES.index((m, -n)))
               for m, n in PAIR_CLASSES if m > 0 and n > 0]

    def curvatures(self):
        rng = np.random.default_rng(83)
        for _ in range(3000):
            yield random_curvature(rng, k_lo=0.05, k_hi=1.0, eps_hi=3.0)

    def test_mirror_classes_have_bit_equal_eigenvalues(self):
        assert len(self.MIRRORS) == 9
        for curv in self.curvatures():
            lam = mode_min_eigenvalue(curv, self.KAPPA)
            for i, j in self.MIRRORS:
                assert float(lam[i]).hex() == float(lam[j]).hex(), (curv, PAIR_CLASSES[i])

    def test_minimum_names_the_first_class_that_attains_it(self):
        named_mirror = 0
        for curv in self.curvatures():
            lam = mode_min_eigenvalue(curv, self.KAPPA)
            value, mode = exact_min_b(curv)
            assert mode == PAIR_CLASSES[[float(v) for v in lam].index(value)]
            m, n = mode
            assert m == 0 or n <= 0, (curv, mode)
            named_mirror += n < 0
        assert named_mirror > 0  # the tie is met, not just allowed
