import math
import random

import mpmath
import pytest

from dehnfill.errors import (
    DomainError,
    InfiniteCoefficientError,
    OrientationError,
)
from dehnfill.torus_geometry import (
    SlopeClass,
    TubularTorus,
    complex_length,
    euclidean_length,
    normalized_length,
    principal_curvatures,
    surgery_coefficient,
    visual_area,
)

from conftest import torus_from_complex_lengths

SQRT3 = math.sqrt(3.0)


def random_torus(rng):
    while True:
        vecs = [[rng.uniform(-3, 3) for _ in range(2)] for _ in range(2)]
        det = vecs[0][0] * vecs[1][1] - vecs[1][0] * vecs[0][1]
        if det > 0.1:
            return TubularTorus(rng.uniform(0.2, 4.0), (tuple(vecs[0]), tuple(vecs[1])))


class TestHolonomy:
    @pytest.mark.parametrize("slope", [SlopeClass(1e10, 1e10), SlopeClass(1e10, -1e10)])
    def test_beyond_the_float_range(self, slope):
        # p*x1_a = 1e310 overflows; with q < 0 the sum would be inf - inf = NaN
        torus = TubularTorus(1.0, ((1e300, 0.0), (1e300, 1.0)))
        with pytest.raises(DomainError, match="float range"):
            torus.holonomy(slope)


class TestPrincipalCurvatures:
    def test_critical_radius(self):
        k1, k2 = principal_curvatures(math.atanh(1.0 / SQRT3))
        assert k1 == pytest.approx(SQRT3, abs=1e-14)
        assert k2 == pytest.approx(1.0 / SQRT3, abs=1e-14)

    def test_horospherical_limit(self):
        assert principal_curvatures(math.inf) == (1.0, 1.0)

    def test_unit_sinh_radius(self):
        # sinh R = 1, cosh R = sqrt(2) at R = ln(1 + sqrt(2))
        k1, k2 = principal_curvatures(math.log(1.0 + math.sqrt(2.0)))
        assert k1 == pytest.approx(math.sqrt(2.0), abs=1e-14)
        assert k2 == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)

    def test_product_is_one(self):
        rng = random.Random(7)
        for _ in range(100):
            k1, k2 = principal_curvatures(rng.uniform(0.05, 8.0))
            assert abs(k1 * k2 - 1.0) <= 1e-14

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(DomainError):
            principal_curvatures(0.0)
        with pytest.raises(DomainError):
            principal_curvatures(-1.0)

    def test_coth_beyond_the_float_range(self):
        # tanh(1e-309) = 1e-309, whose reciprocal overflows
        with pytest.raises(DomainError, match="1e-309"):
            principal_curvatures(1e-309)


class TestComplexLength:
    def test_plug_in(self):
        R = math.log(1.0 + math.sqrt(2.0))  # cosh R = sqrt(2)
        torus = TubularTorus(R, ((0.0, 1.0), (-1.0, 0.0)))
        L = complex_length(torus, SlopeClass(1, 0))
        assert L.trans == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)
        assert L.rot == pytest.approx(0.0, abs=1e-14)

    def test_horospherical_zero(self):
        torus = TubularTorus(math.inf, ((1.0, 0.0), (0.0, 1.0)))
        L = complex_length(torus, SlopeClass(5, -3))
        assert (L.trans, L.rot) == (0.0, 0.0)

    def test_linearity(self):
        rng = random.Random(11)
        for _ in range(50):
            torus = random_torus(rng)
            p, q = rng.uniform(-4, 4), rng.uniform(-4, 4)
            s, t = rng.uniform(-2, 2), rng.uniform(-2, 2)
            p2, q2 = rng.uniform(-4, 4), rng.uniform(-4, 4)
            La = complex_length(torus, SlopeClass(p, q))
            Lb = complex_length(torus, SlopeClass(p2, q2))
            Lc = complex_length(torus, SlopeClass(s * p + t * p2, s * q + t * q2))
            assert Lc.trans == pytest.approx(s * La.trans + t * Lb.trans, abs=1e-12)
            assert Lc.rot == pytest.approx(s * La.rot + t * Lb.rot, abs=1e-12)

    def test_past_the_range_of_cosh(self):
        # cosh R and sinh R overflow above R = 710.47; 1/cosh R = 1/sinh R = 2e^(-R) there
        torus = TubularTorus(720.0, ((3e20, -5e19), (1e19, 2e20)))
        L = complex_length(torus, SlopeClass(2, -3))
        x1, x2 = torus.holonomy(SlopeClass(2, -3))
        with mpmath.workdps(50):
            R = mpmath.mpf(720.0)
            assert L.trans == pytest.approx(float(x2 / mpmath.cosh(R)), rel=1e-14)
            assert L.rot == pytest.approx(float(x1 / mpmath.sinh(R)), rel=1e-14)

    def test_doubling(self):
        rng = random.Random(3)
        torus = random_torus(rng)
        L1 = complex_length(torus, SlopeClass(1, 2))
        L2 = complex_length(torus, SlopeClass(2, 4))
        assert L2.trans == pytest.approx(2 * L1.trans, rel=1e-14)
        assert L2.rot == pytest.approx(2 * L1.rot, rel=1e-14)

    def test_beyond_the_float_range(self):
        # rot = 1e10/sinh(1e-310) overflows
        torus = TubularTorus(1e-310, ((1e10, 0.0), (0.0, 1e10)))
        with pytest.raises(DomainError, match="float range"):
            complex_length(torus, SlopeClass(1, 0))


class TestEuclideanLength:
    def test_norm(self):
        torus = TubularTorus(1.0, ((1.0, 0.0), (0.0, 1.0)))
        assert euclidean_length(torus, SlopeClass(3, 4)) == pytest.approx(5.0, abs=1e-14)

    def test_pure_rotation_class(self):
        # trans = 0, rot = alpha gives L = alpha * sinh(R)
        R, alpha = 1.3, 2.0
        torus = torus_from_complex_lengths(R, (0.0, alpha), (1.0, 0.0))
        assert euclidean_length(torus, SlopeClass(1, 0)) == pytest.approx(
            alpha * math.sinh(R), rel=1e-13
        )

    def test_dual_route_consistency(self):
        rng = random.Random(19)
        for _ in range(1000):
            torus = random_torus(rng)
            slope = SlopeClass(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if slope.p == 0 and slope.q == 0:
                continue
            L = euclidean_length(torus, slope)
            cl = complex_length(torus, slope)
            R = torus.tube_radius
            L2 = (math.cosh(R) * cl.trans) ** 2 + (math.sinh(R) * cl.rot) ** 2
            assert L2 == pytest.approx(L * L, rel=1e-12)

    def test_zero_slope_rejected(self):
        torus = TubularTorus(1.0, ((1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(DomainError):
            euclidean_length(torus, SlopeClass(0, 0))

    @pytest.mark.parametrize("torus, slope", [
        # the holonomy's first component is 2e310
        (TubularTorus(1.0, ((1e300, 0.0), (1e300, 1.0))), SlopeClass(1e10, 1e10)),
        # a finite holonomy (1.5e308, 1.5e308) whose length overflows
        (TubularTorus(1.0, ((1.5e308, 0.0), (0.0, 1.0))), SlopeClass(1.0, 1.5e308)),
    ])
    def test_beyond_the_float_range(self, torus, slope):
        with pytest.raises(DomainError, match="float range"):
            euclidean_length(torus, slope)


class TestVisualArea:
    def test_cone_manifold_basis(self):
        # L(a) = i*alpha, L(b) = ell + i*theta gives A = alpha*ell
        alpha, ell, theta = 1.1, 0.8, 0.3
        torus = torus_from_complex_lengths(0.9, (0.0, alpha), (ell, theta))
        assert visual_area(torus) == pytest.approx(alpha * ell, rel=1e-13)

    def test_sl2z_invariance(self):
        rng = random.Random(23)
        for _ in range(50):
            torus = random_torus(rng)
            a, b = torus.basis_holonomy
            # basis change by [[2, 1], [1, 1]] (det 1)
            a2 = (2 * a[0] + 1 * b[0], 2 * a[1] + 1 * b[1])
            b2 = (1 * a[0] + 1 * b[0], 1 * a[1] + 1 * b[1])
            changed = TubularTorus(torus.tube_radius, (a2, b2))
            assert visual_area(changed) == pytest.approx(visual_area(torus), rel=1e-12)

    def test_parallel_tori_same_area(self):
        La, Lb = (0.2, 1.5), (0.9, -0.1)
        t1 = torus_from_complex_lengths(0.7, La, Lb)
        t2 = torus_from_complex_lengths(2.4, La, Lb)
        assert visual_area(t1) == pytest.approx(visual_area(t2), rel=1e-13)

    def test_negative_orientation_rejected(self):
        with pytest.raises(OrientationError):
            TubularTorus(1.0, ((0.0, 1.0), (1.0, 0.0)))

    @pytest.mark.parametrize("holonomy", [
        ((math.nan, 0.0), (0.0, 1.0)),
        ((math.inf, 0.0), (0.0, 1.0)),
        ((1.0, 0.0), (-math.inf, 1.0)),
        ((1.0, 0.0), (0.0, math.nan)),
        ((1e200, 0.0), (0.0, 1e200)),  # finite entries, area beyond the float range
    ])
    def test_non_finite_holonomy_rejected(self, holonomy):
        with pytest.raises(DomainError, match="holonomy"):
            TubularTorus(1.0, holonomy)

    def test_past_the_range_of_sinh_cosh_product(self):
        # sinh R * cosh R overflows above R = 355.2, sinh R and cosh R above 710.47
        for R, holonomy in ((400.0, ((1e150, 0.0), (0.0, 1e150))),
                            (720.0, ((1e154, 0.0), (0.0, 1e154)))):
            torus = TubularTorus(R, holonomy)
            with mpmath.workdps(50):
                mR = mpmath.mpf(R)
                expected = float(mpmath.mpf(torus.area) / (mpmath.sinh(mR) * mpmath.cosh(mR)))
            # the value at R = 720 is subnormal, where one ulp is 5e-324
            assert visual_area(torus) == pytest.approx(expected, rel=1e-14, abs=2 * math.ulp(0.0))

    def test_beyond_the_float_range(self):
        # area/sinh R = 1e20/1e-310 overflows
        torus = TubularTorus(1e-310, ((1e10, 0.0), (0.0, 1e10)))
        with pytest.raises(DomainError, match="float range"):
            visual_area(torus)


class TestNormalizedLength:
    def test_unit_square(self):
        torus = TubularTorus(1.0, ((1.0, 0.0), (0.0, 1.0)))
        assert normalized_length(torus, SlopeClass(1, 0)) == pytest.approx(1.0)
        assert normalized_length(torus, SlopeClass(3, 4)) == pytest.approx(5.0)

    def test_scale_invariance(self):
        torus = TubularTorus(1.0, ((1.2, 0.3), (-0.4, 0.9)))
        scaled = TubularTorus(1.0, ((2.4, 0.6), (-0.8, 1.8)))
        for slope in (SlopeClass(1, 0), SlopeClass(2, -3)):
            assert normalized_length(scaled, slope) == pytest.approx(
                normalized_length(torus, slope), rel=1e-13
            )

    @pytest.mark.parametrize("torus, slope", [
        # the Euclidean length overflows
        (TubularTorus(1.0, ((1e300, 0.0), (1e300, 1.0))), SlopeClass(1e10, 1e10)),
        # a finite length over sqrt of a subnormal area overflows
        (TubularTorus(1.0, ((1.0, 0.0), (0.0, 5e-324))), SlopeClass(1e200, 0.0)),
    ])
    def test_beyond_the_float_range(self, torus, slope):
        with pytest.raises(DomainError, match="float range"):
            normalized_length(torus, slope)


class TestSurgeryCoefficient:
    def test_meridian_basis(self):
        torus = torus_from_complex_lengths(1.0, (0.0, 2 * math.pi), (1.0, 0.2))
        c = surgery_coefficient(torus)
        assert c.p == pytest.approx(1.0, abs=1e-12)
        assert c.q == pytest.approx(0.0, abs=1e-12)

    def test_cone_structure(self):
        alpha, ell = 0.9, 1.4
        torus = torus_from_complex_lengths(0.8, (0.0, alpha), (ell, 0.0))
        c = surgery_coefficient(torus)
        assert c.p == pytest.approx(2 * math.pi / alpha, rel=1e-12)
        assert c.q == pytest.approx(0.0, abs=1e-12)

    def test_horospherical_error(self):
        torus = TubularTorus(math.inf, ((1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(InfiniteCoefficientError):
            surgery_coefficient(torus)

    def test_against_arbitrary_precision_at_large_radius(self):
        # the 2x2 solve's determinant -area/(sinh R cosh R) is subnormal from R ~ 355
        rng = random.Random(37)
        for _ in range(200):
            R = rng.uniform(300.0, 710.0)
            vecs = random_torus(rng).basis_holonomy
            torus = TubularTorus(R, vecs)
            c = surgery_coefficient(torus)
            (_, x2a), (_, x2b) = vecs
            with mpmath.workdps(50):
                scale = 2 * mpmath.pi * mpmath.sinh(mpmath.mpf(R)) / mpmath.mpf(torus.area)
                p, q = float(scale * x2b), float(-scale * x2a)
            assert c.p == pytest.approx(p, rel=1e-13)
            assert c.q == pytest.approx(q, rel=1e-13)

    @pytest.mark.parametrize("torus", [
        TubularTorus(720.0, ((1.0, 0.0), (0.0, 1.0))),  # sinh R overflows
        TubularTorus(1e6, ((1.0, 0.5), (-0.5, 1.0))),
        TubularTorus(1.0, ((5e-324, 0.0), (0.0, 1e10))),  # p = 2*pi*sinh(1)/5e-324
    ])
    def test_beyond_the_float_range(self, torus):
        with pytest.raises(DomainError, match="float range"):
            surgery_coefficient(torus)

    def test_subnormal_area(self):
        c = surgery_coefficient(TubularTorus(1.0, ((1.0, 0.0), (0.0, 5e-324))))
        assert (c.p, c.q) == (pytest.approx(2 * math.pi * math.sinh(1.0), rel=1e-15), 0.0)

    def test_roundtrip(self):
        rng = random.Random(31)
        for _ in range(100):
            torus = random_torus(rng)
            c = surgery_coefficient(torus)
            L = complex_length(torus, c)
            assert L.trans == pytest.approx(0.0, abs=1e-10)
            assert L.rot == pytest.approx(2 * math.pi, abs=1e-10)
