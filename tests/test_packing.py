import math
import random

import mpmath
import pytest

from dehnfill.errors import DomainError
from dehnfill.packing import PACKING, R0, boundary_injectivity_bound, ellipse_axes, h

SQRT3 = math.sqrt(3.0)


class TestH:
    def test_value_at_critical_radius(self):
        # tanh R0 = 1/sqrt(3), cosh 2*R0 = 2
        assert math.tanh(R0) == pytest.approx(1.0 / SQRT3, abs=1e-15)
        assert math.cosh(2 * R0) == pytest.approx(2.0, abs=1e-14)
        assert h(R0) == pytest.approx(0.980254, abs=1e-5)

    def test_decays_at_infinity(self):
        for r in (50.0, 400.0, 1e6):  # cosh(2r) overflows from r = 355.24
            assert h(r) < 1e-40

    def test_past_the_range_of_cosh(self):
        # 1/cosh(2r) = 2e^(-2r) there; h is subnormal, where one ulp is 5e-324
        for r in (355.3, 360.0, 371.0):
            with mpmath.workdps(50):
                mr = mpmath.mpf(r)
                expected = float(mpmath.mpf("3.3957") * mpmath.tanh(mr) / mpmath.cosh(2 * mr))
            assert expected > 0.0
            assert abs(h(r) - expected) <= math.ulp(0.0)

    def test_against_arbitrary_precision(self):
        with mpmath.workdps(50):
            expected = float(
                mpmath.mpf("3.3957") * mpmath.tanh(1) / mpmath.cosh(2)
            )
        assert h(1.0) == pytest.approx(expected, rel=1e-15)

    def test_strictly_decreasing_above_r0(self):
        rs = [R0 + i * (10.0 - R0) / 999 for i in range(1000)]
        vals = [h(r) for r in rs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            h(0.0)
        with pytest.raises(DomainError):
            h(-0.5)


class TestEllipseAxes:
    def test_bumping_minor_axis(self):
        for R in (0.5, R0, 1.0, 2.0):
            _, b = ellipse_axes(R, R)
            assert b == pytest.approx(math.tanh(R) / 2.0, rel=1e-14)

    def test_bumping_area(self):
        R = 1.2
        a, b = ellipse_axes(R, R)
        expected = 0.980258 * math.pi * math.sinh(R) ** 2 / (2.0 * math.cosh(2 * R))
        assert math.pi * a * b == pytest.approx(expected, rel=1e-13)

    def test_reproduces_h(self):
        # packing density pi/(2 sqrt 3) turns the ellipse area into h(R)
        for R in (R0, 0.8, 1.5):
            a, b = ellipse_axes(R, R)
            bound = (4 * SQRT3 / math.pi) * math.pi * a * b / (
                math.sinh(R) * math.cosh(R)
            )
            assert bound == pytest.approx(h(R), abs=5e-4 * h(R))

    @pytest.mark.parametrize("R_i", [800.0, math.inf])
    def test_horospherical_limit(self, R_i):
        # tanh R_i = 1.0: sinh and cosh of R_i overflow at 800 and give nan at inf
        for R in (0.3, 1.0, 5.0, 30.0, 800.0):
            t = math.tanh(R)
            assert ellipse_axes(R_i, R) == (0.980258 * t / (1.0 + t), t / (1.0 + t))

    def test_against_arbitrary_precision(self):
        rng = random.Random(41)
        for _ in range(500):
            R, R_i = sorted(rng.uniform(1e-3, 30.0) for _ in range(2))
            with mpmath.workdps(50):
                r, ri = mpmath.mpf(R), mpmath.mpf(R_i)
                a = mpmath.mpf("0.980258") * mpmath.sinh(r) * mpmath.cosh(ri) / mpmath.cosh(ri + r)
                b = mpmath.sinh(r) * mpmath.sinh(ri) / mpmath.sinh(ri + r)
            got = ellipse_axes(R_i, R)
            assert got[0] == pytest.approx(float(a), rel=1e-14)
            assert got[1] == pytest.approx(float(b), rel=1e-14)

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            ellipse_axes(1.0, 2.0)  # R > R_i


class TestInjectivityBound:
    def test_value_at_critical_radius(self):
        assert boundary_injectivity_bound(R0) == pytest.approx(
            0.980258 / (SQRT3 + 1.0), rel=1e-12
        )
        assert boundary_injectivity_bound(R0) == pytest.approx(0.358799, abs=5e-6)

    def test_limit(self):
        assert boundary_injectivity_bound(50.0) == pytest.approx(0.980258 / 2.0, rel=1e-12)

    def test_increasing(self):
        rs = [0.1 + i * 9.9 / 999 for i in range(1000)]
        vals = [boundary_injectivity_bound(r) for r in rs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestConstantConsistency:
    def test_axis_coefficient_vs_s(self):
        assert PACKING.axis_coefficient * PACKING.s_constant == pytest.approx(
            1.0, abs=5e-6
        )
        assert 1.0 / PACKING.s_constant == pytest.approx(0.980257, abs=5e-6)

    def test_h_coefficient_provenance(self):
        assert 2.0 * SQRT3 * PACKING.axis_coefficient == pytest.approx(
            PACKING.h_coefficient, abs=5e-4
        )

    def test_density_ratio(self):
        assert PACKING.density_ratio == pytest.approx(math.pi / (2 * SQRT3), rel=1e-15)
