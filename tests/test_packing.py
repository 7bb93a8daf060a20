import math

import mpmath
import pytest

from dehnfill.errors import DomainError
from dehnfill.packing import AXIS_COEFFICIENT, H_COEFFICIENT, R0, S_CONSTANT, h

SQRT3 = math.sqrt(3.0)


class TestH:
    def test_value_at_critical_radius(self):
        # tanh R0 = 1/sqrt(3), cosh 2*R0 = 2
        assert math.tanh(R0) == pytest.approx(1.0 / SQRT3, abs=1e-15)
        assert math.cosh(2 * R0) == pytest.approx(2.0, abs=1e-14)
        assert h(R0) == pytest.approx(0.980254, abs=1e-5)

    @pytest.mark.parametrize("r", [5e-324, 1e-300, 5e-4, 1e-3])
    def test_every_positive_r(self, r):
        assert h(r) == pytest.approx(3.3957 * math.tanh(r) / math.cosh(2.0 * r), rel=1e-15)

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

    def test_matches_the_helper_form_bit_for_bit(self):
        # x / cosh(R) at R = 2r, with e = exp(-0.5 * R) past cosh's range: h's exp(-r)
        # is that e exactly, since -0.5 * (2.0 * r) == -r
        def helper_form(r):
            x, big_r = H_COEFFICIENT * math.tanh(r), 2.0 * r
            try:
                return x / math.cosh(big_r)
            except OverflowError:
                e = math.exp(-0.5 * big_r)
                return x * e * 2.0 * e

        grid = [k / 16 for k in range(1, 6400)] + [
            5e-324, 1e-300, 1e-3, R0, 355.24, 355.3, 360.0, 371.0, 372.0, 400.0, 1e6, 1e300,
        ]
        for r in grid:
            assert h(r).hex() == helper_form(r).hex(), r

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


class TestConstantConsistency:
    def test_axis_coefficient_vs_s(self):
        assert AXIS_COEFFICIENT * S_CONSTANT == pytest.approx(
            1.0, abs=5e-6
        )
        assert 1.0 / S_CONSTANT == pytest.approx(0.980257, abs=5e-6)

    def test_h_coefficient_provenance(self):
        assert 2.0 * SQRT3 * AXIS_COEFFICIENT == pytest.approx(
            H_COEFFICIENT, abs=5e-4
        )

    def test_reproduces_h(self):
        # bumping-ellipse semi-axes a = 0.980258 t/(1 + t^2), b = t/2 (t = tanh R);
        # packing density pi/(2 sqrt 3) turns the ellipse area into h(R)
        for R in (R0, 0.8, 1.5):
            t = math.tanh(R)
            a, b = AXIS_COEFFICIENT * t / (1.0 + t * t), t / 2.0
            bound = (4 * SQRT3 / math.pi) * math.pi * a * b / (
                math.sinh(R) * math.cosh(R)
            )
            assert bound == pytest.approx(h(R), abs=5e-4 * h(R))
