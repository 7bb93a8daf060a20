import math
import random

import numpy as np
import pytest
from scipy.integrate import quad

from dehnfill import envelope
from dehnfill.envelope import f, ftilde, invert_f, invert_ftilde
from dehnfill.errors import DomainError, UncertifiableError
from dehnfill.packing import R0, h

from oracles import G, Gtilde, H, H_prime

Z0 = 1.0 / math.sqrt(3.0)


class TestClosedForms:
    def test_h_identity_at_z0(self):
        assert 1.0 / H(Z0) == pytest.approx(0.980254, abs=1e-5)

    def test_h_identity_random(self):
        rng = random.Random(41)
        for _ in range(200):
            r = rng.uniform(R0, 5.0)
            assert H(math.tanh(r)) * h(r) == pytest.approx(1.0, abs=1e-12)

    def test_g_at_one_limit(self):
        assert G(1.0 - 1e-12) == pytest.approx(2.0 / 6.7914, rel=1e-9)
        assert G(1.0 - 1e-12) == pytest.approx(0.294490, abs=1e-6)

    def test_h_blows_up(self):
        assert H(1.0 - 1e-12) > 1e10

    def test_gtilde_finite_at_one(self):
        assert Gtilde(1.0) == pytest.approx(4.0 / (2.0 * 3.3957 * 2.0), rel=1e-12)

    def test_f_endpoint_values(self):
        assert envelope._F(0.0) == pytest.approx(-1.0, abs=1e-15)
        assert envelope._F(1.0) == pytest.approx(-1.5, abs=1e-15)


class TestPartialFractionIdentities:
    @staticmethod
    def central_diff(func, z, step=1e-6):
        """Symmetric 5-point difference quotient with nominal step `step`.

        The rounded nodes z +- k*step are kept and their exact offsets from
        z recovered (the subtraction is exact for nearby doubles), then the
        derivative comes from the degree-4 interpolant through the five
        points.  Near z = 1 the derivative of H is ~3e5, so the naive
        stencil loses six digits to node rounding; this form does not.
        """
        nodes = [z - 2 * step, z - step, z, z + step, z + 2 * step]
        offsets = np.array([t - z for t in nodes]) / step
        values = np.array([func(t) for t in nodes])
        coeffs = np.linalg.solve(np.vander(offsets, 5, increasing=True), values)
        return coeffs[1] / step

    def test_f_identity(self):
        for z in np.linspace(0.45, 0.999, 100):
            lhs = envelope._F(z) + 1.0 / (1.0 - z)
            rhs = self.central_diff(H, z) / (H(z) + G(z))
            assert abs(lhs - rhs) < 1e-8

    def test_ftilde_identity(self):
        for z in np.linspace(0.45, 0.999, 100):
            lhs = envelope._Ftilde(z) + 1.0 / (1.0 - z)
            rhs = self.central_diff(H, z) / (H(z) - Gtilde(z))
            assert abs(lhs - rhs) < 1e-8

    def test_analytic_h_prime(self):
        for z in np.linspace(0.46, 0.99, 25):
            assert H_prime(z) == pytest.approx(self.central_diff(H, z), rel=1e-7)


class TestEnvelopeFunctions:
    def test_f_vanishes_at_one(self):
        assert f(1.0) == 0.0
        assert ftilde(1.0) == 0.0

    def test_threshold_constant(self):
        assert (2 * math.pi) ** 2 / f(Z0) == pytest.approx(57.5041, abs=5e-3)

    def test_ftilde_dominates_f(self):
        for z in np.linspace(Z0, 1.0, 200):
            assert ftilde(z) >= f(z) - 1e-14

    def test_strictly_decreasing(self):
        # on the certified range, the whole domain of f and ftilde
        zs = np.linspace(Z0, 1.0, 1000)
        fs = [f(z) for z in zs]
        fts = [ftilde(z) for z in zs]
        assert all(a > b for a, b in zip(fs, fs[1:]))
        assert all(a > b for a, b in zip(fts, fts[1:]))

    def test_quadrature_convergence(self):
        # halving the tolerance moves the exponent integral by less than
        # the reported bound
        for z in (0.5, Z0, 0.9):
            coarse, err = quad(envelope._F, 1.0, z, epsabs=1e-10)
            fine, _ = quad(envelope._F, 1.0, z, epsabs=5e-11)
            assert abs(coarse - fine) <= max(err, 1e-15)

    def test_domain(self):
        for bad in (0.2, 0.5, math.nextafter(Z0, 0.0), 1.1):
            with pytest.raises(DomainError):
                f(bad)
            with pytest.raises(DomainError):
                ftilde(bad)


class TestInversion:
    def test_threshold_point(self):
        # C*^2 = 57.50413 rounded up, so the target lies just below f(Z0)
        assert invert_f((2 * math.pi) ** 2 / 57.5042) == pytest.approx(Z0, abs=1e-5)

    def test_zero_maps_to_one(self):
        assert invert_f(0.0) == 1.0
        assert invert_ftilde(0.0) == 1.0

    def test_round_trip(self):
        rng = random.Random(17)
        top = f(Z0)
        for _ in range(100):
            x = rng.uniform(0.0, top)
            assert f(invert_f(x)) == pytest.approx(x, abs=1e-10)
        top_t = ftilde(Z0)
        for _ in range(20):
            x = rng.uniform(0.0, top_t)
            assert ftilde(invert_ftilde(x)) == pytest.approx(x, abs=1e-10)

    def test_out_of_range(self):
        with pytest.raises(UncertifiableError):
            invert_f(f(Z0) * 1.01)

