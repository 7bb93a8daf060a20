"""The closed-form envelope and volume drop against independent oracles:
adaptive quadrature of the defining integrals, hypothesis properties of the
inversion, and the factored form of H - Gtilde."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import dehnfill
from dehnfill.certificates import C_DERIVED, _dv_lower_from_z, _dv_upper_from_z
from dehnfill.envelope import (
    F,
    Ftilde,
    G,
    Gtilde,
    H,
    H_prime,
    INV_TOL,
    POLE,
    Z_MIN,
    _invert_decreasing,
    f,
    ftilde,
    invert_f,
    invert_ftilde,
)
from dehnfill.errors import ConvergenceError, DomainError

C = 3.3957
GRID = np.linspace(Z_MIN, 1.0 - 1e-9, 120)


def _quad(func, a, b):
    val, _ = quad(func, a, b, epsabs=1e-15, epsrel=1e-14, limit=200)
    return val


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
class TestAgainstQuadrature:
    def test_f(self):
        for z in GRID:
            expected = C * (1.0 - z) * math.exp(-_quad(F, 1.0, z))
            assert abs(f(z) - expected) <= 1e-13

    def test_ftilde(self):
        for z in GRID:
            expected = C * (1.0 - z) * math.exp(-_quad(Ftilde, 1.0, z))
            assert abs(ftilde(z) - expected) <= 1e-13

    def test_volume_drop_upper(self):
        for z in GRID:
            expected = _quad(lambda t: H_prime(t) / (H(t) * (H(t) + G(t))), z, 1.0) / 4.0
            assert abs(_dv_upper_from_z(z) - expected) <= 1e-13

    def test_volume_drop_lower(self):
        for z in GRID:
            expected = _quad(lambda t: H_prime(t) / (H(t) * (H(t) - Gtilde(t))), z, 1.0) / 4.0
            assert abs(_dv_lower_from_z(z) - expected) <= 1e-13


class TestInversionProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_invert_f(self, t):
        x = t * f(Z_MIN)
        z = invert_f(x)
        assert Z_MIN <= z <= 1.0
        assert abs(f(z) - x) <= INV_TOL * max(1.0, x)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_invert_ftilde(self, t):
        x = t * ftilde(Z_MIN)
        z = invert_ftilde(x)
        assert Z_MIN <= z <= 1.0
        assert abs(ftilde(z) - x) <= INV_TOL * max(1.0, x)

    def test_collapsed_bracket_raises(self):
        # a step with no value in (0.5 - tol, 0.5 + tol) cannot meet the tolerance
        def step(z):
            return 1.0 if z < 0.7 else 0.0

        with pytest.raises(ConvergenceError):
            _invert_decreasing(step, lambda z: 0.0, 0.5, "step")

    def test_nan_target_rejected(self):
        with pytest.raises(DomainError):
            invert_f(math.nan)


class TestLowerBoundGuard:
    def test_sign_of_h_minus_gtilde(self):
        for z in np.linspace(0.005, 0.995, 199):
            assert np.sign(H(z) - Gtilde(z)) == np.sign(z * z + 2.0 * z - 1.0)

    def test_guard_at_pole(self):
        with pytest.raises(DomainError):
            _dv_lower_from_z(POLE)


def test_c_derived():
    assert C_DERIVED == pytest.approx(2.0 * math.pi / math.sqrt(f(1.0 / math.sqrt(3.0))),
                                      abs=5e-6)


def test_import_skips_scipy_integrate():
    src = str(Path(dehnfill.__file__).resolve().parents[1])
    code = "import sys, dehnfill, dehnfill.cli; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
