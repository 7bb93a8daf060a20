"""Ground truth from a real hyperbolic manifold: fillings of the figure-eight knot.

The complement is two ideal tetrahedra with shapes z, w (Im > 0) and one edge
equation, log z + log(z - 1) + log w + log(w - 1) = 2*pi*i (principal logs).
The meridian and longitude holonomies are log m = log w + log(1 - z) and
log l = 2 log z + 2 log(1 - z); the complete structure is z = w = e^(i*pi/3)
(Thurston's notes, ch. 4; Neumann and Zagier, Topology 24, 1985).  The
filling (p, q) solves p log m + q log l = 2*pi*i, reached here by Newton's
method along s in p log m + q log l = 2*pi*i*s from the complete structure
(s = 0) to s = 1.  Its volume is D(z) + D(w), with D the Bloch-Wigner
dilogarithm.  For (p, q) = t*(a, b), (a, b) primitive, the core's complex
length is r log m + s log l with a*s - b*r = 1, and the core length is the
absolute value of its real part.

These check certified statements against that manifold: the true volume drop
lies in full_certificate's volume_drop and a primitive filling's core length
lies below core_length_hi.  Two strict xfails hold the known failures: a cone
manifold's core (t >= 2) and the float lower volume-drop bound at large L-hat.
"""

import json
import math
import random

import mpmath
import pytest

from dehnfill import CuspShape, UNIVERSAL_C, full_certificate, slope_normalized_length
from dehnfill.cli import run

#: Working digits of every solve: the (100000, 1) drop is 3.4e-9, wanted to far below 1e-8.
DPS = 30

SHAPE = CuspShape(0.0, 2.0 * 3.0 ** 0.5)  # the figure-eight's cusp, tau = 2*sqrt(3)*i

#: The slopes whose fillings are not hyperbolic, up to sign.
EXCEPTIONAL = [(1, 0), (0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1), (3, 1), (-3, 1), (4, 1), (-4, 1)]


def bloch_wigner(z):
    """D(z) = Im Li2(z) + arg(1 - z) log|z|, the volume of the ideal tetrahedron of shape z."""
    return mpmath.im(mpmath.polylog(2, z)) + mpmath.arg(1 - z) * mpmath.log(abs(z))


def holonomies(z, w):
    """(log m, log l) of the meridian and the longitude at shapes z, w."""
    log_1mz = mpmath.log(1 - z)
    return mpmath.log(w) + log_1mz, 2 * mpmath.log(z) + 2 * log_1mz


def solve(p, q, steps, s_end=1):
    """Shapes (z, w) with p log m + q log l = 2*pi*i*s_end, by Newton's method at
    each of `steps` equal steps of s from the complete structure."""
    two_pi_i = 2j * mpmath.pi
    z = w = mpmath.exp(1j * mpmath.pi / 3)
    tol = mpmath.mpf(10) ** (5 - mpmath.mp.dps)
    for k in range(1, steps + 1):
        target = two_pi_i * s_end * k / steps
        for _ in range(50):
            log_m, log_l = holonomies(z, w)
            edge = mpmath.log(z) + mpmath.log(z - 1) + mpmath.log(w) + mpmath.log(w - 1) - two_pi_i
            cusp = p * log_m + q * log_l - target
            # the Jacobian of (edge, cusp) in (z, w), solved by Cramer's rule
            a, b = 1 / z + 1 / (z - 1), 1 / w + 1 / (w - 1)
            c, d = p / (z - 1) + q * (2 / z + 2 / (z - 1)), p / w
            det = a * d - b * c
            dz, dw = (d * edge - b * cusp) / det, (a * cusp - c * edge) / det
            z, w = z - dz, w - dw
            if abs(dz) + abs(dw) < tol:
                break
        else:
            raise ArithmeticError(f"Newton did not converge at step {k} of ({p}, {q})")
        assert mpmath.im(z) > 0 and mpmath.im(w) > 0, "left the positively oriented shapes"
    return z, w


def complete_volume():
    return 2 * bloch_wigner(mpmath.exp(1j * mpmath.pi / 3))


def filling(p, q, steps=10):
    """(volume drop, core length) of the filling (p, q), at DPS digits."""
    t = math.gcd(p, q)
    a, b = p // t, q // t
    if b:  # q > 0 on every slope here
        s = pow(a, -1, b)
        r = (a * s - 1) // b
    else:
        r, s = 0, a  # a = 1
    assert a * s - b * r == 1
    z, w = solve(p, q, steps)
    log_m, log_l = holonomies(z, w)
    drop = complete_volume() - bloch_wigner(z) - bloch_wigner(w)
    return drop, abs(mpmath.re(r * log_m + s * log_l))


def _seeded_slopes():
    """Four primitive slopes in each of L-hat in [C, 15), [15, 30) and [30, 60]."""
    bands = [[], [], []]
    for q in range(0, 33):
        for p in range(-112, 113):
            if math.gcd(p, q) != 1 or (q == 0 and p != 1):
                continue
            lhat = slope_normalized_length(SHAPE, (p, q))
            if UNIVERSAL_C <= lhat <= 60.0:
                bands[(lhat >= 15.0) + (lhat >= 30.0)].append((p, q))
    rng = random.Random(20261020)
    return [slope for band in bands for slope in rng.sample(band, 4)]


class TestSetup:
    def test_complete_volume(self):
        with mpmath.workdps(DPS):
            assert float(complete_volume()) == pytest.approx(2.029883212819307, abs=1e-15)

    def test_cusp_shape(self):
        # log l / log m tends to the cusp shape as the deformation shrinks
        with mpmath.workdps(DPS):
            log_m, log_l = holonomies(*solve(1, 0, 1, s_end=mpmath.mpf("1e-12")))
            assert complex(log_l / log_m) == pytest.approx(SHAPE.tau, abs=1e-9)

    def test_meyerhoff_volume(self):
        # the (5, 1) filling is the Meyerhoff manifold
        with mpmath.workdps(DPS):
            drop, _ = filling(5, 1, steps=20)
            assert float(complete_volume() - drop) == pytest.approx(0.98136882889223, abs=1e-13)


@pytest.mark.parametrize("slope", _seeded_slopes(), ids=lambda slope: "%d,%d" % slope)
def test_certificate_holds_on_a_primitive_filling(slope):
    cert = full_certificate([slope_normalized_length(SHAPE, slope)])
    assert cert.certified
    with mpmath.workdps(DPS):
        drop, core = filling(*slope)
        assert cert.volume_drop[0] <= drop <= cert.volume_drop[1]
        assert core < cert.core_length_hi


def test_exceptional_slopes_are_short_and_listed(capsys):
    assert run(["enumerate", "--shape", "0,3.4641016151377544", "--cutoff", "7.5832"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["count"] == len(payload["slopes"]) == 54
    listed = {(p, q) for p, q, _ in payload["slopes"]}
    for p, q in EXCEPTIONAL:
        assert slope_normalized_length(SHAPE, (p, q)) < UNIVERSAL_C
        assert (p, q) in listed or (-p, -q) in listed


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "core_length_hi is the t = 1 bound; a cone manifold's core is t times longer (item 16)"))
def test_cone_manifold_core_below_core_length_hi():
    cert = full_certificate([slope_normalized_length(SHAPE, (2, 10))])  # t = 2, angle pi
    with mpmath.workdps(DPS):
        _, core = filling(2, 10)  # 0.035778, against core_length_hi 0.018727
        assert core < cert.core_length_hi


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the float lower bound loses relative accuracy as L-hat grows (item 19)"))
def test_large_filling_drop_above_volume_drop_lo():
    cert = full_certificate([slope_normalized_length(SHAPE, (100000, 1))])  # L-hat 53 728.5
    with mpmath.workdps(DPS):
        drop, _ = filling(100000, 1, steps=3)  # 6.5e-8 (relative) below volume_drop[0]
        assert cert.volume_drop[0] <= drop
