"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import math
import random
import time

import numpy as np
import pytest

from dehnfill.certificates import UNIVERSAL_C, envelope_bounds
from dehnfill import envelope
from dehnfill.envelope import f, ftilde
from dehnfill.packing import R0, S_CONSTANT, h
from dehnfill.slope_lattice import CuspShape, enumerate_short_slopes
from dehnfill.weitzenboeck import BoundaryCurvature, FourierMode1Form, boundary_form_b, random_form

from oracles import G, Gtilde, H
from test_slope_lattice import brute_force_slopes

Z0 = 1.0 / math.sqrt(3.0)


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_constant_reproduction():
    start = time.perf_counter()
    sq = (2 * math.pi) ** 2 / f(Z0)
    root = math.sqrt(sq)
    elapsed = time.perf_counter() - start
    ok = abs(sq - 57.5041) <= 5e-3 and abs(root - 7.58315) <= 5e-4 and elapsed < 1.0
    report(1, "constant reproduction", ok,
           f"(2pi)^2/f(z0)={sq:.6f}, sqrt={root:.6f}, {elapsed:.3f}s")


def test_02_volume_drop_bound():
    start = time.perf_counter()
    hi = envelope_bounds(UNIVERSAL_C).volume_drop[1]
    elapsed = time.perf_counter() - start
    ok = abs(hi - 0.197816) <= 5e-5 and elapsed < 1.0
    report(2, "volume-drop bound", ok, f"hi={hi:.7f}, {elapsed:.3f}s")


def test_03_visual_area_ceiling():
    h0 = h(R0)
    hi = envelope_bounds(UNIVERSAL_C).visual_area[1]
    ok = abs(h0 - 0.980254) <= 1e-5 and abs(hi - h0) <= 1e-4
    report(3, "visual-area ceiling", ok, f"h(R0)={h0:.7f}, hi={hi:.7f}")


def test_04_core_length_bound():
    val = envelope_bounds(UNIVERSAL_C).core_length_hi
    ok = abs(val - 0.156012) <= 1e-5
    report(4, "core-length bound", ok, f"bound={val:.7f}")


def test_05_packing_constant_consistency():
    inv_s = 1.0 / S_CONSTANT
    prov = 2 * math.sqrt(3.0) * 0.980258
    ok = abs(inv_s - 0.980257) <= 5e-6 and abs(prov - 3.3957) <= 5e-4
    report(5, "packing-constant consistency", ok,
           f"1/S={inv_s:.7f}, 2*sqrt(3)*0.980258={prov:.6f}")


def test_06_weitzenboeck_positivity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    b_min = math.inf
    for _ in range(10_000):
        k1 = float(rng.uniform(1.0 / math.sqrt(3.0), 1.0))
        eps = float(rng.uniform(0.0, 2.0 * k1))
        curv = BoundaryCurvature(k1, epsilon=eps)
        b_min = min(b_min, boundary_form_b(curv, random_form(rng)))
    counter = boundary_form_b(
        BoundaryCurvature(0.5, epsilon=0.0),
        FourierMode1Form({(0, 1): (0.0, -0.5j)}),
    )
    elapsed = time.perf_counter() - start
    ok = b_min >= -1e-9 and abs(counter + math.pi**2) <= 1e-9 and elapsed < 10.0
    report(6, "boundary-form positivity", ok,
           f"min b={b_min:.3e}, counterexample b={counter:.6f}, {elapsed:.2f}s")


def test_07_envelope_identities():
    def dH(z, step=1e-6):
        # symmetric 5-point stencil on the rounded nodes with their exact
        # offsets; H' grows like 3e5 near z = 1, so node-rounding error in
        # a naive quotient would swamp the 1e-8 budget
        nodes = [z - 2 * step, z - step, z, z + step, z + 2 * step]
        offsets = np.array([t - z for t in nodes]) / step
        values = np.array([H(t) for t in nodes])
        coeffs = np.linalg.solve(np.vander(offsets, 5, increasing=True), values)
        return coeffs[1] / step

    worst_f = worst_ft = 0.0
    for z in np.linspace(0.45, 0.999, 100):
        worst_f = max(worst_f, abs(envelope._F(z) + 1 / (1 - z) - dH(z) / (H(z) + G(z))))
        worst_ft = max(worst_ft,
                       abs(envelope._Ftilde(z) + 1 / (1 - z) - dH(z) / (H(z) - Gtilde(z))))
    ok = worst_f < 1e-8 and worst_ft < 1e-8
    report(7, "envelope partial-fraction identities", ok,
           f"max|F err|={worst_f:.2e}, max|Ftilde err|={worst_ft:.2e}")


def test_08_neumann_zagier_asymptotics():
    lhat = 1000.0
    env = envelope_bounds(lhat)
    dv_ratio = env.volume_drop[1] * lhat**2 / math.pi**2
    area_ratio = env.visual_area[1] * lhat**2 / (2 * math.pi) ** 2
    ok = 0.99 <= dv_ratio <= 1.01 and 0.99 <= area_ratio <= 1.01
    report(8, "Neumann-Zagier asymptotics", ok,
           f"dV ratio={dv_ratio:.6f}, area ratio={area_ratio:.6f}")


def test_09_slope_enumeration_oracle():
    rng = random.Random(2026)
    mismatches = 0
    for _ in range(100):
        shape = CuspShape(rng.uniform(-3, 3), rng.uniform(0.08, 3.0))
        got = {(p, q) for p, q, _ in enumerate_short_slopes(shape, 8.0)}
        if got != brute_force_slopes(shape, 8.0):
            mismatches += 1
    report(9, "slope-enumeration oracle equivalence", mismatches == 0,
           f"{mismatches} mismatches over 100 random shapes at cutoff 8")


def test_10_monotonicity_and_ordering():
    zs = np.linspace(Z0, 1.0, 1000)
    fs = [f(z) for z in zs]
    fts = [ftilde(z) for z in zs]
    mono = all(a > b for a, b in zip(fs, fs[1:])) and all(
        a > b for a, b in zip(fts, fts[1:])
    )
    dominance = all(x <= y + 1e-14 for x, y in zip(fs, fts))
    ordering = True
    for lhat in np.linspace(7.6, 100.0, 100):
        env = envelope_bounds(float(lhat))
        (lo, hi), (alo, ahi) = env.volume_drop, env.visual_area
        if not (lo <= hi and alo <= ahi):
            ordering = False
    ok = mono and dominance and ordering
    report(10, "monotonicity and bound ordering", ok,
           f"monotone={mono}, f<=ftilde={dominance}, lo<=hi={ordering}")
