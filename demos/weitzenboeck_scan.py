"""Probe positivity of the boundary quadratic form b.

The form b acts on 1-forms on the tube boundary torus, expanded in Fourier
modes on the unit square.  It is nonnegative whenever the principal
curvatures satisfy 1/sqrt(3) <= k1 <= k2 <= sqrt(3) (with k1 k2 = 1) and
the spectral shift epsilon is at most 2 k1.  Outside that window positivity
genuinely fails: at k2 = 2 the single mode sigma = sin(2 pi x2) theta2
gives b = -pi^2.

b splits into one 2x2 form per Fourier mode, so its exact minimum over
unit-norm forms with |m|, |n| <= 3 is the smallest eigenvalue over those
modes (exact_min_b).  A random scan only bounds that minimum from above.
"""

import math

import numpy as np

from dehnfill import BoundaryCurvature, FourierMode1Form, boundary_form_b, exact_min_b, scan_min_b

rng = np.random.default_rng(7)

print("inside the certified curvature window:")
for k1 in np.linspace(1.0 / math.sqrt(3.0), 1.0, 5):
    curv = BoundaryCurvature(k1=k1, epsilon=min(2.0 * k1, 1.0))
    scan = scan_min_b(curv, rng, 2000)
    exact, mode = exact_min_b(curv)
    print(f"  k1 = {k1:.4f}, k2 = {curv.k2:.4f}: min b over 2000 random forms = {scan:.3e}, "
          f"exact min b = {exact:.3e} at mode {mode}")
    assert -1e-10 <= exact <= scan

print()
print("outside the window the form goes negative:")
curv = BoundaryCurvature(k1=0.5, epsilon=0.0)
sigma = FourierMode1Form({(0, 1): (0.0, -0.5j), (0, -1): (0.0, 0.5j)})
b = boundary_form_b(curv, sigma)
print(f"  k2 = 2, sigma = sin(2 pi x2) theta2: b = {b:.6f} (exact -pi^2 = {-math.pi**2:.6f})")
assert abs(b + math.pi**2) < 1e-12
exact, mode = exact_min_b(curv)
print(f"  exact min b = {exact:.6f} at mode {mode} (-18 pi^2 = {-18 * math.pi**2:.6f})")
assert abs(exact + 18 * math.pi**2) < 1e-9
