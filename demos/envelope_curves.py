"""Trace the comparison envelopes that drive the volume-drop bounds.

The tube geometry is controlled by two decreasing envelope functions f and
ftilde of z = tanh(tube radius).  Inverting them at x = (2 pi)^2 / L-hat^2
pins the tube radius between two values, and integrating the mean-curvature
kernel between those values gives the two-sided volume-drop bound.  This
script samples both curves, checks the dominance ftilde >= f numerically,
and prints the bound narrowing as the slope gets longer.
"""

import math

import numpy as np

from dehnfill import envelope_bounds, f, ftilde

Z0 = 1.0 / math.sqrt(3.0)

print("z        f(z)        ftilde(z)")
for z in np.linspace(Z0, 1.0, 12):
    print(f"{z:.4f}   {f(z):.8f}  {ftilde(z):.8f}")

zs = np.linspace(Z0, 1.0, 500)
gap = np.array([ftilde(z) - f(z) for z in zs])
print()
print("min(ftilde - f) on [1/sqrt(3), 1]:", gap.min())
assert gap.min() >= -1e-14

print()
print("L-hat    z-hat     z-tilde   dV in")
for lhat in (7.6, 8.0, 10.0, 15.0, 30.0):
    env = envelope_bounds(lhat)
    lo, hi = env.volume_drop
    print(f"{lhat:5.1f}   {env.z_hat:.6f}  {env.z_tilde:.6f}  [{lo:.6f}, {hi:.6f}]")

print()
print("asymptotics at L-hat = 1000 (both ratios should approach 1):")
lhat = 1000.0
env = envelope_bounds(lhat)
print("  dV * L-hat^2 / pi^2      =", env.volume_drop[1] * lhat**2 / math.pi**2)
print("  area * L-hat^2 / (2pi)^2 =", env.visual_area[1] * lhat**2 / (2 * math.pi) ** 2)
