"""Walk through certifying a Dehn filling from cusp data.

Start from a cusp shape, enumerate the slopes short enough to matter,
then ask for a certificate on a sample of filling slopes.  A filling is
certified hyperbolic when the sum of inverse squared normalized lengths
stays strictly under 1/C^2 with C = 7.5832; the certificate also carries
two-sided bounds on the volume drop and the visual area of the tube
boundary, and an upper bound on the core geodesic length.
"""

from dehnfill import (
    CuspShape,
    UNIVERSAL_C,
    certificate_to_json,
    enumerate_short_slopes,
    full_certificate,
    slope_normalized_length,
)

# the figure-eight knot complement cusp, tau = 2*sqrt(3)*i: the limit of
# log(longitude)/log(meridian) at the complete hyperbolic structure
shape = CuspShape(re=0.0, im=2.0 * 3.0 ** 0.5)

print("cusp modulus tau =", shape.tau)
print("threshold C =", UNIVERSAL_C)
print()

# every primitive slope with normalized length at most C is a potential
# obstruction; anything longer certifies on its own
short = enumerate_short_slopes(shape, UNIVERSAL_C)
print(f"{len(short)} primitive slopes with L-hat <= {UNIVERSAL_C}:")
for p, q, lhat in short:
    print(f"  ({p:3d},{q:3d})  L-hat = {lhat:.6f}")
print()

for slope in [(1, 0), (7, 1), (12, 5)]:
    lhat = slope_normalized_length(shape, slope)
    cert = full_certificate([lhat])
    if not cert.certified:
        print(f"slope {slope}: L-hat = {lhat:.4f}, below threshold, no certificate")
        continue
    print(f"slope {slope}: L-hat = {lhat:.4f}")
    print(certificate_to_json(cert))
    print()
