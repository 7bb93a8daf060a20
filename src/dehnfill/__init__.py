"""Certified bounds for generalized hyperbolic Dehn filling."""

import scipy  # noqa: F401  (unused; perfbench/child.py reads sys.modules["scipy"].__version__)

from .certificates import (
    C_DERIVED,
    UNIVERSAL_C,
    FillingCertificate,
    SchlafliStep,
    certificate_to_json,
    certify,
    combine_normalized_lengths,
    core_length_bound,
    figure_data,
    full_certificate,
    schlafli_dV,
    visual_area_bounds,
    volume_drop_bounds,
)
from .envelope import EnvelopeTable, f, ftilde, invert_f, invert_ftilde, sample_envelope
from .packing import PACKING, R0, boundary_injectivity_bound, ellipse_axes, h
from .slope_lattice import (
    CuspShape,
    enumerate_short_slopes,
    lattice_reduce,
    slope_normalized_length,
)
from .torus_geometry import (
    ComplexLength,
    SlopeClass,
    TubularTorus,
    complex_length,
    euclidean_length,
    normalized_length,
    principal_curvatures,
    surgery_coefficient,
    visual_area,
)
from .weitzenboeck import (
    BoundaryCurvature,
    FourierMode1Form,
    StandardFormCoefficients,
    boundary_form_b,
    epsilon_zero_kernel,
    random_form,
    standard_form_coeffs,
    symbol_matrix_LS,
)

__version__ = "0.1.0"
