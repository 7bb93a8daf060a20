"""Certified bounds for generalized hyperbolic Dehn filling."""

import scipy  # noqa: F401  (unused; perfbench/child.py reads sys.modules["scipy"].__version__)

from .certificates import (
    UNIVERSAL_C,
    EnvelopeBounds,
    FillingCertificate,
    certificate_to_json,
    certify,
    envelope_bounds,
    figure_data,
    full_certificate,
)
from .envelope import f, ftilde, invert_f, invert_ftilde
from .packing import R0, h
from .slope_lattice import (
    CuspShape,
    enumerate_short_slopes,
    lattice_reduce,
    slope_normalized_length,
)
from .weitzenboeck import (
    BoundaryCurvature,
    FourierMode1Form,
    boundary_form_b,
    exact_min_b,
    random_form,
    random_modes,
    scan_min_b,
)

__version__ = "0.1.0"
