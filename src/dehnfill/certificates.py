"""Decision procedure and geometric bounds for certified Dehn fillings.

A surgery coefficient is certified hyperbolic-fillable when the normalized
lengths Lhat_i of its components satisfy sum(1/Lhat_i^2) < 1/C^2 with the
universal constant C = 7.5832 (strict inequality; equality is reported as
not certified).  Decisions use the literal 7.5832 the certified
statements use, not the tighter derived value sqrt(57.5041) ~ 7.58315 that
``dehnfill constants`` recomputes.

For certified inputs the change of geometry is pinned by the envelope:
with x-hat = (2*pi)^2/Lhat^2, z-hat and z-tilde solve f(z-hat) = x-hat and
ftilde(z-tilde) = x-hat, and

    (1/4) int_{z-tilde}^1 H'/(H (H - Gtilde)) <= Delta V
        <= (1/4) int_{z-hat}^1 H'/(H (H + G)),
    1/H(z-tilde) <= visual area <= 1/H(z-hat),

with the core-length bound visual_area_hi/(2*pi) for a smooth core.
``envelope_bounds`` evaluates all of these at once, as one ``EnvelopeBounds``.
The formulas live in ``envelope`` (both volume-drop integrands are rational
in z and integrated in closed form there); this module owns the decision,
the threshold C, the records and dehnfill's JSON text (``_json``, the
standard library's encoder at indent 2 with strict floats, writes every
certificate and report), and z0 = 1/sqrt(3) comes from ``packing``.
Results are immutable ``typing.NamedTuple`` records read by field name:
``EnvelopeBounds`` and the ``FillingCertificate`` of ``certify`` and
``full_certificate``.
"""

from __future__ import annotations

import json
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .envelope import _area_from_z, _dv_lower_from_z, _dv_upper_from_z, f, invert_f, invert_ftilde
from .errors import DomainError, UncertifiableError
from .packing import R0, Z0

__all__ = [
    "UNIVERSAL_C",
    "EnvelopeBounds",
    "FillingCertificate",
    "certify",
    "full_certificate",
    "envelope_bounds",
    "figure_data",
    "certificate_to_json",
]

#: Universal certification threshold, stored as the literal decimal.
UNIVERSAL_C = 7.5832
_INV_C_SQ = 1.0 / UNIVERSAL_C ** 2
_record = tuple.__new__  # builds a record from its fields, past NamedTuple's __new__


class FillingCertificate(NamedTuple):
    """Full decision-plus-bounds report for one surgery coefficient.

    Four decision fields, tube_radius_floor, then the EnvelopeBounds fields
    in their order, which full_certificate appends whole.  Bound fields are
    None when the input is not certified (the envelope does not apply below
    the threshold).  An immutable NamedTuple, read by field name.
    """

    per_cusp_lhat: tuple[float, ...]
    combined_lhat: float  # 1/combined_lhat^2 = sum(1/Lhat_i^2)
    certified: bool
    margin: float  # 1/C^2 - sum(1/Lhat_i^2); certified iff > 0
    tube_radius_floor: float | None
    volume_drop: tuple[float, float] | None = None
    visual_area: tuple[float, float] | None = None
    core_length_hi: float | None = None
    z_hat: float | None = None
    z_tilde: float | None = None

    def as_dict(self) -> dict:
        """The fields by name, in order, ready for strict JSON: an unfilled
        cusp (Lhat = inf) is written as None."""
        return dict(zip(self._fields, (_unfilled_as_none(self.per_cusp_lhat), *self[1:])))


def _unfilled_as_none(lhats) -> list:
    """The lengths as JSON reads them: an unfilled cusp (Lhat = inf) is None."""
    return [None if v == math.inf else v for v in lhats]


def _values_and_sum(lhats) -> tuple:
    """The lengths as a tuple of floats, sum(1/Lhat_i^2) and the margin, its
    sign decided exactly near 0 (see certify), or DomainError."""
    # a list or tuple, the usual argument, passes at the first and cheaper test
    if not isinstance(lhats, (list, tuple)) and (
        isinstance(lhats, (str, bytes, bytearray))
        or isinstance(lhats, memoryview) and lhats.format in ("B", "b", "c")
        and isinstance(lhats.obj, (bytes, bytearray))
    ):
        raise DomainError(f"normalized lengths must be numbers, not a string: {lhats!r}")
    values, terms = [], []
    positive = True
    for v in lhats:
        if type(v) is not float:  # a float is taken as it is, a string refused
            if isinstance(v, (str, bytes, bytearray)):
                raise DomainError(f"normalized lengths must be numbers, not a string: {v!r}")
            try:
                v = float(v)
            except (OverflowError, TypeError) as exc:  # too large, or not a real number
                raise DomainError(f"normalized length not read as a float: {exc}") from None
        values.append(v)
        positive = positive and v > 0.0
        try:  # v ** 2, not v * v: the two can differ in the last bit, and decisions use it
            terms.append(1.0 / v ** 2)
        except OverflowError:  # Lhat_i^2 overflows, so 1/Lhat_i^2 is 0
            terms.append(0.0)
        except ZeroDivisionError:  # Lhat_i^2 underflows to 0 (or Lhat_i is 0)
            terms.append(math.inf)
    if not values:
        raise DomainError("need at least one normalized length")
    if not positive:
        raise DomainError(f"normalized lengths must be positive, got {values}")
    inv_sq = sum(terms)  # not +=: sum() of floats is compensated from Python 3.12
    if not 0.0 < inv_sq < math.inf:
        reason = (
            "0: every cusp is unfilled or too long" if inv_sq == 0.0
            else "not finite: a cusp is too short"
        )
        raise DomainError(f"sum of 1/Lhat^2 is {reason} (normalized lengths {values})")
    margin = _INV_C_SQ - inv_sq
    if abs(margin) <= (2 * len(values) + 9) * 2.0 ** -53 * (_INV_C_SQ + inv_sq):
        total = sum(1 / Fraction(v) ** 2 for v in values if v != math.inf)
        exact = 1 / Fraction(repr(UNIVERSAL_C)) ** 2 - total
        if (exact > 0) != (margin > 0.0):
            inv_sq = float(total)  # at most _INV_C_SQ when certified, so combined_lhat >= C
            margin = max(float(exact), math.ulp(0.0)) if exact > 0 else float(exact)
    return tuple(values), inv_sq, margin


def certify(lhats) -> FillingCertificate:
    """Decision-only certificate: certified iff sum(1/Lhat_i^2) < 1/C^2.

    A list or tuple (exactly, not a subclass) of one float v with 1e-150 <
    v < 1e150 is decided from 1.0 / v ** 2 alone: there v ** 2 cannot
    overflow, 1/v^2 is finite and positive, and sum() of one term is that
    term, so every float is the one the general pass gives.  Any other
    argument takes that pass, which converts each length and takes its term
    1/Lhat_i^2 (0 where Lhat_i^2 overflows, inf where it underflows); sum()
    adds the terms.  Both share the decision and record.

    The decision is exact for the lengths as the binary floats they are and
    C the decimal 7.5832.  With u = 2^-53 and k lengths, the float margin
    1/C^2 - sum is off by at most 5u/C^2 (three roundings make _INV_C_SQ),
    3u*t per term t (a square and a quotient; a subnormal or lost term adds
    under 2^-1022, far below u/C^2, and a square below 2^-1022 makes both
    signs negative), 2k*u*sum for sum() (plain or compensated) and
    u*|margin| for the subtraction, which keeps the sign.  So where |margin|
    > (2k + 9) * u * (1/C^2 + sum) the float sign is exact, with about
    twice the room the terms need.  Within that bound the general pass
    decides in Fraction and keeps the float margin and sum unless the
    margin's sign disagrees; then it reports the exact margin and sum, each
    rounded once (a positive margin that rounds to 0 as the least positive
    float).  So margin > 0 exactly when certified, and a certified
    combined_lhat is at least C's float, as envelope_bounds needs: the
    rounded sum is at most _INV_C_SQ, the float nearest 1/C^2, and
    1/sqrt(_INV_C_SQ) rounds back to C.  The one-length route needs no
    fallback: its margin is nondecreasing in v, each float within 2e5 ulps
    of C is decided exactly (a test checks every one), and beyond them
    |margin| > 8e-13, far above the bound.

    DomainError refuses, in this order: a str, bytes or bytearray argument,
    or a byte or char view of bytes; each element in turn, a string before
    float reads it, then one float() cannot read (an int or Fraction beyond
    the float range, None, a complex number, any other object); no lengths;
    a length not positive (NaN included); a sum that is 0 or not finite."""
    v = lhats[0] if (type(lhats) is list or type(lhats) is tuple) and len(lhats) == 1 else None
    if type(v) is float and 1e-150 < v < 1e150:
        values, inv_sq = (v,), 1.0 / v ** 2
        margin = _INV_C_SQ - inv_sq
    else:
        values, inv_sq, margin = _values_and_sum(lhats)
    certified = margin > 0.0
    return _record(FillingCertificate, (values, 1.0 / math.sqrt(inv_sq), certified, margin,
                                        R0 if certified else None, None, None, None, None, None))


class EnvelopeBounds(NamedTuple):
    """Both envelope inversions at one normalized length and every bound
    read off them: volume_drop and visual_area are (lo, hi) pairs, and
    core_length_hi is visual_area_hi/(2*pi).  The fields are the
    certificate's tail, in order; FillingCertificate, certify's record and
    _LAYOUTS list them too (tests/test_certificate_record.py checks each)."""

    volume_drop: tuple[float, float]
    visual_area: tuple[float, float]
    core_length_hi: float
    z_hat: float
    z_tilde: float


def envelope_bounds(lhat: float) -> EnvelopeBounds:
    """The envelope bounds at one normalized length Lhat >= C: both
    envelopes inverted once at x-hat = (2*pi)^2/Lhat^2, and every bound
    read off z-hat and z-tilde.  Raises UncertifiableError below C, and
    DomainError for NaN.
    """
    if not lhat >= UNIVERSAL_C:
        if math.isnan(lhat):
            raise DomainError(f"normalized length must be a number, got {lhat}")
        raise UncertifiableError(
            f"uncertifiable: normalized length {lhat} below threshold {UNIVERSAL_C}"
        )
    try:
        x_hat = (2.0 * math.pi) ** 2 / lhat ** 2
    except OverflowError:  # lhat ** 2 overflows
        x_hat = 0.0
    z_hat, z_tilde = invert_f(x_hat), invert_ftilde(x_hat)
    dv = (_dv_lower_from_z(z_tilde), _dv_upper_from_z(z_hat))
    area = (_area_from_z(z_tilde), _area_from_z(z_hat))
    return EnvelopeBounds(dv, area, area[1] / (2.0 * math.pi), z_hat, z_tilde)


def full_certificate(lhats) -> FillingCertificate:
    """Certificate with geometric bounds filled in when certified."""
    cert = certify(lhats)
    return _record(FillingCertificate, cert[:5] + envelope_bounds(cert[1])) if cert[2] else cert


def _json_token(v) -> str:
    """One length as the % path joins it: null, or float.__repr__ of an
    exact finite float, json's float token.  TypeError for anything else,
    which sends the record to _json."""
    if v is None:
        return "null"
    if type(v) is float and math.isfinite(v):
        return float.__repr__(v)
    raise TypeError(f"not a % path token: {v!r}")


#: value as json.dumps(value, indent=2, allow_nan=False) writes it, bytes and
#: errors: the one writer of dehnfill's JSON (cli's reports, the general path
#: of certificate_to_json and _LAYOUTS), json's encoder at dehnfill's format.
_json = json.JSONEncoder(indent=2, allow_nan=False).encode


def _layout(template: FillingCertificate) -> str:
    """_json's text of a record whose fields hold "%s" and "%r", with those
    slots unquoted: a layout for one % format."""
    return _json(template.as_dict()).replace('"%s"', "%s").replace('"%r"', "%r")


_S, _R = "%s", "%r"  # the joined length tokens; one float
#: The % layout of a record not certified and of one certified with bounds,
#: by certified and the type of each field: _json's text of a template record
#: of slots, where a float goes in as %r.
_LAYOUTS = {
    (False, tuple, float, bool, float, *(type(None),) * 6):
        _layout(FillingCertificate([_S], _R, False, _R, None)),
    (True, tuple, float, bool, float, float, tuple, tuple, float, float, float):
        _layout(FillingCertificate([_S], _R, True, _R, _R, [_R] * 2, [_R] * 2, _R, _R, _R)),
}


def certificate_to_json(cert: FillingCertificate) -> str:
    """Serialize a certificate with exactly its field names, as strict JSON;
    an unfilled cusp (Lhat = inf) is written as null.

    The bytes and errors are those of json.dumps(cert.as_dict(), indent=2,
    allow_nan=False): a non-finite float raises ValueError, and a value json
    cannot write TypeError.  A record not certified or certified with
    bounds, with finite float fields and lengths, is one % format of its
    layout, and %r is float.__repr__, json's float token.  Any other record
    (certify's certified one, hand-built, int fields, no lengths, str or
    nested values) takes the general path, json's encoder (_json).
    """
    lhats, combined, certified, margin, radius, dv, area, *tail = cert
    layout = _LAYOUTS.get((certified is True, *map(type, cert)))  # a field may be unhashable
    if dv is None:
        floats = (combined, margin)
    elif layout and tuple(map(type, dv)) == tuple(map(type, area)) == (float, float):
        floats = (combined, margin, radius, *dv, *area, *tail)
    else:
        layout = None
    # a finite sum proves each float finite; one that overflows takes the general path
    if layout and lhats and math.isfinite(sum(floats)):
        try:
            return layout % (",\n    ".join(map(_json_token, _unfilled_as_none(lhats))), *floats)
        except TypeError:  # a length not None or an exact finite float: json's to write
            pass
    return _json(cert.as_dict())


#: Largest sample count accepted by figure_data: about 2 s of `dehnfill
#: figure` work (1.7 to 2.0 s for figure 2), 5 to 10 us per row: 4 to 7 to
#: tabulate and 1 to 3 to write as CSV (150 000 rows, each figure, 5 runs, a
#: shared 2-vCPU x86-64 host).
MAX_SAMPLES = 150_000

FIGURE_HEADERS = {
    1: ("x", "area_lower", "area_upper"),
    2: ("x_hat", "volume_drop_lower", "volume_drop_upper", "nz_asymptote"),
    3: ("x_hat", "area_lower", "area_upper", "nz_asymptote"),
}


def figure_data(which: int, samples: int) -> tuple[tuple[str, ...], list[tuple[float, ...]]]:
    """Tabulate the envelope figures on an x grid from 0 to f(1/sqrt(3)).

    Figure 1: visual-area envelope (lower from ftilde, upper from f) versus
    x = alpha^2/Lhat^2.  Figure 2: volume-drop bounds versus
    x_hat = (2*pi)^2/Lhat^2, with the asymptote pi^2/Lhat^2 = x_hat/4.
    Figure 3: visual-area bounds versus x_hat, asymptote (2*pi)^2/Lhat^2
    = x_hat.  Returns (header, rows of floats) on np.linspace's grid, bit
    for bit; refuses a figure id that is not the integer 1, 2 or 3 (a bool
    included) and a count that is not an integer in [2, MAX_SAMPLES] first.
    """
    try:
        figure = None if isinstance(which, bool) else operator.index(which)
    except TypeError:
        figure = None
    if figure not in FIGURE_HEADERS:
        raise DomainError(f"figure id must be 1, 2 or 3, got {which!r}")
    try:
        samples = operator.index(samples)
    except TypeError:
        raise DomainError(f"sample count must be an integer, got {samples!r}") from None
    if samples < 2:
        raise DomainError(f"need at least 2 samples, got {samples}")
    if samples > MAX_SAMPLES:
        raise DomainError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    x_max = f(Z0)
    step = x_max / (samples - 1)
    xs = [k * step for k in range(samples - 1)] + [x_max]
    z_hats, z_tildes = list(map(invert_f, xs)), list(map(invert_ftilde, xs))
    lower, upper = (_dv_lower_from_z, _dv_upper_from_z) if figure == 2 else (_area_from_z,) * 2
    asymptote = [x / 4.0 for x in xs] if figure == 2 else xs
    columns = (xs, map(lower, z_tildes), map(upper, z_hats), asymptote)
    return FIGURE_HEADERS[figure], list(zip(*columns[:len(FIGURE_HEADERS[figure])]))
