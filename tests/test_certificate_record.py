"""The certificate record and the exact bytes every certificate report keeps."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dehnfill import certificates
from dehnfill.certificates import (
    UNIVERSAL_C,
    EnvelopeBounds,
    FillingCertificate,
    certificate_to_json,
    certify,
    full_certificate,
)
from dehnfill.cli import run

from oracles import certificate_json

CERTIFIED_12_11 = """{
  "per_cusp_lhat": [
    12.0,
    11.0
  ],
  "combined_lhat": 8.108695542208157,
  "certified": true,
  "margin": 0.002180908452656189,
  "tube_radius_floor": 0.6584789484624085,
  "volume_drop": [
    0.13809049082574215,
    0.16851763818339396
  ],
  "visual_area": [
    0.5083041494648366,
    0.7850311315337305
  ],
  "core_length_hi": 0.12494158506461708,
  "z_hat": 0.7151194289383169,
  "z_tilde": 0.8340730325726772
}"""

UNFILLED_INF_12 = """{
  "per_cusp_lhat": [
    null,
    12.0
  ],
  "combined_lhat": 12.0,
  "certified": true,
  "margin": 0.010445371262573545,
  "tube_radius_floor": 0.6584789484624085,
  "volume_drop": [
    0.06590614498930293,
    0.0716616345189103
  ],
  "visual_area": [
    0.2535755771085152,
    0.30085318460532917
  ],
  "core_length_hi": 0.04788227147487665,
  "z_hat": 0.9066152502999405,
  "z_tilde": 0.9220394618503662
}"""

NOT_CERTIFIED_7_5 = """{
  "per_cusp_lhat": [
    7.5
  ],
  "combined_lhat": 7.5,
  "certified": false,
  "margin": -0.00038796207075978903,
  "tube_radius_floor": null,
  "volume_drop": null,
  "visual_area": null,
  "core_length_hi": null,
  "z_hat": null,
  "z_tilde": null
}"""

FIELDS = (
    "per_cusp_lhat", "combined_lhat", "certified", "margin", "tube_radius_floor",
    "volume_drop", "visual_area", "core_length_hi", "z_hat", "z_tilde",
)


def _indent(text: str, prefix: str) -> str:
    return "\n".join(prefix + line if i else line for i, line in enumerate(text.split("\n")))


def _cli_stdout(payload: str) -> str:
    return (
        '{\n  "command": "certify",\n  "status": "ok",\n  "payload": '
        + _indent(payload, "  ")
        + ',\n  "checks": []\n}\n'
    )


@pytest.mark.parametrize("lhats, expected", [
    ([12, 11], CERTIFIED_12_11),
    ([math.inf, 12.0], UNFILLED_INF_12),
    ([7.5], NOT_CERTIFIED_7_5),
])
def test_certificate_to_json_bytes(lhats, expected):
    assert certificate_to_json(full_certificate(lhats)) == expected


@pytest.mark.parametrize("lhat, code, payload", [
    ("12,11", 0, CERTIFIED_12_11),
    ("7.5", 1, NOT_CERTIFIED_7_5),
])
def test_cli_certify_stdout_bytes(capsys, lhat, code, payload):
    assert run(["certify", "--lhat", lhat]) == code
    captured = capsys.readouterr()
    assert captured.out == _cli_stdout(payload)
    assert captured.err == ""


def test_field_order():
    assert FillingCertificate._fields == FIELDS


def test_bound_fields_are_envelope_bounds_in_order():
    # full_certificate appends an EnvelopeBounds whole after the first five fields
    assert FillingCertificate._fields[5:] == EnvelopeBounds._fields


@pytest.mark.parametrize("lhats", [[12.0], [7.5], [12, 11], [7.5, 7.5], [math.inf, 12.0]])
def test_certify_record_has_every_field(lhats):
    # certify builds its record with tuple.__new__, which takes a tuple of any length
    assert len(certify(lhats)) == len(FillingCertificate._fields)


def test_bound_fields_default_to_none():
    cert = FillingCertificate((9.0,), 9.0, True, 0.1, 0.5)
    assert [getattr(cert, name) for name in FIELDS[5:]] == [None] * 5


@pytest.mark.parametrize("name", FIELDS)
def test_fields_cannot_be_assigned(name):
    cert = full_certificate([12, 11])
    with pytest.raises(AttributeError):
        setattr(cert, name, None)


@pytest.mark.parametrize("lhats", [[9.3], [7.5], [7.5832], [12, 11], [math.inf, 12.0]])
def test_certified_is_a_bool(lhats):
    assert type(certify(lhats).certified) is bool
    assert type(full_certificate(lhats).certified) is bool


_LHAT = st.one_of(
    st.floats(min_value=UNIVERSAL_C, max_value=100.0),  # mostly certified
    st.floats(min_value=0.01, max_value=1e150),  # mostly not
    st.just(math.inf),  # an unfilled cusp
)
_LHATS = st.lists(_LHAT, min_size=1, max_size=3).filter(lambda v: any(map(math.isfinite, v)))
_INT = st.integers(min_value=-10**20, max_value=10**20)
CERTIFICATES = st.one_of(
    _LHATS.map(full_certificate),
    st.tuples(  # hand-built, with int fields and the bounds left at their default None
        st.lists(_INT, max_size=3).map(tuple), _INT, st.booleans(), _INT, st.none() | _INT,
    ).map(lambda fields: FillingCertificate(*fields)),
)


@settings(max_examples=500, deadline=None)
@given(CERTIFICATES)
@example(full_certificate([UNIVERSAL_C]))
@example(certify([12.0, 11.0]))  # certified, no bounds
@example(full_certificate([math.inf, 12.0]))
@example(full_certificate([7.5]))
@example(FillingCertificate((1e308,), 1e308, True, 1e308, 1e308))  # finite, sum overflows
@example(FillingCertificate((), 9.0, False, -0.1, None))  # no lengths
@example(full_certificate([12.0])._replace(volume_drop=(0.1, 0.2, 0.3), visual_area=(0.4,)))
@example(full_certificate([12.0])._replace(visual_area=(1, True)))
@example(FillingCertificate((9.0,), 9.0, [True], 0.1, 0.5))  # an unhashable field
@example(FillingCertificate((9.0,), 9.0, True, "0.1", 0.5))  # a str field
@example(FillingCertificate((9.0,), 9.0, True, ((0.1,),), 0.5))  # a nested field
@example(FillingCertificate(("9",), 9.0, False, -0.1, None))  # a str length, on a layout's key
# on the not-certified layout's key, lengths that the % path leaves to json
@example(FillingCertificate((12, 11), 9.0, False, -0.1, None))  # ints
@example(FillingCertificate((True, 12.0), 9.0, False, -0.1, None))  # a bool
@example(FillingCertificate((np.float64(12.0),), 9.0, False, -0.1, None))  # a float subclass
@example(FillingCertificate((math.nan,), 9.0, False, -0.1, None))  # json refuses NaN
@example(FillingCertificate((12.0, -math.inf), 9.0, False, -0.1, None))  # and -inf
def test_certificate_to_json_matches_json_dumps(cert):
    try:
        expected = certificate_json(cert)
    except ValueError:  # a NaN or infinite length: the same exception type
        with pytest.raises(ValueError):
            certificate_to_json(cert)
    else:
        assert certificate_to_json(cert) == expected


@settings(max_examples=300, deadline=None)
@given(_LHATS)
@example([12.0, 11.0])  # certified
@example([7.5])  # not certified
@example([math.inf, 12.0])  # an unfilled cusp
def test_full_certificate_has_a_layout(lhats):
    # a record without a layout is still written right, by the general writer, and far slower
    cert = full_certificate(lhats)
    assert (cert.certified is True, *map(type, cert)) in certificates._LAYOUTS


_BOUNDED = full_certificate([12.0])


@pytest.mark.parametrize("dv, area", [
    (tuple(map(np.float64, _BOUNDED.volume_drop)), _BOUNDED.visual_area),
    (tuple(map(np.float64, _BOUNDED.volume_drop)), tuple(map(np.float64, _BOUNDED.visual_area))),
])
def test_bound_pairs_of_a_float_subclass(dv, area):
    # repr(np.float64(x)) is not float.__repr__(x): only pairs of exact floats take the % layout
    cert = _BOUNDED._replace(volume_drop=dv, visual_area=area)
    assert certificate_to_json(cert) == certificate_json(cert)


@pytest.mark.parametrize("margin", [math.nan, math.inf, -math.inf])
def test_non_finite_margin_raises_value_error(margin):
    cert = FillingCertificate((9.0,), 9.0, True, margin, 0.5)
    with pytest.raises(ValueError):
        certificate_json(cert)
    with pytest.raises(ValueError):
        certificate_to_json(cert)


def test_nan_in_volume_drop_raises_value_error():
    cert = full_certificate([12.0, 11.0])._replace(volume_drop=(0.1, math.nan))
    with pytest.raises(ValueError):
        certificate_to_json(cert)


@pytest.mark.parametrize("margin", [1j, object(), {1, 2}])
def test_unsupported_value_raises_type_error(margin):
    cert = FillingCertificate((9.0,), 9.0, True, margin, 0.5)
    with pytest.raises(TypeError):
        certificate_json(cert)
    with pytest.raises(TypeError):
        certificate_to_json(cert)
