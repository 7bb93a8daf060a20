import json
import math
import random

import numpy as np
import pytest

from dehnfill.certificates import (
    UNIVERSAL_C,
    certificate_to_json,
    certify,
    envelope_bounds,
    figure_data,
    full_certificate,
)
from dehnfill.errors import DomainError, UncertifiableError
from dehnfill.packing import R0, h


class TestCombine:
    def test_single(self):
        assert certify([8.0]).combined_lhat == pytest.approx(8.0, rel=1e-15)

    def test_pair(self):
        assert certify([8.0, 8.0]).combined_lhat == pytest.approx(
            8.0 / math.sqrt(2.0), rel=1e-14
        )

    def test_eleven_pair(self):
        assert certify([11.0, 11.0]).combined_lhat == pytest.approx(7.77817, abs=1e-5)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            certify([])

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            certify([3.0, -1.0])


class TestCertify:
    def test_just_above_threshold(self):
        cert = certify([7.6])
        assert cert.certified
        assert cert.tube_radius_floor == pytest.approx(R0)

    def test_below_threshold(self):
        cert = certify([7.5])
        assert not cert.certified
        assert cert.tube_radius_floor is None

    def test_boundary_equality_not_certified(self):
        assert not certify([UNIVERSAL_C]).certified

    def test_two_cusps(self):
        cert = certify([11.0, 11.0])
        assert cert.certified
        assert cert.margin == pytest.approx(1 / UNIVERSAL_C**2 - 2 / 121.0, rel=1e-12)

    def test_combine_consistency(self):
        lhats = [9.0, 12.0, 30.0]
        combined = certify(lhats).combined_lhat
        assert certify(lhats).certified == certify([combined]).certified
        assert certify(lhats).combined_lhat == pytest.approx(combined, rel=1e-14)


def _certify_cases():
    """Random 1-3-cusp L-hat tuples, some with an unfilled cusp, and the
    tuples exactly at C padded with unfilled cusps."""
    rng = random.Random(7)
    cases = []
    for _ in range(400):
        lhats = [UNIVERSAL_C * 3.0 ** rng.uniform(-0.5, 1.0) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.25:
            lhats.insert(rng.randint(0, len(lhats)), math.inf)
        cases.append(tuple(lhats))
    c, inf = UNIVERSAL_C, math.inf
    return cases + [(c,), (inf, c), (c, inf), (inf, inf, c), (c, inf, inf), (inf, c, inf)]


class TestCertifyBits:
    """certify's margin, combined length and decision, bit for bit against
    the formulas written out."""

    def test_against_formula(self):
        for lhats in _certify_cases():
            inv_sq = sum(1 / v ** 2 for v in lhats if v != math.inf)
            cert = certify(lhats)
            assert cert.margin == 1 / 7.5832 ** 2 - inv_sq, lhats
            assert cert.combined_lhat == 1 / math.sqrt(inv_sq), lhats
            assert cert.certified is (cert.margin > 0.0), lhats
            assert cert.per_cusp_lhat == lhats

    def test_at_c_not_certified(self):
        for lhats in _certify_cases()[-6:]:
            assert certify(lhats).certified is False

    @pytest.mark.parametrize("lhats, message", [
        ([], "need at least one normalized length"),
        ((3.0, -1.0), "normalized lengths must be positive, got [3.0, -1.0]"),
        ((0.0,), "normalized lengths must be positive, got [0.0]"),
        ((math.inf, math.inf),
         "sum of 1/Lhat^2 is 0: every cusp is unfilled or too long "
         "(normalized lengths [inf, inf])"),
    ])
    def test_error_messages(self, lhats, message):
        with pytest.raises(DomainError) as info:
            certify(lhats)
        assert str(info.value) == message


class TestVolumeDrop:
    def test_threshold_upper_bound(self):
        lo, hi = envelope_bounds(UNIVERSAL_C).volume_drop
        assert hi == pytest.approx(0.197816, abs=5e-5)
        assert 0.0 <= lo <= hi

    def test_neumann_zagier_asymptote(self):
        _, hi = envelope_bounds(1000.0).volume_drop
        assert 0.99 <= hi * 1000.0**2 / math.pi**2 <= 1.01

    def test_ordering_sampled(self):
        for lhat in np.linspace(7.6, 100.0, 100):
            lo, hi = envelope_bounds(float(lhat)).volume_drop
            assert 0.0 <= lo <= hi

    def test_uncertifiable(self):
        with pytest.raises(UncertifiableError):
            envelope_bounds(7.0)


class TestVisualArea:
    def test_threshold_ceiling(self):
        lo, hi = envelope_bounds(UNIVERSAL_C).visual_area
        assert hi == pytest.approx(h(R0), abs=1e-4)
        assert 0.0 < lo <= hi

    def test_asymptote(self):
        _, hi = envelope_bounds(1000.0).visual_area
        assert 0.99 <= hi * 1000.0**2 / (2 * math.pi) ** 2 <= 1.01

    def test_ceiling_for_certified_inputs(self):
        for lhat in (7.5832, 8.0, 10.0, 50.0):
            assert envelope_bounds(lhat).visual_area[1] <= h(R0) + 1e-9


class TestCoreLength:
    def test_threshold(self):
        assert envelope_bounds(UNIVERSAL_C).core_length_hi == pytest.approx(0.156012, abs=1e-5)

    def test_asymptote(self):
        val = envelope_bounds(1000.0).core_length_hi
        assert val == pytest.approx(2 * math.pi / 1000.0**2, rel=0.02)

    def test_monotone_decreasing(self):
        vals = [envelope_bounds(l).core_length_hi for l in (7.6, 8.0, 10.0, 20.0, 100.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestCertificateReport:
    def test_full_certificate_fields(self):
        cert = full_certificate([11.0, 11.0])
        assert cert.certified
        assert cert.volume_drop[0] <= cert.volume_drop[1]
        assert cert.visual_area[0] <= cert.visual_area[1] <= h(R0) + 1e-9
        assert cert.core_length_hi == pytest.approx(
            cert.visual_area[1] / (2 * math.pi), rel=1e-14
        )

    def test_uncertified_has_no_bounds(self):
        cert = full_certificate([5.0])
        assert not cert.certified
        assert cert.volume_drop is None
        assert cert.z_hat is None

    def test_json_fields(self):
        doc = json.loads(certificate_to_json(full_certificate([9.0])))
        assert set(doc) == {
            "per_cusp_lhat",
            "combined_lhat",
            "certified",
            "margin",
            "tube_radius_floor",
            "volume_drop",
            "visual_area",
            "core_length_hi",
            "z_hat",
            "z_tilde",
        }


class TestFigureData:
    def test_figure2_asymptote_column(self):
        rows = np.array(figure_data(2, 20)[1])
        assert np.allclose(rows[:, 3], rows[:, 0] / 4.0, rtol=0, atol=0)

    def test_figure1_lower_curve_origin(self):
        rows = np.array(figure_data(1, 10)[1])
        assert rows[0, 0] == 0.0
        assert rows[0, 1] == 0.0
        assert rows[0, 2] == 0.0

    def test_figure3_upper_curve_at_threshold(self):
        header, rows = figure_data(3, 12)
        assert header == ("x_hat", "area_lower", "area_upper", "nz_asymptote")
        rows = np.array(rows)
        assert rows[-1, 2] == pytest.approx(0.980254, abs=1e-4)
        assert np.allclose(rows[:, 3], rows[:, 0])

    def test_monotone_in_x(self):
        for which in (1, 2, 3):
            rows = np.array(figure_data(which, 16)[1])
            for col in range(1, rows.shape[1]):
                assert np.all(np.diff(rows[:, col]) >= -1e-12)

    def test_invalid_figure(self):
        with pytest.raises(DomainError):
            figure_data(4, 10)

    def test_too_few_samples(self):
        with pytest.raises(DomainError, match="need at least 2 samples, got 1"):
            figure_data(2, 1)
