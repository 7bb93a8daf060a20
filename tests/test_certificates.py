import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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


#: 1/C^2 for C the decimal 7.5832, not its float.
EXACT_INV_C_SQ = 1 / Fraction("7.5832") ** 2


def _exact_margin(lhats):
    return EXACT_INV_C_SQ - sum(1 / Fraction(v) ** 2 for v in lhats if v != math.inf)


@st.composite
def near_ties(draw):
    """2-3 lengths whose sum of 1/Lhat^2 lies within rounding of 1/C^2: the
    others drawn, the last solved for and moved by up to 64 ulps, in any order."""
    others = draw(st.lists(st.one_of(st.floats(UNIVERSAL_C, 2 * UNIVERSAL_C),
                                     st.floats(UNIVERSAL_C, 1e4)), min_size=1, max_size=2))
    rest = 1 / UNIVERSAL_C ** 2 - sum(1 / v ** 2 for v in others)
    assume(rest > 0.0)
    last, step = 1 / math.sqrt(rest), draw(st.integers(-64, 64))
    for _ in range(abs(step)):
        last = math.nextafter(last, math.inf if step > 0 else 0.0)
    return draw(st.permutations(others + [last]))


def _lengths_summing_to(x, bits=1100):
    """Lengths 2^m whose 1/Lhat^2 sum to x less under 2^-bits: one 4^-m for
    each even bit of x, two for each odd one."""
    lengths = []
    for j in range(1, bits + 1):
        if x >= Fraction(1, 2 ** j):
            x -= Fraction(1, 2 ** j)
            lengths += [2.0 ** (j // 2)] if j % 2 == 0 else [2.0 ** ((j + 1) // 2)] * 2
    return lengths


class TestExactDecision:
    """certify decides sum(1/Lhat_i^2) < 1/C^2 exactly, for the lengths as
    the binary floats they are and C the decimal 7.5832, and margin > 0
    exactly when certified."""

    @settings(max_examples=500, deadline=None)
    @given(lhats=near_ties())
    # certified with margin +3.5e-18 by the float sum; the exact margin is -5.34e-19
    @example(lhats=(7.609315279112138, 129.55402493453926, 129.55402493453926))
    # not certified by the float sum, whose combined length 7.583199999999998 lies under C
    @example(lhats=[70.26755710624317, 7.791837340216527, 37.36458612961218])
    def test_near_ties_against_fraction(self, lhats):
        exact = _exact_margin(lhats)
        float_sum = sum(1 / v ** 2 for v in lhats)
        float_margin = 1 / 7.5832 ** 2 - float_sum
        kept = (float_margin > 0.0) is (exact > 0)
        inv_sq = float_sum if kept else float(EXACT_INV_C_SQ - exact)
        for cert in (certify(lhats), full_certificate(lhats)):
            assert cert.certified is (exact > 0)
            assert cert.certified is (cert.margin > 0.0)
            assert cert.margin.hex() == (float_margin if kept else float(exact)).hex()
            assert cert.combined_lhat.hex() == (1 / math.sqrt(inv_sq)).hex()
            if cert.certified:
                assert cert.combined_lhat >= UNIVERSAL_C
            else:
                assert cert.combined_lhat <= UNIVERSAL_C
        assert (cert.volume_drop is not None) is cert.certified  # envelope_bounds took it

    def test_exact_tie_not_certified(self):
        # 1/C^2 = 1562500/9479^2, and 1/(9479/2^j)^2 = 4^j/9479^2: one length per unit of
        # each base-4 digit of 1562500 makes the sum exactly 1/C^2, which the float sum,
        # largest term first, puts 6.9e-18 below it
        digits, n, j = [], 1562500, 0
        while n:
            digits, n, j = digits + [j] * (n % 4), n // 4, j + 1
        lhats = sorted(9479 / 2 ** j for j in digits)
        assert _exact_margin(lhats) == 0
        assert 1 / 7.5832 ** 2 - sum(1 / v ** 2 for v in lhats) > 0.0
        cert = certify(lhats)
        assert not cert.certified and cert.margin == 0.0

    def test_many_lengths_rounding(self):
        # sum() without compensation (before Python 3.12) gives these 1 000 equal terms
        # float margin +2.7e-16, 69 units of u*(1/C^2 + sum): the bound grows with the count
        lhats = [239.8018395258883] * 1000
        exact = _exact_margin(lhats)
        cert = certify(lhats)
        assert exact < 0 and not cert.certified and cert.margin <= 0.0

    def test_one_length_route_is_exact_near_c(self):
        # every float within 200 000 ulps of C: certified exactly from the first float above C
        hi = next(v for v in (7.5832, math.nextafter(7.5832, math.inf)) if Fraction(v) > 7.5832)
        assert Fraction(math.nextafter(hi, 0.0)) < Fraction("7.5832") < Fraction(hi)
        bits = int(np.float64(hi).view(np.int64))
        floats = np.arange(bits - 200_001, bits + 200_001, dtype=np.int64).view(np.float64).tolist()
        assert [certify([v]).certified for v in floats] == [v >= hi for v in floats]
        assert certify([hi]).combined_lhat >= UNIVERSAL_C >= certify([floats[200_000]]).combined_lhat
        # beyond the window the margin is far above the general pass's rounding bound
        assert certify([floats[0]]).margin < -8e-13 and certify([floats[-1]]).margin > 8e-13

    def test_positive_margin_that_rounds_to_zero(self):
        # the float just below 1/C^2, then the rest in powers of 4: the float sum
        # rounds up to 1/C^2's float, the exact margin is positive but under 2^-1075
        below = math.nextafter(1 / 7.5832 ** 2, 0.0)
        assert Fraction(below) < EXACT_INV_C_SQ < Fraction(1 / 7.5832 ** 2)
        lhats = _lengths_summing_to(EXACT_INV_C_SQ - Fraction(below)) + \
            _lengths_summing_to(Fraction(below))[::-1]
        exact = _exact_margin(lhats)
        assert exact > 0 and float(exact) == 0.0
        cert = certify(lhats)
        assert cert.certified and cert.margin == math.ulp(0.0)


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

    def test_sample_cap_value(self):
        with pytest.raises(DomainError, match="samples must be at most 150000, got 150001"):
            figure_data(2, 150_001)
