import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dehnfill import slope_lattice
from dehnfill.certificates import certify
from dehnfill.errors import DomainError
from dehnfill.slope_lattice import (
    CuspShape,
    enumerate_short_slopes,
    lattice_reduce,
    slope_normalized_length,
)

C = 7.5832


def brute_force_slopes(shape, cutoff):
    """Independent oracle: scan a square window wide enough to contain all
    slopes of normalized length <= cutoff in the raw (unreduced) basis."""
    qmax = math.ceil(cutoff / math.sqrt(shape.im))
    pmax = math.ceil(cutoff * math.sqrt(shape.im) + qmax * abs(shape.re)) + 1
    out = set()
    for p in range(-pmax, pmax + 1):
        for q in range(-qmax, qmax + 1):
            if (p, q) == (0, 0) or math.gcd(p, q) != 1:
                continue
            if slope_normalized_length(shape, (p, q)) <= cutoff:
                rep = (p, q) if (p > 0 or (p == 0 and q > 0)) else (-p, -q)
                out.add(rep)
    return out


def reference_enumerate(shape, cutoff):
    """The bounding-box enumerator that the scanline one replaced, kept as
    its exact oracle: every (p, q) in the reduced basis's window
    |q| <= ceil(cutoff/sqrt(im)), |p| <= ceil(cutoff*sqrt(im) + qmax*|re|),
    filtered by the same float length test, deduplicated through a dict."""
    reduced, m = lattice_reduce(shape)
    (m11, m12), (m21, m22) = m
    det = m11 * m22 - m12 * m21
    inv = ((m22 * det, -m12 * det), (-m21 * det, m11 * det))
    qmax = math.ceil(cutoff / math.sqrt(reduced.im))
    pmax = math.ceil(cutoff * math.sqrt(reduced.im) + qmax * abs(reduced.re))
    found = {}
    for q in range(-qmax, qmax + 1):
        for p in range(-pmax, pmax + 1):
            if (p, q) == (0, 0) or math.gcd(p, q) != 1:
                continue
            if slope_normalized_length(reduced, (p, q)) > cutoff:
                continue
            p0 = inv[0][0] * p + inv[0][1] * q
            q0 = inv[1][0] * p + inv[1][1] * q
            if p0 < 0 or (p0 == 0 and q0 < 0):
                p0, q0 = -p0, -q0
            found[(p0, q0)] = slope_normalized_length(reduced, (p, q))
    out = [(p0, q0, length) for (p0, q0), length in found.items()]
    out.sort(key=lambda s: (s[2], s[0], s[1]))
    return out


def _sl2_word(rng, tau):
    """tau moved by a random word in T^k and S: tau -> -1/tau."""
    for _ in range(rng.randint(1, 4)):
        tau = tau + rng.choice((-3, -2, -1, 1, 2, 3))
        if rng.random() < 0.6:
            tau = -1.0 / tau
    return tau


class TestNormalizedLength:
    def test_square_lattice(self):
        shape = CuspShape(0.0, 1.0)
        assert slope_normalized_length(shape, (1, 0)) == pytest.approx(1.0)
        assert slope_normalized_length(shape, (3, 4)) == pytest.approx(5.0)

    def test_stretched_lattice(self):
        assert slope_normalized_length(CuspShape(0.0, 2.0), (0, 1)) == pytest.approx(
            math.sqrt(2.0)
        )

    def test_zero_slope_rejected(self):
        with pytest.raises(DomainError):
            slope_normalized_length(CuspShape(0.0, 1.0), (0, 0))

    @pytest.mark.parametrize("slope", [(1.0, math.nan), (math.nan, 0.0), (math.nan, math.inf)])
    def test_nan_slope_rejected(self, slope):
        with pytest.raises(DomainError, match="NaN"):
            slope_normalized_length(CuspShape(0.3, 1.2), slope)

    @pytest.mark.parametrize("slope", [(math.inf, 1.0), (1.0, -math.inf), (1.7e308, 1.7e308)])
    def test_infinite_or_overflowing_slope_is_inf(self, slope):
        assert slope_normalized_length(CuspShape(0.3, 1.2), slope) == math.inf

    @pytest.mark.parametrize("slope", [(10**400, 1), (1, -10**400), (Fraction(10**400, 3), 2)])
    def test_slope_beyond_float_range_is_inf(self, slope):
        # the NaN check must not convert an int or Fraction beyond the float range
        assert slope_normalized_length(CuspShape(0.3, 1.2), slope) == math.inf

    def test_nonpositive_im_rejected(self):
        with pytest.raises(DomainError):
            CuspShape(0.0, -1.0)

    @pytest.mark.parametrize("im", [0.0, -0.0])
    def test_zero_im_rejected(self, im):
        with pytest.raises(DomainError, match="im\\(tau\\) > 0"):
            CuspShape(0.3, im)


class TestLatticeReduce:
    def test_already_reduced(self):
        reduced, m = lattice_reduce(CuspShape(0.0, 1.0))
        assert (reduced.re, reduced.im) == pytest.approx((0.0, 1.0))
        assert m == ((1, 0), (0, 1))

    def test_shear(self):
        reduced, m = lattice_reduce(CuspShape(5.0, 1.0))
        assert reduced.re == pytest.approx(0.0, abs=1e-12)
        assert reduced.im == pytest.approx(1.0, abs=1e-12)
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert abs(det) == 1
        assert det == 1

    def test_short_modulus_reduces(self):
        reduced, _ = lattice_reduce(CuspShape(0.1, 0.3))
        assert abs(reduced.tau) >= 1.0 - 1e-12
        assert abs(reduced.re) <= 0.5 + 1e-12

    def test_reduction_preserves_lengths(self):
        rng = random.Random(5)
        for _ in range(100):
            shape = CuspShape(rng.uniform(-4, 4), rng.uniform(0.05, 3.0))
            reduced, m = lattice_reduce(shape)
            assert abs(reduced.tau) >= 1.0 - 1e-12
            assert abs(reduced.re) <= 0.5 + 1e-12
            assert abs(reduced.re) <= 0.5 and reduced.im > 0.0
            assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
            for _ in range(5):
                p, q = rng.randint(-7, 7), rng.randint(-7, 7)
                if (p, q) == (0, 0):
                    continue
                p2 = m[0][0] * p + m[0][1] * q
                q2 = m[1][0] * p + m[1][1] * q
                assert slope_normalized_length(reduced, (p2, q2)) == pytest.approx(
                    slope_normalized_length(shape, (p, q)), rel=1e-12
                )

    def test_unit_circle_stops_without_inverting(self, monkeypatch):
        # translated, this tau lies within rounding of |tau| = 1 and -1/tau does
        # not raise im: the walk stops there instead of cycling to its step cap
        inversions = []

        def isfinite(value):  # lattice_reduce checks each inverted tau once
            inversions.append(value)
            return math.isfinite(value.real) and math.isfinite(value.imag)

        monkeypatch.setattr(slope_lattice, "cmath", SimpleNamespace(isfinite=isfinite))
        im = 0.9220234189900272
        reduced, m = lattice_reduce(CuspShape(2.6128658955427193, im))
        assert inversions == []
        assert m == ((1, 3), (0, 1))
        assert reduced.im.hex() == im.hex()

    @pytest.mark.parametrize("re, im, given", [
        (1e-310, 1e-310, "re=1e-310, im=1e-310"),
        (1e308, 5e-324, "re=1e+308, im=5e-324"),
    ])
    def test_overflow_names_the_given_shape(self, re, im, given):
        with pytest.raises(DomainError) as exc:
            lattice_reduce(CuspShape(re, im))
        assert f"cusp shape {given} overflows when reduced" in str(exc.value)


class TestEnumerate:
    def test_square_lattice_small_cutoff(self):
        assert enumerate_short_slopes(CuspShape(0.0, 1.0), 0.5) == []

    def test_square_lattice_four_slopes(self):
        slopes = [(p, q) for p, q, _ in enumerate_short_slopes(CuspShape(0.0, 1.0), 1.5)]
        assert sorted(slopes) == [(0, 1), (1, -1), (1, 0), (1, 1)]

    def test_square_lattice_threshold_cutoff(self):
        cutoff = 7.5832
        got = {(p, q) for p, q, _ in enumerate_short_slopes(CuspShape(0.0, 1.0), cutoff)}
        assert got == brute_force_slopes(CuspShape(0.0, 1.0), cutoff)

    def test_oracle_on_random_shapes(self):
        rng = random.Random(13)
        for _ in range(100):
            shape = CuspShape(rng.uniform(-3, 3), rng.uniform(0.08, 3.0))
            cutoff = rng.uniform(0.5, 6.0)
            got = {(p, q) for p, q, _ in enumerate_short_slopes(shape, cutoff)}
            assert got == brute_force_slopes(shape, cutoff)

    def test_primitive_and_deduplicated(self):
        slopes = [(p, q) for p, q, _ in enumerate_short_slopes(CuspShape(0.3, 0.4), 6.0)]
        assert len(slopes) == len(set(slopes))
        for p, q in slopes:
            assert math.gcd(p, q) == 1
            assert p > 0 or (p == 0 and q > 0)
            assert (-p, -q) not in slopes

    @pytest.mark.parametrize("cutoff", [0.0, -0.0])
    def test_zero_cutoff_rejected(self, cutoff):
        with pytest.raises(DomainError, match="cutoff must be positive"):
            enumerate_short_slopes(CuspShape(0.0, 1.0), cutoff)

    def test_sorted_by_length(self):
        res = enumerate_short_slopes(CuspShape(0.25, 1.7), 5.0)
        lengths = [l for _, _, l in res]
        assert lengths == sorted(lengths)


class TestScanlineMatchesReference:
    """The scanline enumerator returns the box enumerator's list exactly:
    the same slopes, the same float lengths, in the same order."""

    @staticmethod
    def _cutoff(rng):
        return C * 4.2 ** rng.random()

    def test_reduced_shapes(self):
        rng = random.Random(41)
        for _ in range(40):
            re = rng.uniform(-0.5, 0.5)
            shape = CuspShape(re, rng.uniform(math.sqrt(1.0 - re * re), 3.0))
            cutoff = self._cutoff(rng)
            assert enumerate_short_slopes(shape, cutoff) == reference_enumerate(shape, cutoff)

    def test_unreduced_shapes(self):
        rng = random.Random(42)
        for _ in range(40):
            re = rng.uniform(-0.5, 0.5)
            tau = _sl2_word(rng, complex(re, rng.uniform(math.sqrt(1.0 - re * re), 3.0)))
            shape = CuspShape(tau.real, tau.imag)
            cutoff = self._cutoff(rng)
            assert enumerate_short_slopes(shape, cutoff) == reference_enumerate(shape, cutoff)

    def test_elongated_shapes(self):
        rng = random.Random(43)
        for _ in range(25):
            shape = CuspShape(rng.uniform(-0.5, 0.5), 10.0 ** rng.uniform(1.0, 4.0))
            cutoff = self._cutoff(rng)
            assert enumerate_short_slopes(shape, cutoff) == reference_enumerate(shape, cutoff)

    def test_huge_basis_change(self):
        shape = CuspShape(1e300, 1.0)
        got = enumerate_short_slopes(shape, 2.0)
        assert got == reference_enumerate(shape, 2.0)
        assert len(got) == 4 and max(abs(p) for p, _, _ in got) > 10 ** 299

    def test_cutoff_through_slopes(self):
        # cutoffs equal to a slope's float length keep that slope in both
        shape = CuspShape(0.5, math.sqrt(3.0) / 2.0)
        for _, _, length in reference_enumerate(shape, 3 * C)[:40]:
            assert enumerate_short_slopes(shape, length) == reference_enumerate(shape, length)

    @pytest.mark.parametrize("im", [1.0, 2.0])
    def test_tied_lengths(self, im):
        # re = 0 gives (p, q) and (p, -q) one length, so ties are ordered by p, then q
        shape = CuspShape(0.0, im)
        got = enumerate_short_slopes(shape, 3 * C)
        assert len({length for _, _, length in got}) < len(got)
        assert got == reference_enumerate(shape, 3 * C)


class TestScanlineOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.5, max_value=8.0),
    )
    @example(2.6128658955427193, 0.9220234189900272, C)  # reduction stops on the unit circle
    def test_brute_force(self, re, im, cutoff):
        # slopes within rounding of the cutoff may fall on either side
        shape = CuspShape(re, im)
        got = {(p, q) for p, q, _ in enumerate_short_slopes(shape, cutoff)}
        assert brute_force_slopes(shape, cutoff * (1.0 - 1e-9)) <= got
        assert got <= brute_force_slopes(shape, cutoff * (1.0 + 1e-9))


#: Moduli on the edges of the reduced domain: re = +-0.5 and -0.0, tau = i
#: and tau = e^(i pi/3) as the floats (0.5, sqrt(3)/2).
EDGE_MODULI = [(0.5, 1.0), (-0.5, 1.0), (-0.0, 1.0), (0.0, 1.0), (-0.0, 2.5),
               (0.5, math.sqrt(3.0) / 2.0), (-0.5, math.sqrt(3.0) / 2.0), (0.5, 40.0)]


def _unmoved(shape):
    reduced, m = lattice_reduce(shape)
    return m == ((1, 0), (0, 1)) and reduced.tau == shape.tau


class TestUnmovedShapes:
    """For a shape that lattice_reduce leaves as it is, each listed length is
    slope_normalized_length's, bit for bit, and a cutoff at or next to a
    slope's length lists exactly the slopes within it."""

    @pytest.mark.parametrize("re, im", EDGE_MODULI)
    def test_edge_moduli_are_unmoved(self, re, im):
        assert _unmoved(CuspShape(re, im))

    @settings(max_examples=120, deadline=None)
    @given(
        shape=st.one_of(
            st.sampled_from(EDGE_MODULI),
            st.tuples(st.floats(-0.5, 0.5), st.floats(math.log(0.8), math.log(1e3)).map(math.exp)),
        ).map(lambda t: CuspShape(*t)).filter(_unmoved),
        cutoff=st.floats(0.5, 12.0),
        pick=st.integers(0, 2 ** 16),
    )
    def test_lengths_and_near_ties(self, shape, cutoff, pick):
        got = enumerate_short_slopes(shape, cutoff)
        for p, q, length in got:
            assert length <= cutoff
            assert length.hex() == slope_normalized_length(shape, (p, q)).hex()
        if not got:
            return
        tie = got[pick % len(got)][2]
        for near in (math.nextafter(tie, 0.0), tie, math.nextafter(tie, math.inf)):
            listed = {(p, q) for p, q, _ in enumerate_short_slopes(shape, near)}
            assert listed == brute_force_slopes(shape, near)


class TestMovedShapes:
    """For every shape, one that reduction moves included, each listed length
    is the reduced basis's float for that slope, bit for bit, and no listed
    length exceeds the cutoff, at a listed length and one ulp either side."""

    @staticmethod
    def _check(shape, cutoff):
        reduced, ((m11, m12), (m21, m22)) = lattice_reduce(shape)
        got = enumerate_short_slopes(shape, cutoff)
        for p, q, length in got:
            assert length <= cutoff
            assert p > 0 or (p == 0 and q > 0)
            moved = (m11 * p + m12 * q, m21 * p + m22 * q)
            assert length.hex() == slope_normalized_length(reduced, moved).hex()
        return got

    @settings(max_examples=150, deadline=None)
    @given(
        tau=st.tuples(st.floats(-0.5, 0.5), st.floats(0.0, math.log(1e3))).map(
            lambda t: (t[0], math.sqrt(1.0 - t[0] * t[0]) * math.exp(t[1]))),
        move=st.one_of(st.none(), st.tuples(st.just("word"), st.integers(0, 2 ** 32)),
                       st.tuples(st.just("shift"), st.integers(1, 17))),
        cutoff=st.floats(1.0, 4.2 * C),
        pick=st.integers(0, 2 ** 16),
    )
    # (41, 10) was listed at 13.967220869645937, above this cutoff, its reduced length
    @example(tau=(-3.1761672351668375, 1.288417842715131), move=None,
             cutoff=13.967220869645935, pick=0)
    @example(tau=(0.0, 1.0), move=("shift", 16), cutoff=8.0, pick=59)
    def test_lengths_within_cutoff_and_nested(self, tau, move, cutoff, pick):
        tau = complex(*tau)
        if move and move[0] == "word":
            tau = _sl2_word(random.Random(move[1]), tau)
        elif move:
            tau += 10.0 ** move[1]
        shape = CuspShape(tau.real, tau.imag)
        got = self._check(shape, cutoff)
        if not got:
            return
        tie = got[pick % len(got)][2]
        cutoffs = sorted({cutoff, math.nextafter(tie, 0.0), tie, math.nextafter(tie, math.inf)})
        listings = [self._check(shape, c) for c in cutoffs]
        # each listing is the largest one cut at its cutoff: the listing grows with the cutoff
        for c, listed in zip(cutoffs, listings):
            assert listed == [s for s in listings[-1] if s[2] <= c]
        assert got[pick % len(got)] in listings[cutoffs.index(tie)]


class TestListedLengthIsTheLength:
    """Each listed (p, q, L) has slope_normalized_length(shape, (p, q)) == L,
    bit for bit, on shapes that reduction moves: by an SL(2, Z) word, or by
    a translation far from the reduced domain, where the given basis cancels."""

    @settings(max_examples=500, deadline=None)
    @given(
        tau=st.tuples(st.floats(-0.5, 0.5), st.floats(0.0, math.log(1e3))).map(
            lambda t: (t[0], math.sqrt(1.0 - t[0] * t[0]) * math.exp(t[1]))),
        move=st.one_of(st.tuples(st.just("word"), st.integers(0, 2 ** 32)),
                       st.tuples(st.just("shift"), st.integers(1, 17))),
        cutoff=st.floats(1.0, 2.0 * C),
    )
    @example(tau=(0.0, 1.0), move=("shift", 16), cutoff=8.0)
    def test_bit_for_bit(self, tau, move, cutoff):
        tau = complex(*tau)
        if move[0] == "word":
            tau = _sl2_word(random.Random(move[1]), tau)
        else:
            tau += 3.3 * 10.0 ** move[1]
        shape = CuspShape(tau.real, tau.imag)
        for p, q, length in enumerate_short_slopes(shape, cutoff):
            assert slope_normalized_length(shape, (p, q)).hex() == length.hex(), (p, q)


class TestTieProneShapes:
    """On and next to the edges of the reduced domain many slopes share one
    float length, so the listed order rests on the tie-break by p, then q:
    the scanline list is the box enumerator's, for the shape as given and
    for a copy moved by an SL(2, Z) word."""

    @settings(max_examples=100, deadline=None)
    @given(
        tau=st.one_of(
            st.sampled_from(EDGE_MODULI),
            st.tuples(st.sampled_from([0.0, -0.0, 0.5, -0.5]), st.floats(0.5, 3.0)),
        ),
        word=st.one_of(st.none(), st.integers(0, 2 ** 32)),
        stretch=st.floats(0.0, 1.0),
    )
    @example(tau=(0.0, 1.0), word=None, stretch=1.0)
    @example(tau=(-0.5, math.sqrt(3.0) / 2.0), word=7, stretch=0.5)
    def test_matches_reference(self, tau, word, stretch):
        tau = complex(*tau)
        if word is not None:
            tau = _sl2_word(random.Random(word), tau)
        shape, cutoff = CuspShape(tau.real, tau.imag), C * 4.2 ** stretch
        assert enumerate_short_slopes(shape, cutoff) == reference_enumerate(shape, cutoff)


class TestFarTranslatedShape:
    """A shape translated far from the reduced domain would lose its
    normalized lengths to cancellation in abs(p + q*tau) in the given basis.
    tau = 3.3e16 + i reduces to tau' = i, where the slope (32999999999999993,
    -1) is (-7, -1), of exact length sqrt(50) = 7.071, below C."""

    SHAPE, SLOPE = CuspShape(3.3e16, 1.0), (32999999999999993, -1)

    def test_length_is_the_reduced_basis_length(self):
        length = slope_normalized_length(self.SHAPE, self.SLOPE)
        assert length == pytest.approx(math.sqrt(50.0), rel=1e-12)
        assert not certify([length]).certified

    def test_listed_lengths_within_cutoff(self):
        listed = enumerate_short_slopes(self.SHAPE, 8.0)
        assert len(listed) == 60
        assert all(length <= 8.0 for _, _, length in listed)


class TestCandidateCap:
    def test_cap_is_checked_before_scanning(self, monkeypatch):
        monkeypatch.setattr(slope_lattice, "MAX_CANDIDATES", 100)
        # square lattice: the scan tests 50 candidates at cutoff 5 and 183 at cutoff 10
        shape = CuspShape(0.0, 1.0)
        assert enumerate_short_slopes(shape, 5.0) == reference_enumerate(shape, 5.0)
        with pytest.raises(DomainError, match="cutoff 10.0"):
            enumerate_short_slopes(CuspShape(0.0, 1.0), 10.0)

    def test_cap_at_its_edge(self, monkeypatch):
        # at im = 4 and cutoff 6.7 the scan tests 1 + 29 + 25 + 15 = 70 candidates:
        # a cap of 70 lets it through, and a cap of 69 refuses it
        shape, cutoff = CuspShape(0.0, 4.0), 6.7
        monkeypatch.setattr(slope_lattice, "MAX_CANDIDATES", 70)
        assert enumerate_short_slopes(shape, cutoff) == reference_enumerate(shape, cutoff)
        monkeypatch.setattr(slope_lattice, "MAX_CANDIDATES", 69)
        with pytest.raises(DomainError, match="too large"):
            enumerate_short_slopes(shape, cutoff)

    def test_cap_checked_from_the_first_row(self, monkeypatch):
        # span is exactly 1, so row q = 1 is scanned, and its 3 candidates after (1, 0)
        # make 4, one past a cap of 3
        monkeypatch.setattr(slope_lattice, "MAX_CANDIDATES", 3)
        cutoff = 7.999999999992
        assert cutoff / 8.0 * (1.0 + 1e-12) == 1.0
        with pytest.raises(DomainError, match="too large"):
            enumerate_short_slopes(CuspShape(0.0, 64.0), cutoff)

    def test_cap_value(self):
        # square lattice: (1, 0) and row 1's 1 500 001 candidates make 1 500 002 at this cutoff
        with pytest.raises(DomainError, match="more than 1500000 candidate"):
            enumerate_short_slopes(CuspShape(0.0, 1.0), 749999.0)

    @pytest.mark.parametrize("shape, cutoff", [
        (CuspShape(0.5, math.sqrt(3.0) / 2.0), 1.7e308),  # cutoff/sqrt(im) overflows
        (CuspShape(0.0, 1e200), 1e105),  # cutoff^2*im and (q*im)^2 overflow
        (CuspShape(0.0, 1e100), 1e110),  # cutoff^2*im overflows, (q*im)^2 does not
    ])
    def test_cap_past_the_float_range(self, shape, cutoff):
        with pytest.raises(DomainError, match="too large"):
            enumerate_short_slopes(shape, cutoff)


class TestFloatRange:
    """A listed slope's coordinates must be floats for certify --slope to read:
    float() takes every integer below 2**1024 - 2**970 and refuses the rest."""

    def test_slope_at_the_largest_float_listed(self):
        # re = 2**1023 - 2**970 moves (2, 1) to (2*re + 1, -2), which float() reads as DBL_MAX
        re = float(2 ** 1023 - 2 ** 970)
        listed = enumerate_short_slopes(CuspShape(re, 0.5), 2.1)
        assert (2 * int(re) + 1, -2, 2.0) in listed
        assert float(2 * int(re) + 1) == sys.float_info.max

    def test_slope_just_past_the_float_range_refused(self):
        # 3*re = 2**1024 - 2**970, so (3, 1) moves to a first coordinate one past it
        re = float(2 ** 970 * 6004799503160661)
        assert 3 * int(re) == 2 ** 1024 - 2 ** 970
        assert len(enumerate_short_slopes(CuspShape(re, 0.5), 2.1)) == 6
        with pytest.raises(DomainError, match="has a slope beyond the float range at cutoff 2.6"):
            enumerate_short_slopes(CuspShape(re, 0.5), 2.6)
