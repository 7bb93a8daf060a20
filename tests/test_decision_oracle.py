"""certify and full_certificate against the two-pass decision they replaced
(``oracles.parent_certify``, ``oracles.parent_full_certificate``): the same
record, float for float in hex, or the same exception class and message,
for any mix of element types, fault positions and containers.  Where the
parent's float() raised OverflowError or TypeError, they refuse with
DomainError at the same element instead, naming float()'s message."""

import array
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dehnfill import certificates
from dehnfill.certificates import certify, full_certificate
from dehnfill.errors import DomainError
from oracles import parent_certify, parent_full_certificate


def _bits(value):
    """A value with every float written as its hex, and every type kept."""
    if isinstance(value, float):
        return type(value), value.hex()
    if isinstance(value, tuple):
        return type(value), tuple(map(_bits, value))
    return type(value), value


def _outcome(fn, make_argument):
    try:
        return _bits(fn(make_argument()))
    except Exception as exc:  # the class and message, bar a memory address, are compared
        return type(exc), re.sub(r"0x[0-9a-f]+", "0x", str(exc))


def _parent_outcome(parent, make_argument):
    """The parent's outcome, with its float() errors read as the refusal."""
    outcome = _outcome(parent, make_argument)
    if outcome[0] in (OverflowError, TypeError):
        return DomainError, f"normalized length not read as a float: {outcome[1]}"
    return outcome


#: Lengths at the edges: 1/Lhat^2 overflows, underflows to 0 or is subnormal;
#: and the bounds 1e-150 and 1e150 of the one-length route, with their
#: neighbours on both sides.
EDGES = [1e200, -1e200, 1e-200, 1e-160, 1.3e154, 1e-154, 5e-324, 1.7e308,
         7.5832, math.nextafter(7.5832, math.inf), 0.0, -0.0, -1.0,
         math.inf, -math.inf, math.nan,
         math.nextafter(1e-150, 0.0), 1e-150, math.nextafter(1e-150, math.inf),
         math.nextafter(1e150, 0.0), 1e150, math.nextafter(1e150, math.inf)]

ELEMENTS = st.one_of(
    st.floats(),
    st.sampled_from(EDGES),
    st.floats(7.0, 1e3),  # mostly certified: full_certificate fills the bounds
    st.integers(-5, 10 ** 400),  # 10**400 overflows float()
    st.floats().map(np.float64),
    st.fractions(max_denominator=10 ** 6),
    st.sampled_from([Fraction(10 ** 400, 3), Fraction(1, 10 ** 400)]),
    st.text(max_size=2),
    st.binary(max_size=2),
    st.binary(max_size=2).map(bytearray),
    st.sampled_from([None, 1j, [9.0]]),  # float() raises TypeError
)

#: Arguments that are one string, char array or byte buffer, and two that are not.
WHOLE = [lambda: "99", lambda: "", lambda: b"99", lambda: bytearray(b"99"),
         lambda: memoryview(b"99"), lambda: array.array("u", "99"),
         lambda: array.array("B", [9, 9]), lambda: memoryview(array.array("d", [9.3]))]

CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "iterator": iter,
    "generator": lambda xs: (x for x in xs),
}


class _ListSubclass(list):
    pass


@st.composite
def arguments(draw):
    """A function that builds a fresh argument, so an iterator is read once
    by each side."""
    if draw(st.integers(0, 15)) == 0:
        return draw(st.sampled_from(WHOLE))
    if draw(st.booleans()) and draw(st.booleans()):
        floats = draw(st.lists(st.one_of(st.floats(), st.sampled_from(EDGES)), max_size=4))
        return lambda: array.array("d", floats)
    elements = draw(st.lists(ELEMENTS, max_size=4))
    container = CONTAINERS[draw(st.sampled_from(sorted(CONTAINERS)))]
    return lambda: container(elements)


#: The refusal order, one witness per pair of refusals: the first named wins.
REFUSAL_ORDER = [
    pytest.param(lambda: [-1.0, "9"], "not a string", id="string_before_non_positive"),
    pytest.param(lambda: [1e200, "9"], "not a string", id="string_before_overflow"),
    pytest.param(lambda: [math.nan, 1e-200], "must be positive", id="nan_before_underflow"),
    pytest.param(lambda: [1e200, 1e-200], "not finite", id="underflow_beside_overflow"),
    pytest.param(lambda: [0.0], "must be positive", id="zero"),
    pytest.param(lambda: iter([]), "need at least one", id="empty_iterator"),
    pytest.param(lambda: ["9", 10 ** 400], "not a string", id="string_before_unreadable"),
    pytest.param(lambda: [None, "9"], "not read as a float", id="unreadable_before_string"),
    pytest.param(lambda: [-1.0, 1j], "not read as a float", id="unreadable_before_non_positive"),
    pytest.param(lambda: [1e-200, Fraction(10 ** 400, 3)], "not read as a float",
                 id="unreadable_before_underflow"),
]


@settings(max_examples=400, deadline=None)
@given(make_argument=arguments())
@example(make_argument=lambda: [12, 11.0])
@example(make_argument=lambda: [20.184778580569123])  # v ** 2 and v * v differ by an ulp
@example(make_argument=lambda: (np.float64(9.3), Fraction(93, 10), 10 ** 3))
# the one-length route: each bound and just inside it, as a list and a tuple
@example(make_argument=lambda: [1e-150])
@example(make_argument=lambda: (1e-150,))
@example(make_argument=lambda: [math.nextafter(1e-150, math.inf)])
@example(make_argument=lambda: (math.nextafter(1e-150, math.inf),))
@example(make_argument=lambda: [1e150])
@example(make_argument=lambda: (1e150,))
@example(make_argument=lambda: [math.nextafter(1e150, 0.0)])
@example(make_argument=lambda: (math.nextafter(1e150, 0.0),))
@example(make_argument=lambda: [7.5832])
@example(make_argument=lambda: (math.nextafter(7.5832, math.inf),))
# one length between a route bound and where 1/v^2 is inf or v ** 2 overflows
@example(make_argument=lambda: [1e-155])
@example(make_argument=lambda: [1e155])
# one length that is not a float, or not in a list or tuple exactly
@example(make_argument=lambda: [np.float64(9.3)])
@example(make_argument=lambda: _ListSubclass([9.3]))
@example(make_argument=lambda: [True])
def test_matches_the_two_pass_decision(make_argument):
    assert _outcome(certify, make_argument) == _parent_outcome(parent_certify, make_argument)
    assert _outcome(full_certificate, make_argument) == \
        _parent_outcome(parent_full_certificate, make_argument)


@pytest.mark.parametrize("make_argument, message", REFUSAL_ORDER)
@pytest.mark.parametrize("decide, parent", [(certify, parent_certify),
                                            (full_certificate, parent_full_certificate)])
def test_refusal_order(decide, parent, make_argument, message):
    with pytest.raises(DomainError, match=message):
        decide(make_argument())
    assert _outcome(decide, make_argument) == _parent_outcome(parent, make_argument)


def test_one_length_route_skips_the_loop(monkeypatch):
    """One float length in range, in a list or tuple, is decided without
    the loop's helper; every other argument still reaches it."""
    def refuse(lhats):
        raise AssertionError("the loop's helper was called")

    monkeypatch.setattr(certificates, "_values_and_sum", refuse)
    assert certify([9.3]) == certify((9.3,)) == parent_certify([9.3])
    assert full_certificate([12.0]) == parent_full_certificate([12.0])
    for make_argument in (lambda: [9.3, 9.3], lambda: [np.float64(9.3)],
                          lambda: [1e-200], lambda: iter([9.3])):
        with pytest.raises(AssertionError, match="helper was called"):
            certify(make_argument())
