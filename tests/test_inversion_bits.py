"""invert_f and invert_ftilde return the same float, bit for bit, as the
seeded Newton inversion first written (``oracles.parent_invert_decreasing``
from ``oracles.ParentSeed``), and refuse the same targets with the same
exception and message (bar the name of the top, now g(1/sqrt(3))), on the
targets both accept, (0, g(1/sqrt(3))].  The constants report and the figure
tables print bounds read off these floats, so a change in the last bit would
show."""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dehnfill import envelope
from dehnfill.certificates import figure_data
from dehnfill.envelope import invert_f, invert_ftilde
from dehnfill.packing import Z0
from oracles import H, ParentSeed, parent_invert_decreasing

_TOPS = {"f": envelope._F_TOP, "ftilde": envelope._FTILDE_TOP}
_INVERT = {"f": invert_f, "ftilde": invert_ftilde}
_SEEDS = {"f": envelope._F_SEED, "ftilde": envelope._FTILDE_SEED}


_FUNCS = {"f": (envelope._f, envelope._F), "ftilde": (envelope._ftilde, envelope._Ftilde)}
_PARENT_SEEDS = {name: ParentSeed(*funcs) for name, funcs in _FUNCS.items()}


def _parent(name):
    func, integrand = _FUNCS[name]
    seed = _PARENT_SEEDS[name]
    return lambda x: parent_invert_decreasing(func, integrand, x, name, _TOPS[name], seed)


_PARENT = {name: _parent(name) for name in _INVERT}


@functools.cache
def _figure_grids():
    """The x column of every figure table with 2 to 488 rows."""
    return [[row[0] for row in figure_data(1, samples)[1]] for samples in range(2, 489)]


def _outcome(invert, x):
    """z.hex(), or the class and message of what the inversion raised."""
    try:
        return invert(x).hex()
    except Exception as exc:  # the class and message are the outcome compared
        return type(exc), str(exc)


def _renamed(outcome):
    """The parent's outcome, its refusal naming the top g(1/sqrt(3)), not g(0.45)."""
    if isinstance(outcome, tuple):
        return outcome[0], outcome[1].replace("(0.45) =", "(1/sqrt(3)) =")
    return outcome


def _assert_same(name, xs):
    invert, parent = _INVERT[name], _PARENT[name]
    for x in xs:
        assert _outcome(invert, x) == _renamed(_outcome(parent, x)), (name, x.hex())


@pytest.mark.parametrize("name", sorted(_INVERT))
class TestSameBitsAsParent:
    @settings(max_examples=500, deadline=None)
    @given(t=st.floats(0.0, 1.0))
    def test_any_accepted_target(self, name, t):
        _assert_same(name, [t * _TOPS[name], min(t, _TOPS[name])])

    def test_every_figure_grid(self, name):
        for xs in _figure_grids():
            _assert_same(name, xs)

    def test_each_seed_node_and_its_neighbours(self, name):
        for node in _SEEDS[name].x_nodes:
            _assert_same(name, [math.nextafter(node, -math.inf), node,
                                math.nextafter(node, math.inf)])

    def test_refusals_and_edges(self, name):
        top = _TOPS[name]
        refused = [math.nan, -1.0, math.inf, math.nextafter(top, math.inf)]
        for x in refused:
            assert isinstance(_outcome(_INVERT[name], x), tuple), x
        _assert_same(name, refused + [-0.0, 0.0, math.ulp(0.0), top])


@pytest.mark.parametrize("name", sorted(_INVERT))
def test_seed_keeps_the_parent_cubics_down_to_z0(name):
    # the nodes stop at the first below Z0 (0.5723); the parent's 5 cubics
    # further down were never read
    seed, parent = _SEEDS[name], _PARENT_SEEDS[name]
    assert (len(seed.x_nodes), len(seed._cubics)) == (27, 26)
    assert seed.x_nodes == parent.x_nodes[:27]
    assert [cubic[1:] for cubic in seed._cubics] == parent._cubics[:26]
    assert seed.x_nodes[-2] < _TOPS[name] < seed.x_nodes[-1]


@settings(max_examples=500, deadline=None)
@given(z=st.floats(Z0, 1.0, exclude_max=True))
def test_area_is_reciprocal_h_bit_for_bit(z):
    assert envelope._area_from_z(z).hex() == (1.0 / H(z)).hex()


@pytest.mark.parametrize("start", [math.nan, -math.inf, 0.0, 0.45, 0.7, 1.0, 1.5, math.inf])
@pytest.mark.parametrize("x", [1e-300, 1e-9, 0.5])
def test_start_clamped_as_before(start, x):
    # func met at once returns the clamped start.  A start at or above 1 goes
    # to the float below 1, as before; so does NaN, which the parent raised
    # to 0.45.  That lower clamp is gone: no seed lies below Z0
    # (tests/test_proofs.py), and a start there is kept.
    func, seed = (lambda _: x), (lambda _: start)
    z = envelope._inverter(func, envelope._F, "f", _TOPS["f"], seed, envelope.F_BEND)(x)
    if start >= Z0:
        assert z.hex() == parent_invert_decreasing(func, envelope._F, x, "f", _TOPS["f"],
                                                   seed).hex()
    else:
        assert z.hex() == (start if start <= envelope._BELOW_ONE else envelope._BELOW_ONE).hex()
