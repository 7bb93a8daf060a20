"""The seeded Newton inversion at the edges of its seed table, and the
number of envelope evaluations each inversion makes on the figure grid."""

import math

import numpy as np
import pytest

from dehnfill import certificates, envelope
from dehnfill.envelope import INV_TOL, f, ftilde, invert_f, invert_ftilde
from dehnfill.errors import UncertifiableError
from dehnfill.packing import Z0

ENVELOPES = {"f": (f, invert_f), "ftilde": (ftilde, invert_ftilde)}


def _seed(name):
    return {"f": envelope._F_SEED, "ftilde": envelope._FTILDE_SEED}[name]


def _assert_meets_rule(g, x, z):
    assert Z0 <= z <= 1.0
    assert abs(g(z) - x) <= INV_TOL * max(1.0, x)


@pytest.mark.parametrize("name", sorted(ENVELOPES))
class TestSeedEdges:
    def test_top_target(self, name):
        g, invert = ENVELOPES[name]
        top = g(Z0)
        _assert_meets_rule(g, top, invert(top))
        with pytest.raises(UncertifiableError):
            invert(math.nextafter(top, math.inf))

    def test_smallest_positive_target(self, name):
        g, invert = ENVELOPES[name]
        x = math.ulp(0.0)
        _assert_meets_rule(g, x, invert(x))

    def test_each_node_and_its_neighbours(self, name):
        g, invert = ENVELOPES[name]
        seed = _seed(name)
        top = g(Z0)
        for node in seed.x_nodes:
            for x in (math.nextafter(node, -math.inf), node, math.nextafter(node, math.inf)):
                if x < 0.0:
                    continue
                if x > top:
                    with pytest.raises(UncertifiableError):
                        invert(x)
                else:
                    _assert_meets_rule(g, x, invert(x))

    def test_between_last_node_and_top(self, name):
        # the nodes run past g(Z0), so no accepted target lies above the
        # last node; the accepted targets nearest Z0 lie between the highest
        # node below g(Z0) and g(Z0)
        g, invert = ENVELOPES[name]
        seed = _seed(name)
        top = g(Z0)
        assert seed.x_nodes[-1] >= top
        below = max(x for x in seed.x_nodes if x <= top)
        for x in np.linspace(below, top, 101).tolist():
            _assert_meets_rule(g, x, invert(x))


class TestSeedOutsideBracket:
    """A start on z = 1 would divide by 1 - z in the Newton slope, so a start
    at or above 1 is first evaluated at the float below 1.  func met at once
    returns that first point."""

    @pytest.mark.parametrize("x", [1e-300, 1e-9, 0.5])
    @pytest.mark.parametrize("start", [1.0, 1.5, 0.0])
    def test_start_is_clamped(self, x, start):
        z = envelope._inverter(lambda _: x, envelope._F, "f", envelope._F_TOP,
                               lambda _: start, envelope.F_BEND)(x)
        assert z == min(start, envelope._BELOW_ONE) < 1.0


def _count_evaluations(monkeypatch):
    """{name: []}, to which each inversion figure_data makes appends the
    number of times it evaluated its envelope: certificates.invert_f and
    invert_ftilde are replaced by inverters built around a counting func."""
    counts = {"f": [], "ftilde": []}
    calls = [0]

    def counting(func):
        def counted(z):
            calls[0] += 1
            return func(z)
        return counted

    def recorded(name, invert):
        def inverted(x_hat):
            calls[0] = 0
            z = invert(x_hat)
            counts[name].append(calls[0])
            return z
        return inverted

    for name, func, integrand, top, seed, bend in (
            ("f", envelope._f, envelope._F, envelope._F_TOP, envelope._F_SEED,
             envelope.F_BEND),
            ("ftilde", envelope._ftilde, envelope._Ftilde, envelope._FTILDE_TOP,
             envelope._FTILDE_SEED, envelope.FTILDE_BEND)):
        invert = envelope._inverter(counting(func), integrand, name, top, seed, bend)
        monkeypatch.setattr(certificates, f"invert_{name}", recorded(name, invert))
    return counts


def test_at_most_three_evaluations_on_figure_grid(monkeypatch):
    counts = _count_evaluations(monkeypatch)
    sizes = (2, 8, 57, 248, 487)
    for samples in sizes:
        certificates.figure_data(2, samples)
    for name, seen in counts.items():
        assert len(seen) == sum(sizes)
        assert max(seen) <= 3, (name, max(seen), sum(seen) / len(seen))


def test_most_inversions_end_after_one_evaluation(monkeypatch):
    # the early exit returns the first Newton step unevaluated whenever
    # bend * d^2 <= tol; on these grids 88.8 % of f and 99.6 % of ftilde
    # inversions end after the seed's one evaluation (x = 0 takes none)
    counts = _count_evaluations(monkeypatch)
    for samples in range(2, 489):
        certificates.figure_data(1, samples)
    for name, least in (("f", 0.85), ("ftilde", 0.98)):
        seen = counts[name]
        assert len(seen) == sum(range(2, 489))
        assert seen.count(1) >= least * len(seen), (name, seen.count(1) / len(seen))
