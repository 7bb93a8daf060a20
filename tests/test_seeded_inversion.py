"""The seeded Newton inversion at the edges of its seed table, and the
number of envelope evaluations each inversion makes on the figure grid."""

import math

import numpy as np
import pytest

from dehnfill import certificates, envelope
from dehnfill.envelope import INV_TOL, Z_MIN, f, ftilde, invert_f, invert_ftilde
from dehnfill.errors import UncertifiableError

ENVELOPES = {"f": (f, invert_f), "ftilde": (ftilde, invert_ftilde)}


def _seed(name):
    return {"f": envelope._F_SEED, "ftilde": envelope._FTILDE_SEED}[name]


def _assert_meets_rule(g, x, z):
    assert Z_MIN <= z <= 1.0
    assert abs(g(z) - x) <= INV_TOL * max(1.0, x)


@pytest.mark.parametrize("name", sorted(ENVELOPES))
class TestSeedEdges:
    def test_top_target(self, name):
        g, invert = ENVELOPES[name]
        top = g(Z_MIN)
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
        top = g(Z_MIN)
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
        # the nodes run past g(Z_MIN), so no accepted target lies above the
        # last node; the accepted targets nearest the turnover lie between
        # the highest node below g(Z_MIN) and g(Z_MIN)
        g, invert = ENVELOPES[name]
        seed = _seed(name)
        top = g(Z_MIN)
        assert seed.x_nodes[-1] >= top
        below = max(x for x in seed.x_nodes if x <= top)
        for x in np.linspace(below, top, 101).tolist():
            _assert_meets_rule(g, x, invert(x))


class TestSeedOutsideBracket:
    """A start on z = 1 would divide by 1 - z in the Newton slope."""

    @pytest.mark.parametrize("x", [1e-300, 1e-9, 0.5])
    @pytest.mark.parametrize("start", [1.0, 1.5, 0.0])
    def test_start_is_clamped(self, x, start):
        z = envelope._invert_decreasing(envelope._f, envelope._F, x, "f",
                                        seed=lambda _: start)
        _assert_meets_rule(f, x, z)


def test_at_most_three_evaluations_on_figure_grid(monkeypatch):
    counts = {"f": [], "ftilde": []}
    original = envelope._invert_decreasing

    def counting(func, integrand, x_hat, name, *args, **kwargs):
        calls = [0]

        def counted(z):
            calls[0] += 1
            return func(z)

        z = original(counted, integrand, x_hat, name, *args, **kwargs)
        counts[name].append(calls[0])
        return z

    monkeypatch.setattr(envelope, "_invert_decreasing", counting)
    sizes = (2, 8, 57, 248, 487)
    for samples in sizes:
        certificates.figure_data(2, samples)
    for name, seen in counts.items():
        assert len(seen) == sum(sizes)
        assert max(seen) <= 3, (name, max(seen), sum(seen) / len(seen))
