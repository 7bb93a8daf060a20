"""Each bound comes from one inversion of each envelope.

``envelope_bounds`` is the only evaluation of the envelope bounds:
``full_certificate`` reads its record, and the CLI calls it once per
command.  Inversions are counted by wrapping ``invert_f`` and
``invert_ftilde`` in the ``certificates`` namespace, where they are called.
"""

import math
import random

import numpy as np
import pytest

from dehnfill import certificates
from dehnfill.certificates import (
    UNIVERSAL_C,
    Z0,
    envelope_bounds,
    figure_data,
    full_certificate,
)
from dehnfill.cli import run
from dehnfill.envelope import f
from dehnfill.errors import DomainError, UncertifiableError
from oracles import H


@pytest.fixture
def inversions(monkeypatch):
    counts = {"f": 0, "ftilde": 0}

    def counting(name, fn):
        def counted(x):
            counts[name] += 1
            return fn(x)
        return counted

    monkeypatch.setattr(certificates, "invert_f", counting("f", certificates.invert_f))
    monkeypatch.setattr(certificates, "invert_ftilde",
                        counting("ftilde", certificates.invert_ftilde))
    return counts


class TestInversionCounts:
    def test_bounds_command(self, inversions, capsys):
        assert run(["bounds", "--lhat", "8.5"]) == 0
        assert inversions == {"f": 1, "ftilde": 1}

    def test_constants_command(self, inversions, capsys):
        assert run(["constants"]) == 0
        assert inversions == {"f": 1, "ftilde": 1}

    def test_full_certificate_certified(self, inversions):
        assert full_certificate([12.0, 11.0]).certified
        assert inversions == {"f": 1, "ftilde": 1}

    @pytest.mark.parametrize("lhats", [[7.0], [10.2, 9.8], [UNIVERSAL_C]])
    def test_full_certificate_uncertified(self, inversions, lhats):
        assert not full_certificate(lhats).certified
        assert inversions == {"f": 0, "ftilde": 0}

    @pytest.mark.parametrize("which", [1, 2, 3])
    @pytest.mark.parametrize("samples", [2, 57])
    def test_figure_data_one_per_row(self, inversions, which, samples):
        figure_data(which, samples)
        assert inversions == {"f": samples, "ftilde": samples}


@pytest.mark.parametrize("samples", [2, 3, 33, 488, 4097])
def test_figure_columns(samples):
    """Every figure's x column is np.linspace's grid bit for bit; figures 1
    and 3 share their x and area columns, and figure 3 adds x."""
    grid = np.linspace(0.0, f(Z0), samples)
    fig1, fig2, fig3 = (np.array(figure_data(which, samples)[1]) for which in (1, 2, 3))
    assert np.array_equal(fig1[:, 0], grid) and np.array_equal(fig2[:, 0], grid)
    assert np.array_equal(fig3[:, :3], fig1) and np.array_equal(fig3[:, 3], grid)
    mid = samples // 2
    z_hat = certificates.invert_f(grid[mid])
    assert fig1[mid, 2] == 1.0 / H(z_hat)


def _lhats():
    rng = random.Random(20261018)
    return [UNIVERSAL_C] + [rng.uniform(UNIVERSAL_C, 40.0 * UNIVERSAL_C) for _ in range(200)]


class TestReadersMatchEnvelopeBounds:
    def test_bit_for_bit(self):
        for lhat in _lhats():
            env = envelope_bounds(lhat)
            cert = full_certificate([lhat])
            if lhat == UNIVERSAL_C:  # the envelope applies at C, certification does not
                assert not cert.certified
                continue
            assert (cert.z_hat, cert.z_tilde, cert.volume_drop, cert.visual_area,
                    cert.core_length_hi) == (env.z_hat, env.z_tilde, env.volume_drop,
                                             env.visual_area, env.core_length_hi)

    def test_written_out(self):
        for lhat in _lhats()[:20]:
            x_hat = (2.0 * math.pi) ** 2 / lhat ** 2
            env = envelope_bounds(lhat)
            assert (env.z_hat, env.z_tilde) == (certificates.invert_f(x_hat),
                                                certificates.invert_ftilde(x_hat))
            assert env.core_length_hi == env.visual_area[1] / (2.0 * math.pi)
            assert env.volume_drop[0] <= env.volume_drop[1]
            assert env.visual_area[0] <= env.visual_area[1]

    @pytest.mark.parametrize("lhat", [0.5, 7.5831, math.nextafter(UNIVERSAL_C, 0.0)])
    def test_below_threshold(self, lhat):
        with pytest.raises(UncertifiableError, match="below threshold 7.5832"):
            envelope_bounds(lhat)

    def test_nan_refused(self):
        # NaN is not a length below the threshold: it was refused as one
        with pytest.raises(DomainError, match="must be a number, got nan"):
            envelope_bounds(math.nan)
