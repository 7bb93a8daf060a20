"""Inputs that once crashed or reported ok, and strict JSON output."""

import json
import math

import pytest

from dehnfill.certificates import certificate_to_json, combine_normalized_lengths, full_certificate
from dehnfill.cli import run
from dehnfill.errors import DomainError
from dehnfill.weitzenboeck import BoundaryCurvature


def _strict(text):
    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    def test_certify_unfilled_cusp(self, capsys):
        assert run(["certify", "--lhat", "inf,10"]) == 0
        doc = _strict(capsys.readouterr().out)
        assert doc["payload"]["per_cusp_lhat"] == [None, 10.0]
        assert doc["payload"]["combined_lhat"] == 10.0

    def test_certificate_to_json_unfilled_cusp(self):
        doc = _strict(certificate_to_json(full_certificate([math.inf, 12.0])))
        assert doc["per_cusp_lhat"] == [None, 12.0]
        assert doc["certified"] is True

    def test_bounds_rejects_infinite_lhat(self):
        assert run(["bounds", "--lhat", "inf"]) == 2
        assert run(["bounds", "--lhat", "nan"]) == 2


class TestAllUnfilled:
    def test_combine_rejects(self):
        with pytest.raises(DomainError):
            combine_normalized_lengths([math.inf, math.inf])

    def test_certify_exit_2(self):
        assert run(["certify", "--lhat", "inf"]) == 2


class TestWeitzInputs:
    @pytest.mark.parametrize("k1, k2, eps", [
        (0.8, 1.25, math.nan),
        (0.8, 1.25, math.inf),
        (math.nan, 1.0, 0.5),
        (math.inf, 0.0, 0.5),
    ])
    def test_curvature_rejects_non_finite(self, k1, k2, eps):
        with pytest.raises(DomainError):
            BoundaryCurvature(k1, k2, eps)

    def test_eps_nan_exit_2(self):
        assert run(["weitz", "--k1", "0.8", "--eps", "nan"]) == 2

    def test_zero_trials_exit_2(self):
        assert run(["weitz", "--k1", "0.8", "--eps", "1.0", "--trials", "0"]) == 2
