"""Inputs that once crashed or reported ok, and strict JSON output."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dehnfill
from dehnfill import weitzenboeck
from dehnfill.certificates import certificate_to_json, combine_normalized_lengths, full_certificate
from dehnfill.cli import run
from dehnfill.errors import DomainError
from dehnfill.slope_lattice import CuspShape, enumerate_short_slopes
from dehnfill.weitzenboeck import BoundaryCurvature, exact_min_b, scan_min_b


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


class TestHugeLhat:
    """Lhat^2 overflows a float above about 1.3e154."""

    def test_certify_alone_exit_2(self):
        assert run(["certify", "--lhat", "1e200"]) == 2

    def test_certify_with_finite_cusp(self, capsys):
        assert run(["certify", "--lhat", "1e200,10"]) == 0
        doc = _strict(capsys.readouterr().out)
        assert doc["payload"]["combined_lhat"] == 10.0
        assert doc["payload"]["certified"] is True

    def test_bounds_report(self, capsys):
        assert run(["bounds", "--lhat", "1e200"]) == 0
        payload = _strict(capsys.readouterr().out)["payload"]
        assert payload["volume_drop"] == [0.0, 0.0]
        assert payload["visual_area"] == [0.0, 0.0]

    def test_library(self):
        assert combine_normalized_lengths([1e155, 12.0]) == 12.0
        cert = full_certificate([1e300, 1e300, 20.0])
        assert cert.certified and cert.combined_lhat == 20.0
        with pytest.raises(DomainError):
            combine_normalized_lengths([1e200, 1e300])


class TestNonFiniteEnumerate:
    @pytest.mark.parametrize("re, im", [
        (math.inf, 1.0),
        (-math.inf, 1.0),
        (math.nan, 1.0),
        (0.5, math.inf),
    ])
    def test_shape_rejects(self, re, im):
        with pytest.raises(DomainError):
            CuspShape(re, im)

    @pytest.mark.parametrize("shape", ["inf,1", "-inf,1", "nan,1", "0.5,inf"])
    def test_shape_exit_2(self, shape, capsys):
        assert run(["enumerate", f"--shape={shape}", "--cutoff", "8"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_cutoff_rejects(self):
        with pytest.raises(DomainError):
            enumerate_short_slopes(CuspShape(0.5, 1.7), math.inf)

    def test_cutoff_exit_2(self, capsys):
        assert run(["enumerate", "--shape", "0.5,1.7", "--cutoff", "inf"]) == 2
        assert "finite" in capsys.readouterr().err


def _enumerate_in_subprocess(shape, cutoff):
    """dehnfill enumerate in a child process, which a hang cannot outlive."""
    src = str(Path(dehnfill.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "dehnfill.cli", "enumerate", "--shape", shape,
            "--cutoff", cutoff]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=10)


class TestEnumerateTerminates:
    """Two inputs on which a bounding-box scan never finished."""

    def test_tall_shape(self):
        # reduced modulus about -0.5 + 2.5e299 i: only the q = 0 row holds slopes
        proc = _enumerate_in_subprocess("0.5,1e-300", "8")
        assert proc.returncode == 0, proc.stderr
        assert _strict(proc.stdout)["payload"]["slopes"] == [[1, -2, 2e-150]]

    def test_huge_cutoff_exit_2(self):
        proc = _enumerate_in_subprocess("0.5,1.7", "1e6")
        assert proc.returncode == 2
        assert "cutoff 1000000.0" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestScanTrials:
    """scan_min_b over fewer than one trial returned inf without complaint."""

    @pytest.mark.parametrize("trials", [0, -5])
    def test_scan_rejects(self, trials):
        with pytest.raises(DomainError, match=f"trials must be at least 1, got {trials}"):
            scan_min_b(BoundaryCurvature(0.8, 1.25, 1.0), np.random.default_rng(0), trials)

    def test_weitz_negative_trials_exit_2(self, capsys):
        assert run(["weitz", "--k1", "0.8", "--eps", "1.0", "--trials", "-5"]) == 2
        assert "trials must be at least 1" in capsys.readouterr().err


class _NoDraws:
    """An rng stand-in that fails the test if the scan draws from it."""

    def __getattr__(self, name):
        raise AssertionError(f"the scan drew from the rng ({name})")


class TestScanTrialCap:
    """weitz --trials 100000000000000000000 ran until killed."""

    def test_scan_refuses_before_drawing(self):
        with pytest.raises(DomainError, match="trials must be at most"):
            scan_min_b(BoundaryCurvature(0.8, 1.25, 1.0), _NoDraws(), 10 ** 20)

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(weitzenboeck, "MAX_TRIALS", 5)
        curv = BoundaryCurvature(0.8, 1.25, 1.0)
        assert math.isfinite(scan_min_b(curv, np.random.default_rng(0), 5))
        with pytest.raises(DomainError, match="at most 5, got 6"):
            scan_min_b(curv, _NoDraws(), 6)

    def test_weitz_huge_trials_exit_2(self, capsys, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("the scan drew random forms")

        monkeypatch.setattr(weitzenboeck, "random_modes", no_draws)
        argv = ["weitz", "--k1", "0.8", "--eps", "1", "--trials", "100000000000000000000"]
        assert run(argv) == 2
        assert "trials must be at most" in capsys.readouterr().err


class TestCurvatureOverflow:
    """Curvatures whose per-mode terms overflow gave numpy RuntimeWarnings
    and then a JSON error about an out-of-range float."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k1, eps, named", [
        ("1e-300", "0", "k1=1e-300"),
        ("1e-160", "0", "k2=1e+160"),
        ("1", "1e300", "epsilon=1e+300"),
    ])
    def test_weitz_exit_2(self, capsys, k1, eps, named):
        assert run(["weitz", "--k1", k1, "--eps", eps]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be at most 1e+40" in captured.err
        assert named in captured.err

    @pytest.mark.parametrize("k1, k2, eps", [
        (1e-41, 1e41, 0.0),
        (1.0, 1.0, 1.5e40),
    ])
    def test_curvature_rejects(self, k1, k2, eps):
        with pytest.raises(DomainError, match="must be at most"):
            BoundaryCurvature(k1, k2, eps)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cap_is_finite(self):
        cap = weitzenboeck.MAX_CURVATURE
        for k1, eps in ((1.0 / cap, cap), (cap, cap), (1.0, cap)):
            curv = BoundaryCurvature(k1, 1.0 / k1, eps)
            assert math.isfinite(exact_min_b(curv)[0])
            assert math.isfinite(scan_min_b(curv, np.random.default_rng(0), 100))
