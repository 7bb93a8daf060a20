"""Inputs that once crashed or reported ok, and strict JSON output."""

import array
import json
import math
import os
import re
import subprocess
import struct
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dehnfill
from dehnfill import certificates, weitzenboeck
from dehnfill.certificates import (
    certificate_to_json,
    certify,
    figure_data,
    full_certificate,
)
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
            certify([math.inf, math.inf])

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
        with pytest.raises(DomainError):  # k2 is derived from k1; it stays in the test ids
            BoundaryCurvature(k1, epsilon=eps)

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
        assert certify([1e155, 12.0]).combined_lhat == 12.0
        cert = full_certificate([1e300, 1e300, 20.0])
        assert cert.certified and cert.combined_lhat == 20.0
        with pytest.raises(DomainError):
            certify([1e200, 1e300])


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


def _cli_in_subprocess(*args, **kwargs):
    """dehnfill in a child process, which a hang cannot outlive."""
    src = str(Path(dehnfill.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "dehnfill.cli", *args]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=10, **kwargs)


def _enumerate_in_subprocess(shape, cutoff):
    return _cli_in_subprocess("enumerate", "--shape", shape, "--cutoff", cutoff)


class TestClosedStdout:
    """A reader that closes stdout early got a BrokenPipeError traceback."""

    @pytest.mark.parametrize("args", [
        ("certify", "--lhat", "12,11"),
        ("enumerate", "--shape", "0,1", "--cutoff", "20"),
    ])
    def test_exit_1_without_traceback(self, args):
        # the read end is closed before the child starts, so its first write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(dehnfill.__file__).resolve().parents[1])
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dehnfill.cli", *args], env={**os.environ, "PYTHONPATH": src},
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=10,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == "dehnfill: stdout was closed before the report was written\n"


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
            scan_min_b(BoundaryCurvature(0.8, epsilon=1.0), np.random.default_rng(0), trials)

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
            scan_min_b(BoundaryCurvature(0.8, epsilon=1.0), _NoDraws(), 10 ** 20)

    def test_cap_value(self):
        with pytest.raises(DomainError, match="at most 1500000, got 1500001"):
            scan_min_b(BoundaryCurvature(0.8, epsilon=1.0), _NoDraws(), 1_500_001)

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(weitzenboeck, "MAX_TRIALS", 5)
        curv = BoundaryCurvature(0.8, epsilon=1.0)
        assert math.isfinite(scan_min_b(curv, np.random.default_rng(0), 5))
        with pytest.raises(DomainError, match="at most 5, got 6"):
            scan_min_b(curv, _NoDraws(), 6)

    def test_weitz_huge_trials_exit_2(self, capsys, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("the scan drew random forms")

        monkeypatch.setattr(weitzenboeck, "random_modes", no_draws)
        monkeypatch.setattr(weitzenboeck, "_draw", no_draws)
        argv = ["weitz", "--k1", "0.8", "--eps", "1", "--trials", "100000000000000000000"]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert "trials must be at most" in err
        assert out == ""

    def test_weitz_huge_trials_exit_2_before_the_scan_draws(self, capsys, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("the scan drew random forms")

        monkeypatch.setattr(weitzenboeck, "_draw", no_draws)
        with pytest.raises(AssertionError, match="drew random forms"):  # the patch is on its path
            scan_min_b(BoundaryCurvature(0.8, epsilon=1.0), 0, 1)
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
        with pytest.raises(DomainError, match="must be at most"):  # k2 = 1/k1, in the ids
            BoundaryCurvature(k1, epsilon=eps)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cap_is_finite(self):
        cap = weitzenboeck.MAX_CURVATURE
        for k1, eps in ((1.0 / cap, cap), (cap, cap), (1.0, cap)):
            curv = BoundaryCurvature(k1, epsilon=eps)
            assert math.isfinite(exact_min_b(curv)[0])
            assert math.isfinite(scan_min_b(curv, np.random.default_rng(0), 100))


class TestTinyLhat:
    """1/Lhat^2 overflows below Lhat = 7.5e-155 and Lhat^2 underflows to 0
    below 1.6e-162: certify divided by zero, or gave combined_lhat 0 and
    margin -inf, which the CLI could not write as JSON."""

    @pytest.mark.parametrize("lhat", ["1e-200", "1e-170,10", "1e-160"])
    def test_certify_exit_2(self, capsys, lhat):
        assert run(["certify", "--lhat", lhat]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sum of 1/Lhat^2 is not finite" in captured.err

    @pytest.mark.parametrize("lhats", [[1e-200], [1e-170, 10.0], [1e-160], [1e-154, 1e-154]])
    def test_library_rejects(self, lhats):
        message = re.escape(f"not finite: a cusp is too short (normalized lengths {lhats})")
        for fn in (certify, full_certificate):
            with pytest.raises(DomainError, match=message):
                fn(lhats)

    def test_smallest_finite_sum_is_kept(self):
        cert = certify([1e-154])
        assert cert.combined_lhat == 1 / math.sqrt(1 / 1e-154 ** 2)
        assert not cert.certified


def _hex(cert):
    """Each field with its floats in hex, so that equality is bit equality."""
    def bits(v):
        if isinstance(v, tuple):
            return tuple(map(bits, v))
        return v.hex() if type(v) is float else v
    return tuple(map(bits, cert))


class TestSquaresOutOfRange:
    """A length whose square overflows counts 0; one whose square
    underflows makes the sum not finite, in either order beside the other.
    An int, numpy or Fraction length gives the record of the float it
    equals."""

    @pytest.mark.parametrize("lhats", [[1e200, 1e-200], [1e-200, 1e200]])
    def test_overflow_beside_underflow(self, lhats):
        message = re.escape(f"sum of 1/Lhat^2 is not finite: a cusp is too short "
                            f"(normalized lengths {lhats})")
        for fn in (certify, full_certificate):
            with pytest.raises(DomainError, match=message):
                fn(lhats)

    def test_overflowing_square_counts_zero(self):
        cert, alone = certify([1e200, 10.0]), certify([10.0])
        assert cert.per_cusp_lhat == (1e200, 10.0)
        assert _hex(cert)[1:] == _hex(alone)[1:]

    @pytest.mark.parametrize("lhats, floats", [
        ([12, 9], [12.0, 9.0]),
        ([np.float64(7.6), 40], [7.6, 40.0]),
        ([np.float64(7.5832)], [7.5832]),
        ([Fraction(23, 3), np.float64(1e200)], [float(Fraction(23, 3)), 1e200]),
        ([Fraction(758321, 100000), 2 ** 600], [7.58321, 2.0 ** 600]),
    ], ids=["ints", "float64_and_int", "float64_at_C", "fraction_and_huge_float64",
            "fraction_and_huge_int"])
    def test_numbers_give_the_float_record(self, lhats, floats):
        for fn in (certify, full_certificate):
            got = fn(lhats)
            assert [type(v) for v in got.per_cusp_lhat] == [float] * len(floats)
            assert _hex(got) == _hex(fn(floats))


class TestStringLhats:
    """certify("99") read the characters as lengths and reported
    per_cusp_lhat (9.0, 9.0); certify(b"99") reported (57.0, 57.0), and so
    did a memoryview of b"99" or of a bytearray.  A string element was read
    the same way: a char array, an iterator over a str and a list of digit
    strings gave (9.0, 9.0), [b"9"] gave (9.0,) and ("12", 11) (12.0, 11.0)."""

    @pytest.mark.parametrize(
        "lhats",
        ["99", "8", "", b"99", bytearray(b"99"), memoryview(b"99"),
         memoryview(bytearray(b"99")), memoryview(b"99").cast("c"),
         array.array("u", "99"), iter("99"), ["9", "9"], [b"9"], ("12", 11)],
        ids=["str", "certifiable_str", "empty_str", "bytes", "bytearray", "bytes_view",
             "bytearray_view", "char_view", "char_array", "str_iterator", "str_list",
             "bytes_list", "str_and_int"],
    )
    def test_library_rejects(self, lhats):
        for fn in (certify, full_certificate):
            with pytest.raises(DomainError, match="not a string"):
                fn(lhats)

    @pytest.mark.parametrize("lhats, expected", [
        (array.array("B", [9, 9]), (9.0, 9.0)),
        (memoryview(struct.pack("2d", 9.3, 9.4)).cast("d"), (9.3, 9.4)),
    ], ids=["byte_array", "double_view"])
    def test_numeric_buffers_still_certify(self, lhats, expected):
        assert certify(lhats).per_cusp_lhat == expected


class TestUnreadableLhats:
    """certify([10**400, 12.0]) and certify([Fraction(10**400, 3), 12.0])
    raised OverflowError from float(), and certify([None]), [1j] and
    [object()] raised TypeError, where every other refusal is DomainError."""

    @pytest.mark.parametrize("element", [10 ** 400, Fraction(10 ** 400, 3), None, 1j, object()],
                             ids=["huge_int", "huge_fraction", "none", "complex", "object"])
    def test_library_rejects(self, element):
        for fn in (certify, full_certificate):
            with pytest.raises(DomainError, match="not read as a float"):
                fn([element, 12.0])


def _unreachable(*args, **kwargs):
    raise AssertionError("figure_data started work on a refused sample count")


class TestFigureSampleCap:
    """figure --samples 1000000000000 ended in numpy's _ArrayMemoryError."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        monkeypatch.setattr(certificates, "invert_f", _unreachable)
        monkeypatch.setattr(certificates, "f", _unreachable)

    def test_refused_before_any_work(self, no_work):
        cap = certificates.MAX_SAMPLES
        with pytest.raises(DomainError, match=f"samples must be at most {cap}, got {cap + 1}"):
            figure_data(2, cap + 1)

    @pytest.mark.parametrize("samples", [5.0, 2.5, math.nan, "5", None])
    def test_non_integer_refused_before_any_work(self, no_work, samples):
        with pytest.raises(DomainError, match="sample count must be an integer"):
            figure_data(1, samples)

    @pytest.mark.parametrize("samples", [np.int64(5), np.uint8(5)])
    def test_numpy_integers_accepted(self, samples):
        rows = figure_data(1, samples)[1]
        assert rows == figure_data(1, 5)[1]
        assert all(type(v) is float for row in rows for v in row)

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(certificates, "MAX_SAMPLES", 5)
        assert np.array(figure_data(2, 5)[1]).shape == (5, 4)
        with pytest.raises(DomainError, match="at most 5, got 6"):
            figure_data(2, 6)

    def test_cli_exit_2(self, capsys, no_work, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["figure", "--which", "2", "--samples", "1000000000000", "--out", str(out)]) == 2
        assert "got 1000000000000" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_exit_2_under_memory_limit(self, tmp_path):
        # 1 GiB of address space: the 8 GB x grid of 10^9 samples cannot be made
        resource = pytest.importorskip("resource")

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        out = tmp_path / "x.csv"
        proc = _cli_in_subprocess("figure", "--which", "2", "--samples", "1000000000",
                                  "--out", str(out), preexec_fn=limit_memory)
        assert proc.returncode == 2, proc.stderr
        assert "samples must be at most" in proc.stderr
        assert "got 1000000000" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


class TestFigureId:
    """figure_data(1.0, 5) and figure_data(True, 5) returned figure 1."""

    @pytest.mark.parametrize("which", [1.0, 2.0, True, False, "1", None, 4])
    def test_refused_before_any_work(self, monkeypatch, which):
        monkeypatch.setattr(certificates, "invert_f", _unreachable)
        monkeypatch.setattr(certificates, "f", _unreachable)
        with pytest.raises(DomainError, match="figure id must be 1, 2 or 3"):
            figure_data(which, 5)

    @pytest.mark.parametrize("which", [np.int64(2), np.uint8(3)])
    def test_numpy_integers_accepted(self, which):
        assert figure_data(which, 5) == figure_data(int(which), 5)
