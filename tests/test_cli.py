import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from dehnfill import certificates, cli
from dehnfill.certificates import envelope_bounds, figure_data
from dehnfill.cli import render_figure_csv, run
from dehnfill.errors import UncertifiableError
from dehnfill.slope_lattice import CuspShape, enumerate_short_slopes
from dehnfill.weitzenboeck import BoundaryCurvature, exact_min_b, scan_min_b


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestConstants:
    def test_all_checks_pass(self, capsys):
        code, doc = run_json(capsys, ["constants"])
        assert code == 0
        assert doc["status"] == "ok"
        assert all(c["pass"] for c in doc["checks"])

    def test_c_check_present(self, capsys):
        _, doc = run_json(capsys, ["constants"])
        by_name = {c["name"]: c for c in doc["checks"]}
        c_check = by_name["C"]
        assert c_check["computed"] == pytest.approx(7.58315, abs=5e-5)
        assert c_check["expected"] == 7.5832
        assert c_check["tolerance"] == 5e-4

    def test_refused_threshold_is_a_failed_report(self, monkeypatch, capsys):
        # C below C* = 7.583147: the envelope refuses to invert at the threshold (item 13)
        monkeypatch.setattr(certificates, "UNIVERSAL_C", 7.5831)
        assert run(["constants"]) == 1
        out, err = capsys.readouterr()
        doc = json.loads(out, parse_constant=_reject_constant)
        assert (doc["command"], doc["status"], err) == ("constants", "error", "")
        assert doc["payload"]["error"].startswith("uncertifiable: normalized length too small")
        assert [c["name"] for c in doc["checks"]] == [
            "threshold_squared", "C", "visual_area_ceiling", "inverse_S", "h_coefficient"]
        assert all(c["pass"] for c in doc["checks"])


class TestCertify:
    def test_below_threshold_exit_1(self, capsys):
        code, doc = run_json(capsys, ["certify", "--lhat", "7.5"])
        assert code == 1
        assert doc["payload"]["certified"] is False

    def test_above_threshold(self, capsys):
        code, doc = run_json(capsys, ["certify", "--lhat", "7.6"])
        assert code == 0
        assert doc["payload"]["certified"] is True
        assert doc["payload"]["volume_drop"][0] <= doc["payload"]["volume_drop"][1]

    def test_near_tie_decided_exactly(self, capsys):
        # the float sum certifies with margin +3.5e-18; the exact margin is -5.34e-19
        code, doc = run_json(capsys, ["certify", "--lhat",
                                      "7.609315279112138,129.55402493453926,129.55402493453926"])
        assert code == 1
        assert doc["payload"]["certified"] is False and doc["payload"]["margin"] < 0.0

    # the shape route rounds L-hat to 7.583200000000001 before deciding (items 9a and 23)
    SHAPE_TIE = ["--shape=-0.10510241341049797,13.965538597774776", "--slope", "5,2"]
    # each typed length rounds up to the float 10.724264286187655 (items 20 and 23)
    TYPED_TIE = ["--lhat", ",".join(["10.7242642861876540951788016102266268467"] * 2)]

    def test_ties_lie_below_the_threshold_as_given(self):
        inv_c_sq = 1 / Fraction("7.5832") ** 2
        re, im = Fraction(-0.10510241341049797), Fraction(13.965538597774776)
        shape_margin = inv_c_sq - im / ((5 + 2 * re) ** 2 + (2 * im) ** 2)
        typed_margin = inv_c_sq - 2 / Fraction("10.7242642861876540951788016102266268467") ** 2
        assert -5.2e-19 < shape_margin < -5.1e-19 and -9.1e-19 < typed_margin < -9.0e-19

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the shape route decides the rounded L-hat, not (tau, p, q) (items 9a and 23)"))
    def test_shape_route_decided_exactly(self, capsys):
        code, doc = run_json(capsys, ["certify", *self.SHAPE_TIE])
        assert (code, doc["payload"]["certified"]) == (1, False)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "--lhat is decided as the binary floats, not as typed (items 20 and 23)"))
    def test_typed_lengths_decided_as_typed(self, capsys):
        _, doc = run_json(capsys, ["certify", *self.TYPED_TIE])
        assert doc["payload"]["certified"] is False

    def test_multi_cusp_list(self, capsys):
        code, doc = run_json(capsys, ["certify", "--lhat", "11,11"])
        assert code == 0
        assert doc["payload"]["combined_lhat"] == pytest.approx(11 / math.sqrt(2), rel=1e-12)

    def test_shape_slope_route(self, capsys):
        code, doc = run_json(
            capsys, ["certify", "--shape", "0,1", "--slope", "8,0"]
        )
        assert code == 0
        assert doc["payload"]["per_cusp_lhat"] == [pytest.approx(8.0)]

    def test_report_round_trip(self, capsys):
        _, doc = run_json(capsys, ["certify", "--lhat", "9"])
        assert set(doc) == {"command", "status", "payload", "checks"}
        assert doc["command"] == "certify"

    def test_missing_input_exit_2(self, capsys):
        assert run(["certify"]) == 2

    @pytest.mark.parametrize("pair", [["--shape", "0,1"], ["--slope", "1,0"]], ids=" ".join)
    def test_lhat_with_half_a_pair_exit_2(self, capsys, pair):
        assert run(["certify", "--lhat", "12", *pair]) == 2
        assert capsys.readouterr() == ("", "--lhat cannot be combined with --shape/--slope\n")

    def test_unreducible_shape_exit_2(self, capsys):
        # slope_normalized_length measures in the reduced basis, so lattice_reduce's refusal
        # reaches certify as it reaches enumerate
        assert run(["certify", "--shape", "1e-310,1e-310", "--slope", "1,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cusp shape re=1e-310, im=1e-310 overflows when reduced\n"


class TestBounds:
    def test_bounds_ok(self, capsys):
        code, doc = run_json(capsys, ["bounds", "--lhat", "10"])
        assert code == 0
        assert doc["payload"]["core_length_hi"] == pytest.approx(
            doc["payload"]["visual_area"][1] / (2 * math.pi), rel=1e-12
        )

    def test_payload(self, capsys):
        code, doc = run_json(capsys, ["bounds", "--lhat", "10"])
        env = envelope_bounds(10.0)
        assert code == 0 and doc["payload"] == {
            "lhat": 10.0, "volume_drop": list(env.volume_drop),
            "visual_area": list(env.visual_area), "core_length_hi": env.core_length_hi,
        }

    def test_uncertifiable_exit_1(self, capsys):
        code, doc = run_json(capsys, ["bounds", "--lhat", "5"])
        assert code == 1
        assert doc["status"] == "error"


class TestEnumerate:
    def test_square_lattice(self, capsys):
        code, doc = run_json(
            capsys, ["enumerate", "--shape", "0,1", "--cutoff", "1.5"]
        )
        assert code == 0
        assert doc["payload"]["count"] == 4

    def test_bad_shape_exit_2(self, capsys):
        assert run(["enumerate", "--shape", "0,-1", "--cutoff", "1"]) == 2
        assert run(["enumerate", "--shape", "nonsense", "--cutoff", "1"]) == 2

    def test_far_translated_shape_lists_lengths_within_cutoff(self, capsys):
        code, doc = run_json(capsys, ["enumerate", "--shape", "3.3e16,1", "--cutoff", "8"])
        assert code == 0 and doc["payload"]["count"] == 60
        assert all(length <= 8.0 for _, _, length in doc["payload"]["slopes"])

    def test_moved_shape_lists_the_decided_length(self, capsys):
        # reduction moves this shape; (41, 10) has reduced length 13.967220869645935
        cutoff = "13.967220869645935"
        code, doc = run_json(capsys, ["enumerate", "--shape=-3.1761672351668375,1.288417842715131",
                                      "--cutoff", cutoff])
        assert code == 0
        assert [41, 10, float(cutoff)] in doc["payload"]["slopes"]
        assert all(length <= float(cutoff) for _, _, length in doc["payload"]["slopes"])

    def test_cap_counts_the_candidates_scanned(self, capsys):
        # the scan tests 63 258 candidates; a closed-form bound of 2 002 003.5 refused it
        code, doc = run_json(capsys, ["enumerate", "--shape", "0,1e6", "--cutoff", "1000.5"])
        assert code == 0
        # brute force in integers: |p + q*1e6 i| / 1e3 <= 1000.5 is p^2 + q^2*10^12 <= 1000500^2,
        # so q is -1, 0 or 1, p is +-1 where q = 0, and |p| <= 31627 otherwise
        exact = {
            (p, q) if p > 0 or (p == 0 and q > 0) else (-p, -q)
            for q in range(-2, 3) for p in range(-40_000, 40_001)
            if math.gcd(p, q) == 1 and p * p + q * q * 10 ** 12 <= 1_000_500 ** 2
        }
        assert len(exact) == 63_254
        slopes = doc["payload"]["slopes"]
        assert len(slopes) == doc["payload"]["count"] == len(exact)
        assert {(p, q) for p, q, _ in slopes} == exact

    def test_cap_refuses_at_the_first_row(self, capsys):
        # row 1 alone holds about 2 000 000 candidates
        assert run(["enumerate", "--shape", "0,1", "--cutoff", "1e6"]) == 2
        assert capsys.readouterr().err == (
            "cutoff 1000000.0 is too large for this shape: the scan would test more than "
            "1500000 candidate slopes\n")


class TestWeitz:
    def test_certified_range_passes(self, capsys):
        code, doc = run_json(
            capsys, ["weitz", "--k1", "0.8", "--eps", "0.5", "--trials", "50"]
        )
        assert code == 0
        assert doc["payload"]["min_b"] >= -1e-9

    def test_outside_range_reports_only(self, capsys):
        code, doc = run_json(
            capsys, ["weitz", "--k1", "0.4", "--eps", "0.0", "--trials", "20"]
        )
        assert code == 0
        assert doc["payload"]["in_certified_range"] is False

    def test_default_seed_and_trials(self, capsys):
        code, doc = run_json(capsys, ["weitz", "--k1", "0.8", "--eps", "0.5"])
        assert code == 0
        payload = doc["payload"]
        assert (payload["seed"], payload["trials"]) == (0, 100)
        assert payload["min_b"] == scan_min_b(BoundaryCurvature(0.8, epsilon=0.5), 0, 100)


class TestFigure:
    def test_default_samples(self, capsys, tmp_path):
        out = tmp_path / "fig.csv"
        code, doc = run_json(capsys, ["figure", "--which", "1", "--out", str(out)])
        assert code == 0 and doc["payload"]["samples"] == 100
        assert len(out.read_text().splitlines()) == 1 + len(figure_data(1, 100)[1])

    def test_figure2_csv(self, capsys, tmp_path):
        out = tmp_path / "fig2.csv"
        code, doc = run_json(
            capsys, ["figure", "--which", "2", "--samples", "12", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x_hat,volume_drop_lower,volume_drop_upper,nz_asymptote"
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            assert vals[3] == pytest.approx(vals[0] / 4.0, rel=1e-11, abs=1e-18)

    def test_figure1_lower_endpoint(self, capsys, tmp_path):
        out = tmp_path / "fig1.csv"
        code, _ = run_json(
            capsys, ["figure", "--which", "1", "--samples", "8", "--out", str(out)]
        )
        assert code == 0
        first = out.read_text().splitlines()[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0

    def test_figure3_threshold_value(self, capsys, tmp_path):
        out = tmp_path / "fig3.csv"
        code, _ = run_json(
            capsys, ["figure", "--which", "3", "--samples", "8", "--out", str(out)]
        )
        assert code == 0
        last = out.read_text().splitlines()[-1].split(",")
        assert float(last[2]) == pytest.approx(0.980254, abs=1e-4)

    def test_missing_directory_exit_1(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        code, doc = run_json(
            capsys, ["figure", "--which", "2", "--samples", "4", "--out", str(out)]
        )
        assert code == 1
        assert doc["status"] == "error"
        assert "No such file or directory" in doc["payload"]["error"]
        assert str(out) in doc["payload"]["error"]

    def test_significant_digits(self, capsys, tmp_path):
        out = tmp_path / "fig1.csv"
        run_json(capsys, ["figure", "--which", "1", "--samples", "4", "--out", str(out)])
        cell = out.read_text().splitlines()[-1].split(",")[1]
        mantissa = cell.split("e")[0]
        assert len(mantissa.replace("-", "").replace(".", "")) >= 12


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["weitz", "--k1", "0", "--eps", "1"], "--k1 must be positive, got 0.0"),
        (["certify", "--shape", "0.5,1.732", "--slope", "1,0", "--slope", "7,1"],
         "--shape and --slope must be paired"),
        (["certify", "--lhat", "0,10"], "normalized lengths must be positive: '0,10'"),
        (["bounds", "--lhat", "-1"], "--lhat must be positive and finite, got -1.0"),
        (["bounds", "--lhat", "0"], "--lhat must be positive and finite, got 0.0"),
        (["weitz", "--k1", "0.8", "--eps", "1", "--seed", "-1"],
         "--seed must be non-negative, got -1"),
        (["certify", "--lhat", "12", "--shape", "0,1", "--slope", "1,0"],
         "--lhat cannot be combined with --shape/--slope"),
        (["weitz", "--k1", "-1e5", "--eps", "1"], "--k1 must be positive, got -100000.0"),
        (["enumerate", "--shape", "0,1", "--cutoff", "-1e5"],
         "cutoff must be positive and finite, got -100000.0"),
        (["certify", "--shape", "0.5,1.732", "--sl", "-7,3"], "unrecognized arguments: --sl=-7,3"),
        (["bounds", "--lhat=--"], "argument --lhat: '--' cannot be a value"),
        (["certify", "--lh", "12,11"], "unrecognized arguments: --lh 12,11"),
        (["enumerate", "--shape", "1e-310,1e-310", "--cutoff", "8"],
         "cusp shape re=1e-310, im=1e-310 overflows when reduced"),
        (["enumerate", "--shape", "1e308,5e-324", "--cutoff", "50"],
         "cusp shape re=1e+308, im=5e-324 overflows when reduced"),
        (["enumerate", "--shape", "1e+308,0.3", "--cutoff", "8"],
         "cusp shape re=1e+308, im=0.3 has a slope beyond the float range at cutoff 8.0"),
        (["certify", "--shape", "-1.7976931348623157e+308,1.7976931348623157e+308",
          "--slope", "-5e-324,-1"],
         "every cusp is unfilled or too long (normalized lengths [inf])"),
        (["certify"], "certify requires --lhat or --shape/--slope pairs"),
    ])
    def test_exit_2_names_the_problem(self, capsys, argv, message):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_unknown_flag(self):
        assert run(["constants", "--bogus"]) == 2

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_malformed_number(self):
        assert run(["bounds", "--lhat", "abc"]) == 2


class TestParserReuse:
    def test_append_defaults_do_not_leak(self, capsys):
        argv = ["certify", "--shape", "0.1,1.3", "--slope", "7,1", "--shape", "0,1",
                "--slope", "9,2"]
        first = (run(argv), capsys.readouterr().out)
        second = (run(argv), capsys.readouterr().out)
        assert first == second
        assert len(json.loads(first[1])["payload"]["per_cusp_lhat"]) == 2
        assert run(["certify"]) == 2

    def test_list_defaults_are_fresh(self, monkeypatch, capsys):
        read, parsed = cli._read, []
        monkeypatch.setattr(cli, "_read", lambda argv: parsed.append(read(argv)) or parsed[-1])
        argv = ["certify", "--shape", "0,1", "--slope", "9,2"]
        assert (run(argv), run(argv), run(["certify"])) == (0, 0, 2)
        lists = [args.shape for args in parsed] + [args.slope for args in parsed]
        assert lists == [[CuspShape(0.0, 1.0)]] * 2 + [[]] + [[(9.0, 2.0)]] * 2 + [[]]
        command = cli._COMMAND.choices["certify"]
        defaults = [command.get_default("shape"), command.get_default("slope")]
        assert defaults == [[], []]
        assert len({id(x) for x in lists + defaults}) == len(lists + defaults)


class TestFigureCsvBytes:
    """render_figure_csv writes the header, then format(v, ".12e") per value,
    comma-joined, one row per line, with LF line endings."""

    @staticmethod
    def _expected(header, rows):
        lines = [",".join(header)] + [",".join(format(v, ".12e") for v in row) for row in rows]
        return "".join(line + "\n" for line in lines).encode("utf-8")

    def test_fixed_table(self, tmp_path):
        header = ("x", "lo", "hi", "edge")
        rows = [
            (0.0, -0.0, 1.5, 5e-324),
            (math.pi, 2.0 / 3.0, 1e300, -7.25e-5),
            (1e-300, 123456789.123456789, -1.0, 0.1),
        ]
        out = tmp_path / "table.csv"
        render_figure_csv((header, rows), str(out))
        assert out.read_bytes() == self._expected(header, rows)

    # 9 rows, then tables around and at the 1 024-row block: one row short,
    # exactly one block, a one-row tail, and exactly two blocks
    @pytest.mark.parametrize("which, samples", [
        *(pytest.param(which, 9, id=str(which)) for which in (1, 2, 3)),
        *((which, samples) for samples in (1023, 1024, 1025, 2048) for which in (1, 2, 3)),
    ])
    def test_figure_table(self, tmp_path, which, samples):
        header, rows = figure_data(which, samples)
        assert len(rows) == samples
        out = tmp_path / "figure.csv"
        render_figure_csv((header, rows), str(out))
        assert out.read_bytes() == self._expected(header, rows)

CONSTANTS_STDOUT = """{
  "command": "constants",
  "status": "ok",
  "payload": {
    "C": 7.5832,
    "C_derived": 7.583146720051686,
    "R0": 0.6584789484624085
  },
  "checks": [
    {
      "name": "threshold_squared",
      "computed": 57.50411417783064,
      "expected": 57.5041,
      "tolerance": 0.005,
      "pass": true
    },
    {
      "name": "C",
      "computed": 7.583146720051686,
      "expected": 7.5832,
      "tolerance": 0.0005,
      "pass": true
    },
    {
      "name": "volume_drop_hi",
      "computed": 0.19781231847833464,
      "expected": 0.197816,
      "tolerance": 5e-05,
      "pass": true
    },
    {
      "name": "visual_area_ceiling",
      "computed": 0.9802541545436062,
      "expected": 0.980254,
      "tolerance": 1e-05,
      "pass": true
    },
    {
      "name": "visual_area_hi_at_threshold",
      "computed": 0.9802266067331702,
      "expected": 0.9802541545436062,
      "tolerance": 0.0001,
      "pass": true
    },
    {
      "name": "core_length_hi",
      "computed": 0.15600790981177937,
      "expected": 0.156012,
      "tolerance": 1e-05,
      "pass": true
    },
    {
      "name": "inverse_S",
      "computed": 0.9802581434685472,
      "expected": 0.980257,
      "tolerance": 5e-06,
      "pass": true
    },
    {
      "name": "h_coefficient",
      "computed": 3.3957133210517045,
      "expected": 3.3957,
      "tolerance": 0.0005,
      "pass": true
    }
  ]
}
"""


#: figure --which w --samples 9: the CSV and the stdout, where @OUT@ stands for
#: the JSON string of the --out path.
FIGURE_CSV = {
    1: """\
x,area_lower,area_upper
0.000000000000e+00,0.000000000000e+00,0.000000000000e+00
8.581650671609e-02,8.370011766576e-02,8.810263097508e-02
1.716330134322e-01,1.633590138107e-01,1.813201115856e-01
2.574495201483e-01,2.392281077898e-01,2.806818007019e-01
3.432660268644e-01,3.115174748346e-01,3.876430836703e-01
4.290825335805e-01,3.804022738670e-01,5.044012751937e-01
5.148990402965e-01,4.460275135099e-01,6.346222527395e-01
6.007155470126e-01,5.085115128377e-01,7.855954230260e-01
6.865320537287e-01,5.679482786357e-01,9.802541545436e-01
""",
    2: """\
x_hat,volume_drop_lower,volume_drop_upper,nz_asymptote
0.000000000000e+00,0.000000000000e+00,0.000000000000e+00,0.000000000000e+00
8.581650671609e-02,2.118744518235e-02,2.173483319128e-02,2.145412667902e-02
1.716330134322e-01,4.185803459841e-02,4.407386789112e-02,4.290825335805e-02
2.574495201483e-01,6.203417799587e-02,6.709336224734e-02,6.436238003707e-02
3.432660268644e-01,8.173550488434e-02,9.089147211944e-02,8.581650671609e-02
4.290825335805e-01,1.009792278945e-01,1.156000255667e-01,1.072706333951e-01
5.148990402965e-01,1.197804282817e-01,1.414075153283e-01,1.287247600741e-01
6.007155470126e-01,1.381522789506e-01,1.686130793405e-01,1.501788867532e-01
6.865320537287e-01,1.561062155442e-01,1.978157620998e-01,1.716330134322e-01
""",
    3: """\
x_hat,area_lower,area_upper,nz_asymptote
0.000000000000e+00,0.000000000000e+00,0.000000000000e+00,0.000000000000e+00
8.581650671609e-02,8.370011766576e-02,8.810263097508e-02,8.581650671609e-02
1.716330134322e-01,1.633590138107e-01,1.813201115856e-01,1.716330134322e-01
2.574495201483e-01,2.392281077898e-01,2.806818007019e-01,2.574495201483e-01
3.432660268644e-01,3.115174748346e-01,3.876430836703e-01,3.432660268644e-01
4.290825335805e-01,3.804022738670e-01,5.044012751937e-01,4.290825335805e-01
5.148990402965e-01,4.460275135099e-01,6.346222527395e-01,5.148990402965e-01
6.007155470126e-01,5.085115128377e-01,7.855954230260e-01,6.007155470126e-01
6.865320537287e-01,5.679482786357e-01,9.802541545436e-01,6.865320537287e-01
""",
}

FIGURE_STDOUT = {
    1: """{
  "command": "figure",
  "status": "ok",
  "payload": {
    "which": 1,
    "samples": 9,
    "out": @OUT@,
    "columns": [
      "x",
      "area_lower",
      "area_upper"
    ]
  },
  "checks": []
}
""",
    2: """{
  "command": "figure",
  "status": "ok",
  "payload": {
    "which": 2,
    "samples": 9,
    "out": @OUT@,
    "columns": [
      "x_hat",
      "volume_drop_lower",
      "volume_drop_upper",
      "nz_asymptote"
    ]
  },
  "checks": []
}
""",
    3: """{
  "command": "figure",
  "status": "ok",
  "payload": {
    "which": 3,
    "samples": 9,
    "out": @OUT@,
    "columns": [
      "x_hat",
      "area_lower",
      "area_upper",
      "nz_asymptote"
    ]
  },
  "checks": []
}
""",
}


class TestReportBytes:
    """The exact stdout of the reports whose payloads and checks cli builds."""

    def test_constants(self, capsys):
        assert run(["constants"]) == 0
        assert capsys.readouterr() == (CONSTANTS_STDOUT, "")

    @pytest.mark.parametrize("k1, eps", [(0.9, 0.7), (0.5, 0.0)])
    def test_weitz(self, capsys, k1, eps):
        argv = ["weitz", "--k1", str(k1), "--eps", str(eps), "--trials", "200", "--seed", "5"]
        assert run(argv) == 0
        curv = BoundaryCurvature(k1, epsilon=eps)
        b_min = scan_min_b(curv, np.random.default_rng(5), 200)
        b_exact, mode = exact_min_b(curv)
        inside = curv.in_positivity_window()
        checks = [
            {"name": name, "computed": min(b, 0.0), "expected": 0.0, "tolerance": 1e-9,
             "pass": abs(min(b, 0.0)) <= 1e-9}
            for name, b in (("min_b_nonnegative", b_min), ("min_b_exact_nonnegative", b_exact))
        ] if inside else []
        doc = {
            "command": "weitz",
            "status": "ok" if all(c["pass"] for c in checks) else "error",
            "payload": {
                "k1": k1, "k2": 1.0 / k1, "eps": eps, "trials": 200, "seed": 5,
                "min_b": b_min, "min_b_exact": b_exact, "min_mode": list(mode),
                "in_certified_range": inside,
            },
            "checks": checks,
        }
        assert capsys.readouterr() == (json.dumps(doc, indent=2, allow_nan=False) + "\n", "")

    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_figure(self, capsys, tmp_path, which):
        out = tmp_path / "fig.csv"
        assert run(["figure", "--which", str(which), "--samples", "9", "--out", str(out)]) == 0
        stdout = FIGURE_STDOUT[which].replace("@OUT@", json.dumps(str(out)))
        assert capsys.readouterr() == (stdout, "")
        with open(out, encoding="utf-8", newline="") as fh:
            assert fh.read() == FIGURE_CSV[which]


class TestSlopeKind:
    """--slope takes generalized coefficients: any finite real (p, q) but
    (0, 0); the report names each one primitive or generalized."""

    @pytest.mark.parametrize("slope, kind", [
        ("1,0", "primitive"),
        ("0,1", "primitive"),
        ("-7,3", "primitive"),
        ("2,4", "generalized"),
        ("2.5,4", "generalized"),
        ("8,0", "generalized"),
    ])
    def test_kind(self, capsys, slope, kind):
        p, q = map(float, slope.split(","))
        _, doc = run_json(capsys, ["certify", "--shape", "0.5,1.732", f"--slope={slope}"])
        assert doc["payload"]["slopes"] == [{"p": p, "q": q, "kind": kind}]

    def test_one_kind_per_cusp(self, capsys):
        argv = ["certify", "--shape", "0.5,1.732", "--slope", "7,1",
                "--shape", "0,1", "--slope", "9,2.5"]
        _, doc = run_json(capsys, argv)
        assert [s["kind"] for s in doc["payload"]["slopes"]] == ["primitive", "generalized"]
        assert len(doc["payload"]["per_cusp_lhat"]) == 2

    def test_lhat_route_has_no_slopes(self, capsys):
        _, doc = run_json(capsys, ["certify", "--lhat", "12,11"])
        assert "slopes" not in doc["payload"]

    @pytest.mark.parametrize("slopes, message", [
        (["0,0"], "slope (0, 0) has no normalized length"),
        (["inf,1"], "slope must be finite, got 'inf,1'"),
        (["1,nan"], "slope must be finite, got '1,nan'"),
        (["0,0", "9,1"], "slope (0, 0) has no normalized length"),
        (["inf,1", "9,1"], "slope must be finite, got 'inf,1'"),
        (["1,-inf", "9,1"], "slope must be finite, got '1,-inf'"),
        (["nan,nan", "9,1"], "slope must be finite, got 'nan,nan'"),
    ])
    def test_zero_or_non_finite_exit_2(self, capsys, slopes, message):
        argv = ["certify"]
        for slope in slopes:
            argv += ["--shape", "0.5,1.732", f"--slope={slope}"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestSignedValues:
    """A value that begins with '-' parses after a space exactly as after '='."""

    @pytest.mark.parametrize("spaced, joined", [
        (["certify", "--shape", "0.5,1.732", "--slope", "-7,3"],
         ["certify", "--shape", "0.5,1.732", "--slope=-7,3"]),
        (["certify", "--shape", "0,1", "--slope", "9,2", "--shape", "-0.5,1.7", "--slope", "-8,1"],
         ["certify", "--shape", "0,1", "--slope", "9,2", "--shape=-0.5,1.7", "--slope=-8,1"]),
        (["enumerate", "--shape", "-0.5,1.7", "--cutoff", "3"],
         ["enumerate", "--shape=-0.5,1.7", "--cutoff", "3"]),
        (["certify", "--lhat", "-1,2"], ["certify", "--lhat=-1,2"]),
        (["certify", "--shape", "0.5,1.732", "--slope", "-inf,1"],
         ["certify", "--shape", "0.5,1.732", "--slope=-inf,1"]),
        (["weitz", "--k1", "-1e5", "--eps", "1"], ["weitz", "--k1=-1e5", "--eps", "1"]),
        (["enumerate", "--shape", "0,1", "--cutoff", "-1e5"],
         ["enumerate", "--shape", "0,1", "--cutoff=-1e5"]),
        (["certify", "--shape", "0.5,1.732", "--sl", "-7,3"],
         ["certify", "--shape", "0.5,1.732", "--sl=-7,3"]),
    ])
    def test_space_form_matches_equals_form(self, capsys, spaced, joined):
        code = run(spaced)
        spaced_out = capsys.readouterr()
        assert (code, spaced_out) == (run(joined), capsys.readouterr())
        assert "expected one argument" not in spaced_out.err

    def test_negative_lhat_names_the_problem(self, capsys):
        assert run(["certify", "--lhat", "-1,2"]) == 2
        assert "normalized lengths must be positive: '-1,2'" in capsys.readouterr().err

    def test_missing_value_still_exit_2(self, capsys):
        assert run(["certify", "--lhat", "--shape", "0,1"]) == 2
        assert "argument --lhat: expected one argument" in capsys.readouterr().err


def _parsers():
    yield cli._PARSER
    for action in cli._PARSER._actions:
        if isinstance(action, argparse._SubParsersAction):
            yield from action.choices.values()


class TestGrammar:
    """_attach_signed_values reads a single-'-' token right after a long
    option as that option's value, which holds only while every option but
    -h/--help is long, takes exactly one value and is spelled in full."""

    @pytest.mark.parametrize("parser", list(_parsers()), ids=lambda p: p.prog)
    def test_every_option_takes_one_value(self, parser):
        assert parser.allow_abbrev is False
        for action in parser._actions:
            for opt in action.option_strings:
                if opt in ("-h", "--help"):
                    assert isinstance(action, argparse._HelpAction)
                else:
                    assert opt.startswith("--") and action.nargs is None, opt


# Values meant to break parsing: non-finite and signed zeros, subnormals,
# overflow, '-'-led tokens, non-ASCII digits and text, and integers far past
# any float or past int()'s digit limit.
_ODD = st.sampled_from([
    "nan", "-nan", "inf", "-inf", "+inf", "-0", "-0.0", "5e-324", "-5e-324",
    "2.2250738585072014e-308", "1e308", "-1e308", "1e309", "", " ", "-", "--",
    "-x", "-7,3", "−1", "٣", "１２", "∞", "1_0", "0x10",
    "9" * 400, "-" + "9" * 400, "1" + "0" * 5000,
])
# no '--out' token outside the temporary directory, whatever the parse
_TEXT = st.text(max_size=8).filter(lambda t: "--o" not in t)
_ATOM = st.one_of(
    st.floats().map(repr), st.integers(-10**400, 10**400).map(str), _ODD, _TEXT
)
_ATOM_PAIR = st.one_of(st.tuples(_ATOM, _ATOM).map(",".join), _ATOM)
# odd counts and cutoffs are refused before any work
_ODD_BOUNDED = st.one_of(_ODD, _TEXT)


def _real(lo, hi):
    return st.floats(lo, hi).map(repr)


def _pair(first, second):
    return st.tuples(first, second).map(",".join)


# finite pairs at any scale, where reduction and lengths can leave the float range
_FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_ODD_PAIR = st.one_of(_ATOM_PAIR, _pair(_FINITE, _FINITE))


# option: (well-formed value, odd value); well-formed counts and cutoffs
# stay far below the work caps
_OPTIONS = {
    "--lhat": (st.lists(_real(0.5, 100.0), min_size=1, max_size=3).map(",".join),
               st.lists(_ATOM, min_size=1, max_size=3).map(",".join)),
    "--shape": (_pair(_real(-3.0, 3.0), _real(0.05, 3.0)), _ODD_PAIR),
    "--slope": (_pair(*[st.integers(-20, 20).map(str)] * 2), _ODD_PAIR),
    "--cutoff": (_real(-50.0, 50.0), _ODD_BOUNDED),
    "--k1": (_real(0.01, 3.0), _ATOM),
    "--eps": (_real(0.0, 2.0), _ATOM),
    "--seed": (st.integers(0, 2**64).map(str), _ATOM),
    "--trials": (st.integers(-2, 1000).map(str), _ODD_BOUNDED),
    "--which": (st.sampled_from(["1", "2", "3", " 1"]),
                st.one_of(st.sampled_from(["0", "4", "1.0"]), _ATOM)),
    "--samples": (st.integers(-2, 500).map(str), _ODD_BOUNDED),
}
_COMMAND_OPTIONS = {
    "constants": [],
    "bounds": ["--lhat"],
    "enumerate": ["--shape", "--cutoff"],
    "weitz": ["--k1", "--eps", "--seed", "--trials"],
    "figure": ["--which", "--samples", "--out"],
}
_STRAYS = ["--bogus", "--lh", "--sl", "--k", "--cut", "--help=x", "-x", "-7,3", "9"]
# values at the edge of a well-formed argv: empty, '-'- or '--'-led, -h, or
# another option's name ('--out' left out, so no file lands outside out_dir)
_EDGE = st.sampled_from(["", "-h", "-", "-1", "--", "--1", "--k1", "--eps", "--shape",
                         "--slope", "--lhat", "--which", "--help"])
_FORM = st.sampled_from(["space", "equals"])


@st.composite
def _argv(draw, out_dir):
    """A subcommand and its options in any order, well formed, then up to
    three faults: an odd or edge value, a dropped, repeated or bare option,
    or a stray token."""
    command = draw(st.sampled_from([*_COMMAND_OPTIONS, "certify", "certify", "frobnicate", ""]))
    if command == "certify":
        names = draw(st.sampled_from([["--lhat"], ["--shape", "--slope"] * draw(st.integers(1, 3))]))
    else:
        names = list(_COMMAND_OPTIONS.get(command, []))

    def well_formed(opt):
        if opt == "--out":
            name = draw(st.sampled_from(["fig.csv", "missing/fig.csv", "", "é∂.csv"]))
            return os.path.join(out_dir, name)
        return draw(_OPTIONS[opt][0]) if opt in _OPTIONS else draw(_ATOM)

    entries = [[opt, well_formed(opt), draw(_FORM)] for opt in names]
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["odd", "edge", "drop", "repeat", "bare", "stray"]))
        if fault == "stray" or not entries:
            entries.append([draw(st.sampled_from(_STRAYS)), draw(_ATOM), "space"])
            continue
        i = draw(st.integers(0, len(entries) - 1))
        opt = entries[i][0]
        if fault == "drop":
            del entries[i]
        elif fault == "repeat":
            entries.append([opt, well_formed(opt), draw(_FORM)])
        elif fault == "edge":
            entries[i][1] = "" if opt == "--out" else draw(_EDGE)
        elif opt == "--out":
            pass  # an --out value always names a file in out_dir
        elif fault == "odd":
            entries[i][1] = draw(_OPTIONS[opt][1]) if opt in _OPTIONS else draw(_ATOM)
        else:
            entries[i][2] = "bare"
    argv = [command] if command else []
    for opt, value, form in draw(st.permutations(entries)):
        argv += {"space": [opt, value], "equals": [f"{opt}={value}"], "bare": [opt]}[form]
    return argv


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


class _GivenArgv:
    """Stands in for hypothesis' data object in an explicit example: its
    draw returns a fixed argv."""

    def __init__(self, *argv):
        self.argv = list(argv)

    def draw(self, strategy, label=None):
        return self.argv

    def __repr__(self):
        return f"_GivenArgv{tuple(self.argv)!r}"


class TestArgvFuzz:
    """Every argv has exactly one outcome: exit 0 or 1 with a strict JSON
    report on stdout, exit 2 with nothing on stdout and a message on stderr,
    or, for -h/--help, exit 0 with usage text; never an escaped exception or
    a warning."""

    @settings(max_examples=1000, deadline=None)
    @given(data=st.data())
    @example(data=_GivenArgv("enumerate", "--shape", "1e-310,1e-310", "--cutoff", "8"))
    @example(data=_GivenArgv("enumerate", "--shape", "1e308,5e-324", "--cutoff", "50"))
    @example(data=_GivenArgv("enumerate", "--shape", "1e+308,0.3", "--cutoff", "8"))
    @example(data=_GivenArgv("certify", "--shape",
                             "-1.7976931348623157e+308,1.7976931348623157e+308",
                             "--slope", "-5e-324,-1"))
    def test_one_outcome_per_argv(self, data):
        with tempfile.TemporaryDirectory() as out_dir:
            argv = data.draw(_argv(out_dir), label="argv")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run(argv)
        event(f"{argv[0] if argv else '(none)'} exit {code}")
        assert not caught, [str(w.message) for w in caught]
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().strip()
        elif out.getvalue().startswith("usage: dehnfill"):
            assert code == 0 and {"-h", "--help"} & set(argv)
        else:
            assert code in (0, 1)
            assert err.getvalue() == ""
            doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
            assert set(doc) == {"command", "status", "payload", "checks"}
            assert doc["command"] == argv[0]


def _parent_run(argv):
    """The reference dispatch: the top parser reads the whole argv, then the
    command's func runs, as run did before it called a command's parser
    directly."""
    try:
        args = cli._PARSER.parse_args(cli._attach_signed_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, out = args.func(args)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(out)
    return code


def _outcome(dispatch, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


_TOP_USAGE = "usage: dehnfill [-h] {constants,certify,bounds,enumerate,weitz,figure} ...\n"
_TOP_HELP = _TOP_USAGE + """
Certified bounds for generalized hyperbolic Dehn filling.

positional arguments:
  {constants,certify,bounds,enumerate,weitz,figure}
    constants           recompute and check the certified constants
    certify             certify surgery coefficients
    bounds              geometric bounds for one normalized length
    enumerate           short-slope enumeration
    weitz               boundary-form positivity scan
    figure              export figure data as CSV

options:
  -h, --help            show this help message and exit
"""
_CHOICES = "(choose from 'constants', 'certify', 'bounds', 'enumerate', 'weitz', 'figure')"

#: argv: (exit code, stdout, stderr), with the help laid out for 80 columns.
TOP_PARSER_ANSWERS = {
    (): (2, "", _TOP_USAGE + "dehnfill: error: the following arguments are required: command\n"),
    ("-h",): (0, _TOP_HELP, ""),
    ("--help",): (0, _TOP_HELP, ""),
    ("nosuch",): (2, "", _TOP_USAGE + "dehnfill: error: argument command: invalid choice: "
                  f"'nosuch' {_CHOICES}\n"),
    ("--",): (2, "", _TOP_USAGE + "dehnfill: error: the following arguments are required: "
              "command\n"),
    ("--", "--help"): (2, "", _TOP_USAGE + "dehnfill: error: argument command: invalid "
                       f"choice: '--help' {_CHOICES}\n"),
    ("--", "nosuch"): (2, "", _TOP_USAGE + "dehnfill: error: argument command: invalid "
                       f"choice: 'nosuch' {_CHOICES}\n"),
    ("--", "-h"): (2, "", _TOP_USAGE + "dehnfill: error: argument command: invalid "
                   f"choice: '-h' {_CHOICES}\n"),
    ("constants", "extra"): (2, "", _TOP_USAGE + "dehnfill: error: unrecognized arguments: extra\n"),
    ("weitz", "--k1", "1", "--eps", "0", "--bogus", "1"):
        (2, "", _TOP_USAGE + "dehnfill: error: unrecognized arguments: --bogus 1\n"),
    ("weitz", "-h"): (0, """\
usage: dehnfill weitz [-h] --k1 K1 --eps EPS [--seed SEED] [--trials TRIALS]

options:
  -h, --help       show this help message and exit
  --k1 K1
  --eps EPS
  --seed SEED
  --trials TRIALS
""", ""),
    ("figure",): (2, "", """\
usage: dehnfill figure [-h] --which {1,2,3} [--samples SAMPLES] --out OUT
dehnfill figure: error: the following arguments are required: --which, --out
"""),
}


class TestTopParserAnswers:
    """The argv that the top parser still answers itself: no command, help,
    an unknown name, a leading '--' before no command name, and tokens a
    command leaves unread; and a command's own help and usage error."""

    @pytest.mark.parametrize("argv", list(TOP_PARSER_ANSWERS), ids=" ".join)
    def test_exact_answer(self, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert _outcome(run, list(argv)) == TOP_PARSER_ANSWERS[argv]


#: argv: (exit code, stdout, stderr), with the help laid out for 80 columns: a
#: command's help, a '-'-led token after an option that takes no value (one with
#: '=', --help, '--') or after one that takes it, and cli's own usage errors.
EXACT_ANSWERS = {
    ("certify", "-h"): (0, """\
usage: dehnfill certify [-h] [--lhat LHAT] [--shape SHAPE] [--slope SLOPE]

options:
  -h, --help     show this help message and exit
  --lhat LHAT    comma-separated normalized lengths
  --shape SHAPE
  --slope SLOPE
""", ""),
    ("bounds", "--lhat=7", "-3"):
        (2, "", _TOP_USAGE + "dehnfill: error: unrecognized arguments: -3\n"),
    ("weitz", "--k1", "-h", "--eps", "0.7"): (2, "", """\
usage: dehnfill weitz [-h] --k1 K1 --eps EPS [--seed SEED] [--trials TRIALS]
dehnfill weitz: error: argument --k1: expected one argument
"""),
    ("bounds", "--help", "-x"): (0, """\
usage: dehnfill bounds [-h] --lhat LHAT

options:
  -h, --help   show this help message and exit
  --lhat LHAT
""", ""),
    ("bounds", "--lhat", "7", "--", "-1"):
        (2, "", _TOP_USAGE + "dehnfill: error: unrecognized arguments: -- -1\n"),
    ("certify",): (2, "", "certify requires --lhat or --shape/--slope pairs\n"),
    ("certify", "--shape", "0,1", "--slope", "1,0", "--slope", "2,1"):
        (2, "", "--shape and --slope must be paired\n"),
}


class TestExactAnswers:
    @pytest.mark.parametrize("argv", list(EXACT_ANSWERS), ids=" ".join)
    def test_exact_answer(self, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert _outcome(run, list(argv)) == EXACT_ANSWERS[argv]


class TestLeadingDoubleDash:
    """A leading '--' ends the options, so the command name after it is an
    operand: `dehnfill -- NAME ...` does what `dehnfill NAME ...` does."""

    ARGV = [
        ["constants"],
        ["constants", "extra"],
        ["certify", "--lhat", "12,11"],
        ["certify", "--lhat", "-3"],
        ["bounds", "--lhat", "7"],
        ["enumerate", "--shape", "0.5,0.8660254037844386", "--cutoff", "8"],
        ["weitz", "--k1", "0.9", "--eps", "0.7", "--trials", "5"],
        ["weitz", "-h"],
        ["figure"],
        ["figure", "--which", "2", "--samples", "3", "--out", "{out}"],
    ]

    def test_every_command_is_covered(self):
        assert {argv[0] for argv in self.ARGV} == set(cli._TABLE)

    @pytest.mark.parametrize("argv", ARGV, ids=" ".join)
    def test_same_outcome_as_without(self, tmp_path, argv):
        argv = [tok.format(out=tmp_path / "fig.csv") for tok in argv]
        plain = _outcome(run, argv)
        written = (tmp_path / "fig.csv").read_bytes() if "--out" in argv else None
        assert _outcome(run, ["--", *argv]) == plain
        if written is not None:
            assert (tmp_path / "fig.csv").read_bytes() == written


def _report_stdout(command, status, payload, checks=()):
    doc = {"command": command, "status": status, "payload": payload, "checks": list(checks)}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


class TestLibraryReportBytes:
    """The exact stdout of enumerate, bounds and a failed figure, as json
    writes a report rebuilt from the library."""

    HEXAGONAL = (0.5, 0.8660254037844386)

    @pytest.mark.parametrize("cutoff", [7.5832, 0.5])
    def test_enumerate(self, capsys, cutoff):
        argv = ["enumerate", "--shape", "%r,%r" % self.HEXAGONAL, "--cutoff", repr(cutoff)]
        assert run(argv) == 0
        slopes = enumerate_short_slopes(CuspShape(*self.HEXAGONAL), cutoff)
        payload = {"shape": list(self.HEXAGONAL), "cutoff": cutoff, "count": len(slopes),
                   "slopes": slopes}
        stdout = capsys.readouterr()
        assert stdout == (_report_stdout("enumerate", "ok", payload), "")
        if slopes:
            assert all(len(slope) == 3 for slope in slopes)
            assert '"slopes": [\n      [\n        ' in stdout.out
        else:
            assert '"count": 0,\n    "slopes": []\n' in stdout.out

    def test_bounds_below_threshold(self, capsys):
        assert run(["bounds", "--lhat", "7"]) == 1
        with pytest.raises(UncertifiableError) as info:
            envelope_bounds(7.0)
        payload = {"lhat": 7.0, "error": str(info.value)}
        assert capsys.readouterr() == (_report_stdout("bounds", "error", payload), "")

    def test_figure_unwritable(self, capsys, tmp_path):
        out = str(tmp_path / "missing" / "é" / "x.csv")
        assert run(["figure", "--which", "1", "--samples", "3", "--out", out]) == 1
        with pytest.raises(OSError) as info:
            open(out, "w")
        stdout = capsys.readouterr()
        assert stdout == (_report_stdout("figure", "error", {"error": str(info.value)}), "")
        assert "\\u00e9" in stdout.out


class TestDispatchMatchesTopParser:
    """run gives every argv the exit code, stdout and stderr of the reference
    dispatch, which parses with the top parser alone."""

    @settings(max_examples=1000, deadline=None)
    @given(data=st.data())
    @example(data=_GivenArgv("weitz", "--k1=", "--eps", "0.7"))
    @example(data=_GivenArgv("weitz", "--k1", "0.9", "--eps", "0.7", "--k1", "0.8"))
    @example(data=_GivenArgv("weitz", "--k1", "0.9", "--eps", "--seed", "1"))
    @example(data=_GivenArgv("weitz", "--k1", "-h", "--eps", "0.7"))
    @example(data=_GivenArgv("weitz", "--k1", "--", "0.9", "--eps", "0.7"))
    @example(data=_GivenArgv("bounds", "--lhat", "7", "--lhat=12"))
    @example(data=_GivenArgv("certify", "--shape", "0,1", "--slope", "9,2",
                             "--shape=0.5,1", "--slope", "-7,1"))
    @example(data=_GivenArgv("certify", "--lhat=--shape"))
    def test_same_outcome(self, data):
        with tempfile.TemporaryDirectory() as out_dir:
            argv = data.draw(_argv(out_dir), label="argv")
            assert _outcome(run, argv) == _outcome(_parent_run, argv)


class TestReadWithoutArgparse:
    """The argv the benchmark's CLI workloads send, and well-formed argv with a
    '-'-led value, are read as typed, without argparse and without
    _attach_signed_values, into the namespace argparse gives them."""

    WORKLOAD_ARGV = [
        ["weitz", "--k1", "0.9", "--eps", "0.7", "--trials", "64", "--seed", "27979266"],
        ["weitz", "--k1", repr(math.exp(1.638671875)), "--eps", "1.96875", "--trials", "64",
         "--seed", "0"],
        ["figure", "--which", "2", "--samples", "100", "--out", "{out}"],
        ["figure", "--which", "3", "--samples", "2", "--out", "{out}"],
    ]

    @staticmethod
    def _refuse_argparse(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("argparse, or its argv rewrite, saw a well-formed argv")

        monkeypatch.setattr(cli._PARSER, "parse_args", refuse)
        monkeypatch.setattr(cli, "_attach_signed_values", refuse)

    @pytest.mark.parametrize("argv", WORKLOAD_ARGV, ids=lambda argv: argv[0])
    def test_parser_not_called(self, monkeypatch, capsys, tmp_path, argv):
        argv = [tok.format(out=tmp_path / "fig.csv") for tok in argv]
        expected = cli._PARSER.parse_args(argv)
        self._refuse_argparse(monkeypatch)
        assert cli._parse(argv) == expected
        assert run(argv) == 0

    @pytest.mark.parametrize("argv", WORKLOAD_ARGV + [
        ["certify", "--shape", "0,1", "--slope", "-7,3"],
        ["weitz", "--k1", "-1e5", "--eps", "0"],
    ], ids=" ".join)
    def test_argv_not_rewritten(self, monkeypatch, tmp_path, argv):
        argv = [tok.format(out=tmp_path / "fig.csv") for tok in argv]
        expected = _outcome(_parent_run, argv)
        self._refuse_argparse(monkeypatch)
        assert _outcome(run, argv) == expected


class TestReaderFollowsTheTable:
    """_read takes each option from the table _build_parser gives argparse,
    and fills the namespace as argparse does: a dashed option's field has
    '_' for '-', and an append option gets a fresh list."""

    OPTIONS = {
        "--shape-radius": {"type": float, "required": True},
        "--inner-list": {"type": int, "action": "append", "default": [7]},
        "--pick": {"choices": ("a", "b"), "default": "a"},
    }

    @pytest.mark.parametrize("argv", [
        ["probe", "--shape-radius", "0.5"],
        ["probe", "--inner-list=3", "--shape-radius", "-0.25", "--pick", "b"],
    ], ids=" ".join)
    def test_same_namespace_as_argparse(self, monkeypatch, argv):
        monkeypatch.setitem(cli._TABLE, "probe", (cli.cmd_constants, "probe", self.OPTIONS))
        parser, _ = cli._build_parser()
        argv = cli._attach_signed_values(argv)
        args = cli._read(argv)
        assert args == parser.parse_args(argv)
        assert args.inner_list is not self.OPTIONS["--inner-list"]["default"]

    @pytest.mark.parametrize("argv", [
        ["probe"],
        ["probe", "--pick", "c", "--shape-radius", "1"],
        ["probe", "--shape-radius", "1", "--inner-list", "x"],
    ], ids=" ".join)
    def test_refused_for_argparse(self, monkeypatch, argv):
        monkeypatch.setitem(cli._TABLE, "probe", (cli.cmd_constants, "probe", self.OPTIONS))
        assert cli._read(argv) is None


class TestOutValueEdges:
    """--out takes any text, so the argv generators keep its edge values out;
    here they run in a fresh working directory each, where run and the
    reference dispatch must give the same outcome and write the same files."""

    @pytest.mark.parametrize("tail", [
        ["--which", "1", "--out", "-h"],
        ["--which", "1", "--out", "--x"],
        ["--which", "1", "--out=--x"],
        ["--which", "1", "--out", "--which", "2"],
        ["--which", "1", "--out", ""],
        ["--which", "1", "--out="],
        ["--which", "1", "--out"],
        ["--which", "4", "--out", "fig.csv"],
        ["--which=0", "--out", "fig.csv"],
        ["--which", "1.0", "--out", "fig.csv"],
        ["--which", " 1", "--out", "fig.csv"],
        ["--which", "1", "--out", "fig.csv", "--which", "3"],
    ], ids=repr)
    def test_same_outcome_and_files(self, monkeypatch, tmp_path, tail):
        argv = ["figure", "--samples", "2", *tail]
        seen = []
        for dispatch in (run, _parent_run):
            cwd = tmp_path / dispatch.__name__
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            seen.append((_outcome(dispatch, argv), {f.name: f.read_bytes() for f in cwd.iterdir()}))
        assert seen[0] == seen[1]


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**64, 2**200) | st.integers(-2**200, -2**64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.text(st.characters(exclude_categories=())),
)
_JSON_KEYS = st.one_of(  # every key type json writes: str, int, finite float, bool, None
    st.text(st.characters(exclude_categories=()), max_size=4),
    st.integers(),
    st.integers(2**64, 2**200) | st.integers(-2**200, -2**64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
)


def _json_values(leaves):
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_JSON_KEYS, inner, max_size=4),
    ), max_leaves=12)


_NOT_JSON = st.sampled_from([
    math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf"),
    object(), {1, 2}, b"bytes", 1j, np.int64(3), np.bool_(True),
])


def _dumps_or_error(dumps, value):
    try:
        return dumps(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc) if isinstance(exc, ValueError) else None


class TestReportEmitter:
    """certificates._json writes the bytes of json.dumps(v, indent=2, allow_nan=False),
    and raises what it raises."""

    @staticmethod
    def _dumps(value):
        return json.dumps(value, indent=2, allow_nan=False)

    @settings(max_examples=500, deadline=None)
    @given(_json_values(_JSON_SCALARS))
    def test_same_bytes(self, value):
        assert certificates._json(value) == self._dumps(value)

    @settings(max_examples=300, deadline=None)
    @given(value=_json_values(_JSON_SCALARS), bad=_NOT_JSON, where=st.integers(0, 2))
    def test_same_error(self, value, bad, where):
        nested = [[value, bad], {"k": bad, "v": value}, (value, {"deep": [bad]})][where]
        expected = _dumps_or_error(self._dumps, nested)
        assert isinstance(expected, tuple)
        assert _dumps_or_error(certificates._json, nested) == expected

    @pytest.mark.parametrize("value", [{}, [], (), [{}, [], ()], {"a": {"b": [[]]}}, "é\ud800"])
    def test_empty_and_odd(self, value):
        assert certificates._json(value) == self._dumps(value)

    @pytest.mark.parametrize("kind", [list, dict])
    def test_cycle(self, kind):
        value = kind()
        if kind is list:
            value.append(value)
        else:
            value["v"] = value
        expected = (ValueError, "Circular reference detected")
        assert _dumps_or_error(self._dumps, value) == expected
        assert _dumps_or_error(certificates._json, value) == expected
