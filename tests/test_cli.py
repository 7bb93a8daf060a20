import json
import math

import numpy as np
import pytest

from dehnfill.certificates import figure_data
from dehnfill.cli import render_figure_csv, run


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


class TestBounds:
    def test_bounds_ok(self, capsys):
        code, doc = run_json(capsys, ["bounds", "--lhat", "10"])
        assert code == 0
        assert doc["payload"]["core_length_hi"] == pytest.approx(
            doc["payload"]["visual_area"][1] / (2 * math.pi), rel=1e-12
        )

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


class TestFigure:
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

    def test_significant_digits(self, capsys, tmp_path):
        out = tmp_path / "fig1.csv"
        run_json(capsys, ["figure", "--which", "1", "--samples", "4", "--out", str(out)])
        cell = out.read_text().splitlines()[-1].split(",")[1]
        mantissa = cell.split("e")[0]
        assert len(mantissa.replace("-", "").replace(".", "")) >= 12


class TestUsageErrors:
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


class TestFigureCsvBytes:
    """render_figure_csv writes the header, then format(v, ".12e") per value,
    comma-joined, one row per line, with LF line endings."""

    @staticmethod
    def _expected(header, rows):
        lines = [",".join(header)] + [",".join(format(v, ".12e") for v in row) for row in rows]
        return "".join(line + "\n" for line in lines).encode("utf-8")

    def test_fixed_table(self, tmp_path):
        header = ("x", "lo", "hi", "edge")
        rows = np.array([
            [0.0, -0.0, 1.5, 5e-324],
            [math.pi, 2.0 / 3.0, 1e300, -7.25e-5],
            [1e-300, 123456789.123456789, -1.0, 0.1],
        ])
        out = tmp_path / "table.csv"
        render_figure_csv((header, rows), str(out))
        assert out.read_bytes() == self._expected(header, rows.tolist())

    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_figure_table(self, tmp_path, which):
        header, rows = figure_data(which, 9)
        out = tmp_path / "figure.csv"
        render_figure_csv((header, rows), str(out))
        assert out.read_bytes() == self._expected(header, rows.tolist())
