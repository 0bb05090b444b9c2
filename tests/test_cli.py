"""End-to-end command-line tests driven through ``main(argv)``."""

import io
import json
import math

import pytest

from knotalex.cli import main

TREFOIL_TEXT = "gens: x y\nrel: x y x (y x y)^-1\n"


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_canonical_echo(self, capsys, tmp_path):
        source = tmp_path / "trefoil.txt"
        source.write_text("# a comment\ngens: x y\n\nrel: x y x (y x y)^-1\n")
        code, out, err = run(capsys, ["parse", "--file", str(source)])
        assert code == 0 and err == ""
        assert out == "gens: x y\nrel: x y x y^-1 x^-1 y^-1\n"

    def test_json(self, capsys, tmp_path):
        source = tmp_path / "trefoil.txt"
        source.write_text(TREFOIL_TEXT)
        code, out, _ = run(capsys, ["parse", "--file", str(source), "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "generators": ["x", "y"],
            "relators": ["x y x y^-1 x^-1 y^-1"],
            "meridian": None,
        }

    def test_stdin(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, ["parse", "--file", "-"], stdin=TREFOIL_TEXT, monkeypatch=monkeypatch
        )
        assert code == 0
        assert "gens: x y" in out

    def test_deeply_nested_relator(self, capsys, tmp_path):
        source = tmp_path / "nested.txt"
        source.write_text("gens: x y\nrel: " + "(" * 400 + "x" + ")" * 400 + " y^-1\n")
        code, out, err = run(capsys, ["parse", "--file", str(source)])
        assert (code, out, err) == (0, "gens: x y\nrel: x y^-1\n", "")
        source.write_text("gens: x y\nrel: " + "(" * 400 + "x y^-1\n")
        code, out, err = run(capsys, ["parse", "--file", str(source)])
        assert (code, out) == (1, "")
        assert err == "error: WordParseError: unbalanced parentheses: missing ')'\n"


class TestAlexander:
    def test_trefoil(self, capsys, tmp_path):
        source = tmp_path / "trefoil.txt"
        source.write_text(TREFOIL_TEXT)
        code, out, _ = run(capsys, ["alexander", "--file", str(source)])
        assert code == 0
        assert out == "1 - t + t^2\n"

    def test_column_choice_is_irrelevant(self, capsys, tmp_path):
        source = tmp_path / "trefoil.txt"
        source.write_text(TREFOIL_TEXT)
        _, out_x, _ = run(capsys, ["alexander", "--file", str(source), "--via", "x"])
        _, out_y, _ = run(capsys, ["alexander", "--file", str(source), "--via", "y"])
        assert out_x == out_y == "1 - t + t^2\n"

    def test_json(self, capsys, tmp_path):
        source = tmp_path / "trefoil.txt"
        source.write_text(TREFOIL_TEXT)
        code, out, _ = run(capsys, ["alexander", "--file", str(source), "--json"])
        assert code == 0
        assert json.loads(out) == {"min_degree": 0, "coeffs": ["1", "-1", "1"]}

    def test_domain_error_exit_code(self, capsys, monkeypatch):
        # the commutator presentation has first homology of rank 2
        text = "gens: x y\nrel: x y x^-1 y^-1\n"
        code, out, err = run(
            capsys, ["alexander", "--file", "-"], stdin=text, monkeypatch=monkeypatch
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: H1RankNotOne:")
        assert err.count("\n") == 1

    def test_torsion_error_line(self, capsys, monkeypatch):
        text = "gens: x y\nrel: x^3000000 y^-2000000\n"
        code, out, err = run(
            capsys, ["alexander", "--file", "-"], stdin=text, monkeypatch=monkeypatch
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: NotAKnotPolynomial: value at t = 1 is -1000000, expected +1 or -1\n"
        )

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(
            capsys, ["alexander", "--file", str(tmp_path / "nope.txt")]
        )
        assert code == 1
        assert err.startswith("error: FileNotFoundError:")

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["alexander"])  # --file is required
        assert exc_info.value.code == 2


class TestFamily:
    def test_emit_presentation(self, capsys):
        code, out, _ = run(
            capsys, ["family", "--n", "1", "--m", "1", "--emit", "presentation"]
        )
        assert code == 0
        assert out == (
            "gens: a w\n"
            "rel: w a w a^-1 w^-1 a^-2 w^-1 a^-1 w a\n"
            "meridian: a\n"
        )

    def test_emit_longitude(self, capsys):
        code, out, _ = run(
            capsys, ["family", "--n", "1", "--m", "1", "--emit", "longitude"]
        )
        assert code == 0
        assert out == "a^-11 w a w a w a w\n"

    def test_emit_alexander(self, capsys):
        code, out, _ = run(
            capsys, ["family", "--n", "1", "--m", "1", "--emit", "alexander"]
        )
        assert code == 0
        assert out == "1 - t + t^3 - t^5 + t^6\n"

    def test_pipeline_round_trip(self, capsys, monkeypatch):
        _, text, _ = run(
            capsys, ["family", "--n", "3", "--m", "2", "--emit", "presentation"]
        )
        _, from_pipeline, _ = run(
            capsys, ["alexander", "--file", "-"], stdin=text, monkeypatch=monkeypatch
        )
        _, closed, _ = run(
            capsys, ["family", "--n", "3", "--m", "2", "--emit", "alexander"]
        )
        assert from_pipeline == closed

    def test_invalid_params(self, capsys):
        code, _, err = run(capsys, ["family", "--n", "0", "--m", "1", "--emit", "longitude"])
        assert code == 1
        assert err.startswith("error:")


class TestCertify:
    def test_json_record(self, capsys):
        code, out, _ = run(capsys, ["certify", "--n", "2", "--m", "1", "--json"])
        assert code == 0
        record = json.loads(out)
        assert set(record) == {
            "kind",
            "theta_lo",
            "theta_hi",
            "theta_star",
            "g_lo",
            "g_hi",
            "residual",
        }
        assert record["kind"] == "IntervalSignChange"
        assert abs(record["theta_star"] - 2 * math.pi / 15) < 1e-9
        assert record["residual"] < 1e-8

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, ["certify", "--n", "1", "--m", "1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "kind: ExactCosine"
        assert lines[2].startswith("theta_star: ")
        assert float(lines[2].split(": ")[1]) == pytest.approx(math.pi / 6)

    def test_tolerance_flag(self, capsys):
        code, out, _ = run(
            capsys, ["certify", "--n", "2", "--m", "1", "--tol", "1e-6", "--json"]
        )
        assert code == 0
        assert abs(json.loads(out)["theta_star"] - 2 * math.pi / 15) < 1e-5


class TestClassify:
    def test_not_left_orderable(self, capsys):
        code, out, _ = run(
            capsys, ["classify", "--n", "3", "--m", "1", "--p", "13", "--q", "1"]
        )
        assert code == 0
        assert out == "NotLeftOrderable (bound 9)\n"

    def test_no_conclusion(self, capsys):
        code, out, _ = run(
            capsys, ["classify", "--n", "1", "--m", "1", "--p", "4", "--q", "1"]
        )
        assert code == 0
        assert out == "NoConclusion (bound 5)\n"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys,
            ["classify", "--n", "1", "--m", "1", "--p", "9", "--q", "2", "--json"],
        )
        assert code == 0
        assert json.loads(out) == {
            "slope": "9/2",
            "verdict": "NoConclusion",
            "slope_bound": 5,
            "near_zero_note": True,
        }

    def test_json_normalizes_slope(self, capsys):
        code, out, _ = run(
            capsys,
            ["classify", "--n", "1", "--m", "1", "--p", "-10", "--q", "-2", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["slope"] == "5/1"
        assert payload["verdict"] == "NotLeftOrderable"


class TestTable:
    def test_tsv_contents(self, capsys):
        code, out, _ = run(capsys, ["table", "--n-max", "2", "--m-max", "2", "--tsv"])
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()]
        assert rows[0] == ["n", "m", "genus", "slope_bound", "span", "theta_star", "residual"]
        by_params = {(r[0], r[1]): r for r in rows[1:]}
        assert by_params[("1", "1")][2:5] == ["3", "5", "6"]
        assert by_params[("2", "1")][2:5] == ["4", "7", "8"]
        assert by_params[("2", "2")][2:5] == ["7", "13", "14"]
        for row in rows[1:]:
            assert float(row[6]) < 1e-8

    def test_text_alignment(self, capsys):
        code, out, _ = run(capsys, ["table", "--n-max", "1", "--m-max", "1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == [
            "n", "m", "genus", "slope_bound", "span", "theta_star", "residual"
        ]
        assert lines[1].split()[:5] == ["1", "1", "3", "5", "6"]

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, ["table", "--n-max", "3", "--m-max", "2", "--tsv"])
        _, second, _ = run(capsys, ["table", "--n-max", "3", "--m-max", "2", "--tsv"])
        assert first == second
