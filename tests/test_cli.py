"""End-to-end command-line tests driven through ``main(argv)``."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import knotalex
from knotalex import family, rootcert
from knotalex.cli import main
from knotalex.errors import CertificationFailed, NotDivisible
from knotalex.family import FamilyParams

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

    def test_no_column_option(self, capsys, tmp_path):
        # every column of nonzero weight gives the same polynomial
        source = tmp_path / "trefoil.txt"
        source.write_text(TREFOIL_TEXT)
        with pytest.raises(SystemExit) as info:
            main(["alexander", "--file", str(source), "--via", "x"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: unrecognized arguments: --via x" in captured.err

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

    @pytest.mark.parametrize("emit", ["presentation", "longitude"])
    def test_json_only_with_alexander(self, capsys, emit):
        with pytest.raises(SystemExit) as info:
            main(["family", "--n", "1", "--m", "1", "--emit", emit, "--json"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "knotalex family: error: --json applies only to --emit alexander\n"
        )


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

    def test_exact_text_output(self, capsys):
        code, out, _ = run(capsys, ["certify", "--n", "2", "--m", "1"])
        assert code == 0
        assert out == (
            "kind: IntervalSignChange\n"
            "interval: (0.3141592653589793, 0.5711986642890533)\n"
            "theta_star: 0.4188790204786347\n"
            "g_lo: 0.9876883405951378\n"
            "g_hi: -0.8817605592166837\n"
            "residual: 1.329e-14\n"
        )

    @pytest.mark.parametrize(
        "n, m, residual, digits",
        [
            pytest.param(2, 1, "1.329e-14", "1.3290255342153596e-14", id="2-1-1.329e-14"),
            pytest.param(
                26490, 1194, "2.494e-13", "2.4936123211461984e-13",
                id="26490-1194-2.494e-13",
            ),
            pytest.param(
                100000, 10000, "2.743e-13", "2.742841877290437e-13",
                id="100000-10000-2.743e-13",
            ),
            pytest.param(
                150000, 1, "3.351e-13", "3.351254675953929e-13", id="150000-1-3.351e-13"
            ),
            pytest.param(
                2, 100000, "2.683e-13", "2.6832234710352506e-13", id="2-100000-2.683e-13"
            ),
        ],
    )
    def test_residual_digits(self, capsys, n, m, residual, digits):
        # the digits depend on the expanded polynomial and on the order in
        # which laurent._unit_circle_sum, shared by the residual and by
        # eval_unit_circle, adds its terms
        argv = ["certify", "--n", str(n), "--m", str(m)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.splitlines()[-1] == f"residual: {residual}"
        code, out, _ = run(capsys, [*argv, "--json"])
        assert code == 0
        assert repr(json.loads(out)["residual"]) == digits

    def test_member_past_the_float_range(self, capsys):
        # a 401-digit n once ended in an OverflowError traceback
        code, out, err = run(capsys, ["certify", "--n", "9" * 401, "--m", "1"])
        assert code == 1
        assert out == ""
        assert err == (
            "error: CertificationFailed: theta_lo = (pi/2)/M is not a normal float: "
            "M = n + 3m exceeds (pi/2)*2^1022\n"
        )

    def test_no_tolerance_option(self, capsys):
        # the bisection width and the residual bound are fixed constants
        with pytest.raises(SystemExit) as info:
            main(["certify", "--n", "2", "--m", "1", "--tol", "1e-6"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: unrecognized arguments: --tol 1e-6" in captured.err


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

    @pytest.mark.parametrize(
        "n_max, m_max", [(0, 3), (3, 0), (-1, 2)], ids=["n-0", "m-0", "n-neg"]
    )
    def test_bounds_below_one_rejected(self, capsys, n_max, m_max):
        # a table needs at least one member; an empty rectangle is an error,
        # as a family member below (1, 1) is, not a bare header
        code, out, err = run(
            capsys, ["table", "--n-max", str(n_max), "--m-max", str(m_max)]
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: ValueError: table bounds must be at least 1, "
            f"got --n-max {n_max} --m-max {m_max}\n"
        )

    def test_builds_each_polynomial_once(self, capsys, monkeypatch):
        # the residual takes one list of closed-form runs per member; the span
        # cell is 2 * genus and needs none
        original = family._closed_form_runs
        calls = []

        def counted(n, m):
            calls.append((n, m))
            return original(n, m)

        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.startswith("knotalex") and (
                getattr(module, "_closed_form_runs", None) is original
            ):
                monkeypatch.setattr(module, "_closed_form_runs", counted)
        code, _, _ = run(capsys, ["table", "--n-max", "10", "--m-max", "10"])
        assert code == 0
        assert sorted(calls) == [(n, m) for n in range(1, 11) for m in range(1, 11)]

    def _failed_member(self, capsys, monkeypatch, target, exc, member):
        """Run a 3 x 2 table with ``target`` raising ``exc`` for one member."""
        _, expected, _ = run(capsys, ["table", "--n-max", "3", "--m-max", "2", "--tsv"])
        original = getattr(rootcert, target)

        def failing(*args):
            params = args[0] if target == "certify_family_root" else FamilyParams(*args)
            if (params.n, params.m) == member:
                raise exc
            return original(*args)

        monkeypatch.setattr(rootcert, target, failing)
        code, out, err = run(capsys, ["table", "--n-max", "3", "--m-max", "2", "--tsv"])
        assert code == 1
        name = type(exc).__name__
        assert err == f"error: (n, m) = {member}: {name}: {exc}\n"
        rows, expected_rows = out.splitlines(), expected.splitlines()
        assert len(rows) == len(expected_rows) == 7
        for row, expected_row in zip(rows, expected_rows):
            if row.split("\t")[:2] == [str(member[0]), str(member[1])]:
                cells = expected_row.split("\t")[:5] + [f"!{name}"] * 2
                assert row == "\t".join(cells)
            else:
                assert row == expected_row

    def test_failed_certificate(self, capsys, monkeypatch):
        # the cells keep the type name; the message goes to stderr
        self._failed_member(
            capsys, monkeypatch, "certify_family_root",
            CertificationFailed("7M(2n - 3) = 7 is not above 11"), (2, 1),
        )

    def test_failed_closed_form(self, capsys, monkeypatch):
        # the span cell is 2 * genus, so only the residual's cells fail
        self._failed_member(
            capsys, monkeypatch, "_closed_form_runs",
            NotDivisible("closed form does not divide"), (3, 2),
        )


#: One call per subcommand and output flag: argv and stdin.
SUBCOMMAND_CALLS = [
    (["parse", "--file", "-"], TREFOIL_TEXT),
    (["parse", "--file", "-", "--json"], TREFOIL_TEXT),
    (["alexander", "--file", "-"], TREFOIL_TEXT),
    (["alexander", "--file", "-", "--json"], TREFOIL_TEXT),
    (["family", "--n", "3", "--m", "2", "--emit", "presentation"], ""),
    (["family", "--n", "3", "--m", "2", "--emit", "longitude"], ""),
    (["family", "--n", "3", "--m", "2", "--emit", "alexander"], ""),
    (["family", "--n", "3", "--m", "2", "--emit", "alexander", "--json"], ""),
    (["certify", "--n", "2", "--m", "1"], ""),
    (["certify", "--n", "2", "--m", "1", "--json"], ""),
    (["classify", "--n", "3", "--m", "1", "--p", "13", "--q", "1"], ""),
    (["classify", "--n", "3", "--m", "1", "--p", "13", "--q", "1", "--json"], ""),
    (["table", "--n-max", "2", "--m-max", "2"], ""),
    (["table", "--n-max", "2", "--m-max", "2", "--tsv"], ""),
]


def _fresh(argv, stdin="", module=None):
    """Run a fresh interpreter on this checkout of the package."""
    env = dict(os.environ, PYTHONPATH=str(Path(knotalex.__file__).parents[1]))
    command = ["-m", module] if module else []
    return subprocess.run(
        [sys.executable, *command, *argv],
        input=stdin, capture_output=True, text=True, env=env,
    )


_LOADED_BY_MAIN = """\
import sys
before = set(sys.modules)
import contextlib, io
from knotalex import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(set(sys.modules) - before))
"""


@pytest.mark.parametrize(
    "argv, stdin", SUBCOMMAND_CALLS, ids=[" ".join(argv) for argv, _ in SUBCOMMAND_CALLS]
)
def test_each_subcommand_imports_only_what_it_runs(argv, stdin):
    # the modules a site .pth preloads are in ``before``, so they never count
    done = _fresh(["-c", _LOADED_BY_MAIN, *argv], stdin)
    assert done.returncode == 0, done.stderr
    code, *loaded = done.stdout.split()
    assert code == "0"
    assert "knotalex.cli" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded)
    if argv[0] in ("family", "certify", "classify", "table"):
        assert not {"knotalex.foxcalc", "knotalex.alexander", "fractions"} & set(loaded)
    assert ("json" in loaded) == ("--json" in argv)


_LOADS_TYPING = """\
import contextlib, io, sys
from knotalex import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, "typing" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv, stdin", SUBCOMMAND_CALLS, ids=[" ".join(argv) for argv, _ in SUBCOMMAND_CALLS]
)
def test_no_subcommand_imports_typing(argv, stdin):
    # -S skips the site hook, which preloads typing and would hide an import
    done = _fresh(["-S", "-c", _LOADS_TYPING, *argv], stdin)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "False"]


def test_python_dash_m_runs_the_cli(capsys, monkeypatch):
    # a fresh process catches a missing function-local import that the warm
    # modules of an in-process run would hide
    for argv, stdin in SUBCOMMAND_CALLS:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        expected = run(capsys, argv)
        done = _fresh(argv, stdin, module="knotalex")
        assert (done.returncode, done.stdout, done.stderr) == expected, argv
        assert expected[0] == 0 and expected[1], argv
    argv = ["certify", "--n", "2", "--m", "1"]
    done = _fresh(argv, module="knotalex.cli")
    assert done.returncode == 0, done.stderr
    assert done.stdout == _fresh(argv, module="knotalex").stdout
    assert done.stdout.startswith("kind: IntervalSignChange\n")


def _in_process(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), a usage error's SystemExit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("module", ["knotalex", "knotalex.cli"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["classify", "--n", "3", "--m", "1", "--p", "13", "--q", "1"], 0),
        (["certify", "--n", "2"], 2),  # --m is required
    ],
    ids=["classify", "usage-error"],
)
def test_module_entry_points_match_main(capsys, module, argv, code):
    expected = _in_process(capsys, argv)
    assert expected[0] == code
    done = _fresh(argv, module=module)
    assert (done.returncode, done.stdout, done.stderr) == expected
