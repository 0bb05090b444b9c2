"""The README's examples, run as written: each stated output must hold."""

import ast
import re
import shlex
from pathlib import Path

from knotalex.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _first_block(heading: str) -> str:
    """Body of the first fenced code block after a README heading."""
    start = README.index(f"\n{heading}\n")
    return re.search(r"```\w*\n(.*?)```", README[start:], re.S).group(1)


def test_command_lines_print_their_commented_output(capsys, monkeypatch, tmp_path):
    # the presentation-format block is the trefoil.txt the commands read
    (tmp_path / "trefoil.txt").write_text(_first_block("### Presentation file format"))
    monkeypatch.chdir(tmp_path)
    lines = _first_block("## Command line").splitlines()
    checked = []
    for line, after in zip(lines, lines[1:]):
        if line.startswith("knotalex ") and after.startswith("# "):
            assert main(shlex.split(line)[1:]) == 0, line
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (after[2:] + "\n", ""), line
            checked.append(line)
    assert checked == [
        "knotalex alexander --file trefoil.txt",
        "knotalex family --n 1 --m 1 --emit alexander",
        "knotalex classify --n 3 --m 1 --p 13 --q 1",
    ]


def test_library_block_gives_its_commented_values():
    # an expression's value is the comment on its line or on the next one,
    # up to any parenthesized remark
    block = _first_block("## Library")
    lines = block.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        comment = lines[node.end_lineno - 1][node.end_col_offset :].strip()
        if not comment:
            comment = lines[node.end_lineno].strip()
        stated = comment.removeprefix("# ").split(" (")[0]
        assert repr(eval(code, namespace)) == stated, code
        checked.append(stated)
    assert checked == [
        "True",
        "0.4188790204786347",
        "<Verdict.NOT_LEFT_ORDERABLE: 'NotLeftOrderable'>",
    ]
