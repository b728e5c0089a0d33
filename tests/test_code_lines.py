"""tests/code_lines.py counts code lines, not prose."""

from pathlib import Path

from .code_lines import code_lines, main, tree_lines

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment on a code line

# a comment line


def f(x):
    """A docstring."""
    s = ("a string"
         "that is code")
    return x
'''


def test_docstrings_comments_and_blank_lines_are_left_out(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(SOURCE, encoding="utf-8")
    # import, def, the two lines of the assignment, return
    assert code_lines(path) == 5


def test_the_report_covers_every_module(capsys):
    root = Path(__file__).resolve().parent.parent
    counts = tree_lines(root)
    assert set(counts) == {p.name for p in (root / "src" / "hslogic").glob(
        "*.py")}
    assert main([str(root)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].split() == ["total", str(sum(counts.values()))]
    assert main([]) == 2
