"""The in-process A/B timer (tests/inprocess_ab.py) on a few queries: one
tree against itself gives the same outputs and no clear winner, and a copy
slowed in sat_bbll loses every pair by far."""

import io
import shutil
from pathlib import Path

import pytest

from . import inprocess_ab

ROOT = Path(__file__).resolve().parent.parent


def _compare(head, pairs=2):
    out = io.StringIO()
    report = inprocess_ab.compare(ROOT, head, ["sat_models"], 1, pairs,
                                  limit=30, out=out)
    return report["sat_models"], out.getvalue()


def test_a_tree_against_itself():
    got, printed = _compare(ROOT)
    assert got["same_outputs"]
    assert [len(pair) for pair in got["runs"]] == [2, 2]
    assert all(side["queries"] == 30 for pair in got["runs"] for side in pair)
    for name in inprocess_ab.FIGURES:
        s = got["summary"][name]
        assert s["q1"] <= s["ratio"] <= s["q3"]
        # the same code on the same queries: no factor of two either way
        assert 0.5 < s["ratio"] < 2.0
        assert printed.count("  %s HEAD/BASE" % name.ljust(6)) == 1
    assert printed.startswith(
        "sat_models seed 1: 2 pairs, 30 queries, outputs identical\n")


def test_a_copy_slowed_in_sat_bbll_loses_every_pair(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    sat = tmp_path / "src" / "hslogic" / "sat.py"
    text = sat.read_text()
    head = "    refuted = _prop_unsat(phi)\n"
    assert text.count(head) == 1
    sat.write_text(text.replace(
        head, "    __import__('time').sleep(0.002)\n" + head))
    got, _ = _compare(tmp_path)
    assert got["same_outputs"]
    # ten of the thirty queries are sat_bbll calls, each 2 ms slower, so
    # the 90th percentile is one of them
    for name in ("pass_s", "p90_ms"):
        s = got["summary"][name]
        assert s["won"] == 0 and s["ratio"] > 1.5, (name, s)


def test_bad_arguments_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        inprocess_ab.main([str(tmp_path), str(ROOT)])
    assert info.value.code == 2
    assert "no src/hslogic" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        inprocess_ab.main([str(ROOT), str(ROOT), "--pairs", "0"])
    assert info.value.code == 2
