"""The in-process A/B timer (tests/inprocess_ab.py) on a few queries: one
tree against itself gives the same outputs and no clear winner, overall
and per query kind, and a copy slowed in sat_bbll loses every pair by far,
in the bbll kind's figures as well, and not in the equation kind's."""

import io
import shutil
from pathlib import Path

import pytest

from . import inprocess_ab

ROOT = Path(__file__).resolve().parent.parent


def _compare(head, pairs=2, workload="sat_models", limit=30):
    out = io.StringIO()
    report = inprocess_ab.compare(ROOT, head, [workload], 1, pairs,
                                  limit=limit, out=out)
    return report[workload], out.getvalue()


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
    # the first thirty queries: ten each of bbll and finite, nine cited
    # equations and one countermodel, each kind on one printed line
    counts = {"bbll": 10, "finite": 10, "equation": 9, "countermodel": 1}
    assert list(got["kinds"]) == list(counts)
    for kind, n in counts.items():
        assert all(side["kinds"][kind]["queries"] == n
                   for pair in got["runs"] for side in pair)
        assert printed.count("  kind %s, %d queries: " % (kind, n)) == 1
        for name in inprocess_ab.FIGURES:
            s = got["kinds"][kind][name]
            assert s["q1"] <= s["ratio"] <= s["q3"]
            assert 0 < s["base"] and 0 < s["head"]


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
    # every bbll query is 2 ms slower; no equation query calls sat_bbll
    for name in inprocess_ab.FIGURES:
        s = got["kinds"]["bbll"][name]
        assert s["won"] == 0 and s["ratio"] > 1.5, (name, s)
        assert got["kinds"]["equation"][name]["ratio"] < 1.5, name


def test_a_workload_of_one_kind_reports_no_kinds():
    got, printed = _compare(ROOT, 1, "mc_periodic", 10)
    assert got["kinds"] == {}
    assert all(side["kinds"] == {} for pair in got["runs"] for side in pair)
    assert "  kind " not in printed


def test_bad_arguments_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        inprocess_ab.main([str(tmp_path), str(ROOT)])
    assert info.value.code == 2
    assert "no src/hslogic" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        inprocess_ab.main([str(ROOT), str(ROOT), "--pairs", "0"])
    assert info.value.code == 2


def test_the_prepare_time_is_reported_and_shows_a_slower_parser(tmp_path):
    got, printed = _compare(ROOT)
    s = got["summary"][inprocess_ab.SETUP]
    assert s["q1"] <= s["ratio"] <= s["q3"]
    assert all(side[inprocess_ab.SETUP] > 0
               for pair in got["runs"] for side in pair)
    assert printed.count("  prepare_s HEAD/BASE") == 1
    # a parser slowed by 1 ms a formula: the set-up parses every formula
    # of the workload, the thirty timed queries take their formulas ready
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    parser = tmp_path / "src" / "hslogic" / "parser.py"
    text = parser.read_text()
    head = "    tokens = _tokenize(text)\n"
    assert text.count(head) == 1
    parser.write_text(text.replace(
        head, "    __import__('time').sleep(0.001)\n" + head))
    got, _ = _compare(tmp_path)
    assert got["same_outputs"]
    s = got["summary"][inprocess_ab.SETUP]
    assert s["won"] == 0 and s["ratio"] > 1.5, s
