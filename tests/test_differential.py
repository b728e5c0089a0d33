"""The parent-versus-change differential (tests/differential.py) on small
runs: one tree against itself answers identically on all seven kinds. A copy
whose mc_periodic answers the opposite is reported input by input, verdict
by verdict; so is a copy whose FiniteEvaluator.value answers the opposite,
value by value, and a copy whose check_equation moves a countermodel's
witness, equation by equation. A copy whose fragment check words its
refusal otherwise is reported on the refused formulas, a copy whose
pre-check refutes a split node on either branch is reported on the
pre-check's inputs, and a refutation the old tree confirms with no bound is
counted as moved. A copy whose parse errors name another column is
reported on the refused texts, and a copy that refuses long texts as
nested too deeply counts them as moved."""

import shutil
from pathlib import Path

from . import differential

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(old, new, n_mc, n_sat, n_finite=0, n_pre=0, n_fe=0, n_atlas=0,
         n_parse=0):
    inputs = differential.draw_inputs(3, n_mc, n_sat, n_finite, n_pre, n_fe,
                                      n_atlas, n_parse)
    return differential.run(old, new, inputs, 20.0)


def _copy(tmp_path):
    shutil.copytree(SRC / "hslogic", tmp_path / "hslogic",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "hslogic"


def test_a_tree_against_itself_is_identical():
    old, counts, differing = _run(SRC, SRC, 40, 8, 30, 60, 0, 0, 300)
    assert differing == []
    same = {"moved": 0, "differing": 0, "timed out": 0}
    assert counts["mc"] == {"identical": 40, **same}
    assert counts["sat"] == {"identical": 8, **same}
    assert counts["finite"] == {"identical": 30, **same}
    assert counts["pre"] == {"identical": 60, **same}
    assert counts["parse"] == {"identical": 300, **same}
    # the parse inputs include formulas and refusals by both the scanner
    # and the parser
    parsed = [a for a in old[-300:] if a[0] == "formula"]
    assert 50 < len(parsed) < 250
    refused = {a[1].split(" ")[0] for a in old[-300:] if a[0] != "formula"}
    assert {"expected", "unexpected", "trailing", "stray"} <= refused
    old = old[:-300]
    # the pre-check refutes some inputs and leaves the rest to a search the
    # periodic bound 0 cuts short
    assert {tuple(answer) for answer in old[-60:]} >= {
        ("Unsat", "propositional refutation"),
        ("Unknown", "search truncated below the periodic bound")}
    # the finite inputs include certificates and exhausted searches
    finite = [answer[0] for answer in old[-90:-60]]
    assert "Sat" in finite and "Unknown" in finite
    # the first sat input is drawn over all twelve modalities and refused
    assert old[40] == ["error", "UnsupportedFragmentError",
                       "sat_bbll handles fragment B iB L iL; got iE"]


def test_a_reworded_refusal_is_reported(tmp_path):
    sat = _copy(tmp_path) / "sat.py"
    text = sat.read_text()
    assert text.count("sat_bbll handles fragment") == 1
    sat.write_text(text.replace("sat_bbll handles fragment",
                                "sat_bbll decides fragment"))
    old, counts, differing = _run(SRC, tmp_path, 0, 20)
    refused = [a for a in old
               if a[:2] == ["error", "UnsupportedFragmentError"]]
    assert refused
    assert counts["sat"] == {"identical": 20 - len(refused), "moved": 0,
                             "differing": len(refused), "timed out": 0}
    for _, _, a, b in differing:
        assert b == a[:2] + [a[2].replace("handles", "decides")]


def test_a_flipped_verdict_is_reported(tmp_path):
    with open(_copy(tmp_path) / "checking.py", "a") as fh:
        fh.write("\n\n_mc_periodic = mc_periodic\n\n\n"
                 "def mc_periodic(*args):\n"
                 "    return not _mc_periodic(*args)\n")
    old, counts, differing = _run(SRC, tmp_path, 40, 0)
    # an mc answer is the drawn cell's verdict, then one per canonical cell
    decided = sum(any(isinstance(v, bool) for v in answer) for answer in old)
    assert decided > 20
    assert sum(len(answer) for answer in old) > 4 * 40
    assert counts["mc"] == {"identical": 40 - decided, "moved": 0,
                            "differing": decided, "timed out": 0}
    for kind, _, a, b in differing:
        assert kind == "mc" and len(a) == len(b)
        assert all(va == (not vb) if isinstance(va, bool) else va == vb
                   for va, vb in zip(a, b))


def test_a_flipped_finite_value_is_reported(tmp_path):
    same = {"moved": 0, "differing": 0, "timed out": 0}
    old, counts, _ = _run(SRC, SRC, 0, 0, 0, 0, 30)
    assert counts["fe"] == {"identical": 30, **same}
    values = [v for answer in old for v in answer]
    assert True in values and False in values
    assert all(isinstance(v, bool) for v in values)
    with open(_copy(tmp_path) / "checking.py", "a") as fh:
        fh.write("\n\n_value = FiniteEvaluator.value\n"
                 "FiniteEvaluator.value = lambda *args: not _value(*args)\n")
    flipped, counts, differing = _run(SRC, tmp_path, 0, 0, 0, 0, 30)
    assert flipped == old
    assert counts["fe"] == {"identical": 0, "moved": 0, "differing": 30,
                            "timed out": 0}
    for kind, _, a, b in differing:
        assert kind == "fe" and b == [not v for v in a]


def test_a_moved_countermodel_witness_is_reported(tmp_path):
    same = {"moved": 0, "differing": 0, "timed out": 0}
    old, counts, _ = _run(SRC, SRC, 0, 0, 0, 0, 0, 12 ** 3)
    assert counts["atlas"] == {"identical": 12 ** 3, **same}
    # every triple is answered; the six cited equations, and six more that
    # hold, have no countermodel within the default bound of 6 points
    assert sum(a == ["NoCountermodel", 6] for a in old) == 12
    assert sum(a[0] == "Countermodel" for a in old) == 12 ** 3 - 12
    with open(_copy(tmp_path) / "atlas.py", "a") as fh:
        fh.write("\n\n_check_equation = check_equation\n\n\n"
                 "def check_equation(*args):\n"
                 "    res = _check_equation(*args)\n"
                 "    if isinstance(res, Countermodel):\n"
                 "        x, y = res.witness\n"
                 "        res = Countermodel(res.model, (x, y + 1))\n"
                 "    return res\n")
    moved, counts, differing = _run(SRC, tmp_path, 0, 0, 0, 0, 0, 40)
    assert moved == old[:40]
    cms = sum(a[0] == "Countermodel" for a in moved)
    assert cms > 30
    assert counts["atlas"] == {"identical": 40 - cms, "moved": 0,
                               "differing": cms, "timed out": 0}
    for kind, _, a, b in differing:
        assert kind == "atlas" and b[:2] == a[:2]
        assert b[2] == [a[2][0], a[2][1] + 1]


def test_a_pre_check_refuting_on_either_branch_is_reported(tmp_path):
    sat = _copy(tmp_path) / "sat.py"
    text = sat.read_text()
    both = ("        elif not got:\n            return 0\n"
            "        elif got > worst:\n            worst = got\n"
            "    return 0 if split is None else worst\n")
    assert text.count(both) == 1
    sat.write_text(text.replace(both, "        elif got:\n"
                                "            return got\n    return 0\n"))
    old, counts, differing = _run(SRC, tmp_path, 0, 0, 0, 100)
    # the copy refutes satisfiable formulas, which the old tree's full
    # search answers Sat, so none of them counts as moved
    assert counts["pre"]["differing"] > 0
    for kind, _, a, b in differing:
        assert kind == "pre" and b[0] == "Unsat"
        assert a == ["Unknown", "search truncated below the periodic bound"]


def test_a_confirmed_move_is_counted_as_moved(tmp_path):
    # the old tree has no pre-check, so with the periodic bound 0 it leaves
    # the contradiction Unknown, and refutes it by its search with none
    sat = _copy(tmp_path) / "sat.py"
    text = sat.read_text()
    call = "    refuted = _prop_unsat(phi)\n"
    assert text.count(call) == 1
    sat.write_text(text.replace(call, "    refuted = None\n"))
    inputs = [{"kind": "pre", "formula": "<B> p & [B] ~p"},
              {"kind": "pre", "formula": "<B> p & [L] ~p"}]
    old, counts, differing = differential.run(tmp_path, SRC, inputs, 20.0)
    assert old[0] == ["Unknown", "search truncated below the periodic bound"]
    assert counts["pre"] == {"identical": 1, "moved": 1, "differing": 0,
                             "timed out": 0}
    assert differing == []


def test_a_moved_parse_error_column_is_reported(tmp_path):
    with open(_copy(tmp_path) / "parser.py", "a") as fh:
        fh.write("\n\n_parse_formula = parse_formula\n\n\n"
                 "def parse_formula(text):\n"
                 "    try:\n"
                 "        return _parse_formula(text)\n"
                 "    except ParseError as exc:\n"
                 "        message = str(exc).rsplit(' (line', 1)[0]\n"
                 "        raise ParseError(message, exc.line, exc.col + 1)\n")
    old, counts, differing = _run(SRC, tmp_path, 0, 0, n_parse=100)
    refused = sum(a[0] == "ParseError" for a in old)
    assert 20 < refused < 90
    assert counts["parse"] == {"identical": 100 - refused, "moved": 0,
                               "differing": refused, "timed out": 0}
    for kind, _, a, b in differing:
        assert kind == "parse" and a[0] == b[0] == "ParseError"


def test_a_text_once_too_deep_is_counted_as_moved(tmp_path):
    # the copy refuses long texts before it parses them, as parsing once
    # refused what nests past 100 levels
    with open(_copy(tmp_path) / "parser.py", "a") as fh:
        fh.write("\n\n_parse_formula = parse_formula\n\n\n"
                 "def parse_formula(text):\n"
                 "    if len(text) > 300:\n"
                 "        raise ParseError('formula nested too deeply', 1, 1)\n"
                 "    return _parse_formula(text)\n")
    inputs = [{"kind": "parse", "formula": text} for text in (
        "p & q", "~" * 400 + "p", "(" * 200 + "p" + ")" * 200,
        " -> ".join(["p"] * 200) + " ->")]
    old, counts, differing = differential.run(tmp_path, SRC, inputs, 20.0)
    assert [a[0] for a in old] == ["formula"] + ["ParseError"] * 3
    # the last text is refused by both trees, for two reasons: that differs
    assert counts["parse"] == {"identical": 1, "moved": 2, "differing": 1,
                               "timed out": 0}
    assert [item for _, item, _, _ in differing] == [inputs[3]]
