"""Command line surface: grammars, exit codes, output determinism."""

import json
import time

import hslogic.sat
from hslogic.automata import ifz_automaton, save_automaton
from hslogic.cli import main
from hslogic.models import finite_model, save_model


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_example_model(tmp_path):
    path = tmp_path / "m.ism"
    model = finite_model(3, {"p": [(0, 1), (1, 2)], "q": [(0, 2)]})
    path.write_text(save_model(model), encoding="ascii")
    return str(path)


def test_frozen_classify_example(capsys):
    code, out, _ = run(capsys, "classify", "--class", "nat", "iA B")
    assert out == "DecidableNonPrimitiveRecursive\n"
    assert code == 0


def test_frozen_sat_example(capsys):
    code, out, _ = run(capsys, "sat", "<B> p & ~<B> p")
    assert out == "UNSAT\n"
    assert code == 1


def test_frozen_mc_example(capsys, tmp_path):
    model = write_example_model(tmp_path)
    code, out, _ = run(capsys, "mc", "--model", model,
                       "--interval", "0", "2", "--formula", "<B> p")
    assert out == "true\n"
    assert code == 0


def test_mc_false_and_unknown(capsys, tmp_path):
    model = write_example_model(tmp_path)
    code, out, _ = run(capsys, "mc", "--model", model,
                       "--interval", "2", "3", "--formula", "<B> p")
    assert (code, out) == (1, "false\n")
    ppath = tmp_path / "p.ism"
    ppath.write_text("order periodic pre=1 per=1\nval p 1 2\n",
                     encoding="ascii")
    code, out, err = run(capsys, "mc", "--model", str(ppath),
                         "--interval", "0", "1", "--formula", "<L> p",
                         "--rounds", "0")
    assert code == 1
    assert out == "unknown\n"
    assert err != ""


def test_parse_roundtrip(capsys):
    code, out, _ = run(capsys, "parse", "<B> p & ~[L] q")
    assert code == 0
    assert out == "<B> p & ~[L] q\n"
    code, _, err = run(capsys, "parse", "p &")
    assert code == 2 and "error" in err


def test_sat_certificate_files(capsys, tmp_path):
    src = tmp_path / "f.hsf"
    src.write_text("<B> p\n", encoding="ascii")
    code, out, _ = run(capsys, "sat", "--file", str(src), "--verify")
    assert code == 0
    assert out.startswith("SAT\nwitness 1 3\n")
    cert = tmp_path / "f.hsf.cert.ism"
    assert cert.exists()
    assert "val p 1 2" in cert.read_text(encoding="ascii")
    other = tmp_path / "c.ism"
    code, _, _ = run(capsys, "sat", "--file", str(src),
                     "--out", str(other))
    assert code == 0 and other.exists()


def test_sat_argument_conflicts(capsys, tmp_path):
    code, _, err = run(capsys, "sat")
    assert code == 2 and err
    src = tmp_path / "f.hsf"
    src.write_text("p\n", encoding="ascii")
    code, _, err = run(capsys, "sat", "p", "--file", str(src))
    assert code == 2 and err


def test_sat_finite_and_unknown(capsys):
    code, out, _ = run(capsys, "sat", "<A> p", "--finite", "2")
    assert code == 0
    assert out.startswith("SAT\nwitness 0 1\n")
    code, out, err = run(capsys, "sat", "p & ~p", "--finite", "2")
    assert (code, out) == (1, "UNKNOWN\n")
    code, out, _ = run(capsys, "sat", "<A> p")
    assert code == 2  # outside the supported fragment


def test_classify_negative_exit(capsys):
    code, out, _ = run(capsys, "classify", "A D")
    assert (code, out) == (1, "Undecidable\n")


def test_atlas_jsonl_deterministic(capsys):
    code1, out1, _ = run(capsys, "atlas")
    code2, out2, _ = run(capsys, "atlas")
    assert code1 == code2 == 0
    assert out1 == out2
    rows = [json.loads(line) for line in out1.splitlines()]
    assert len(rows) == 62
    assert {"fragment", "label"} == set(rows[0])
    labels = {r["label"] for r in rows}
    assert "Undecidable" in labels and "NPComplete" in labels


def test_atlas_dot(capsys):
    code, out, _ = run(capsys, "atlas", "--format", "dot", "--class", "sd")
    assert code == 0
    assert out.startswith("digraph") and "->" in out


def test_encode(capsys, tmp_path):
    ica = tmp_path / "z.ica"
    ica.write_text(save_automaton(ifz_automaton()), encoding="ascii")
    code, out, _ = run(capsys, "encode", "--ica", str(ica),
                       "--target", "AE")
    assert code == 0 and "<A>" in out and "__conf" in out
    code, out, _ = run(capsys, "encode", "--ica", str(ica),
                       "--target", "iAB", "--groups")
    assert code == 0 and out.startswith("## g01\n")
    assert "[iA]" in out and "[A]" not in out


def test_bisim_witnesses(capsys):
    for name in ("later", "meets"):
        code, out, _ = run(capsys, "bisim", "--witness", name)
        assert (code, out) == (0, "certified\n")
    code, _, err = run(capsys, "bisim", "--witness", "later",
                       "--fragment", "B")
    assert code == 2 and err


def test_bisim_certify_and_pairs(capsys, tmp_path):
    left = tmp_path / "a.ism"
    right = tmp_path / "b.ism"
    left.write_text("order finite 3\nval p 2 3\n", encoding="ascii")
    right.write_text("order finite 3\n", encoding="ascii")
    code, out, _ = run(capsys, "bisim", "--left", str(left),
                       "--right", str(right), "--fragment", "B iB",
                       "--certify", "L", "p", "0", "1", "0", "1")
    assert (code, out) == (0, "certified\n")
    code, out, _ = run(capsys, "bisim", "--left", str(left),
                       "--right", str(right), "--fragment", "B iB")
    assert code == 0
    assert "0 1 0 1" in out.splitlines()


def test_bisim_rejects_a_periodic_model(capsys, tmp_path):
    left = tmp_path / "a.ism"
    right = tmp_path / "b.ism"
    left.write_text("order periodic pre=1 per=2\n", encoding="ascii")
    right.write_text("order finite 3\n", encoding="ascii")
    for extra in ((), ("--certify", "L", "p", "0", "1", "0", "1")):
        code, out, err = run(capsys, "bisim", "--left", str(left),
                             "--right", str(right), "--fragment", "B iB",
                             *extra)
        assert (code, out) == (2, "")
        assert err == "error: %s: bisimulations need a finite model\n" \
            % left


def test_bisim_certify_rejects_bad_input(capsys, tmp_path):
    left = tmp_path / "a.ism"
    right = tmp_path / "b.ism"
    left.write_text("order finite 3\nval p 2 3\n", encoding="ascii")
    right.write_text("order finite 3\n", encoding="ascii")
    for certify, message in (
            (("L", "p", "0", "9", "0", "1"),
             "(0, 9) is not an interval of the first model"),
            (("L", "p", "2", "1", "0", "1"),
             "(2, 1) is not an interval of the first model"),
            (("L", "p", "0", "1", "2", "1"),
             "(2, 1) is not an interval of the second model"),
            (("L", "P!", "0", "1", "0", "1"), "'P!' is not a letter")):
        code, out, err = run(capsys, "bisim", "--left", str(left),
                             "--right", str(right), "--fragment", "B iB",
                             "--certify", *certify)
        assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_parse_errors_at_end_of_input(capsys):
    code, out, err = run(capsys, "parse", "(p")
    assert (code, out) == (2, "")
    assert err == "error: expected ')', found end of input " \
        "(line 1, column 3)\n"
    code, out, err = run(capsys, "parse", "p &")
    assert (code, out) == (2, "")
    assert err == "error: expected a formula, found end of input " \
        "(line 1, column 4)\n"


def test_mirror(capsys):
    code, out, _ = run(capsys, "mirror", "<B> p")
    assert (code, out) == (0, "<E> p\n")
    code, out, _ = run(capsys, "mirror", "--fragment", "A B iL")
    assert (code, out) == (0, "iA E L\n")
    code, out, _ = run(capsys, "mirror", "A B")
    assert (code, out) == (0, "iA E\n")


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["nosuch"]) == 2
    code, _, err = run(capsys, "mc", "--model", "/nonexistent.ism",
                       "--interval", "0", "1", "--formula", "p")
    assert code == 2 and "error" in err


def test_mc_far_interval_is_fast(capsys, tmp_path):
    path = tmp_path / "p.ism"
    path.write_text("order periodic pre=1 per=1\nval p 0 1\n",
                    encoding="ascii")
    start = time.perf_counter()
    code, out, _ = run(capsys, "mc", "--model", str(path),
                       "--interval", "0", "100000000", "--formula", "p")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "mc", "--model", str(path),
                       "--interval", "100000000", "100000001",
                       "--formula", "p")
    assert (code, out) == (1, "false\n")
    assert time.perf_counter() - start < 2.0


def test_parse_too_deep_exits_2(capsys):
    code, out, err = run(capsys, "parse", "~" * 3000 + "p")
    assert code == 2 and out == ""
    assert "nested too deeply" in err and "Traceback" not in err


def test_sat_failed_recheck_exits_2(capsys, monkeypatch):
    # a re-check that rejects every witness stands in for a real
    # disagreement between the encoder and the model checker
    monkeypatch.setattr(hslogic.sat, "mc_periodic", lambda *a, **k: False)
    code, out, err = run(capsys, "sat", "<B> p")
    assert (code, out) == (2, "")
    assert err == "error: witness failed independent re-checking\n"


def test_encode_rejects_names_that_are_not_letters(capsys, tmp_path):
    # a state named Q1 would print an unparsable formula, and one named
    # true would re-parse as the constant
    for state in ("Q1", "true"):
        ica = tmp_path / "bad.ica"
        ica.write_text(save_automaton(ifz_automaton()).replace("q0", state),
                       encoding="ascii")
        for target in ("AE", "iAB"):
            code, out, err = run(capsys, "encode", "--ica", str(ica),
                                 "--target", target)
            assert (code, out) == (2, "")
            assert err == "error: name %r is not a formula letter\n" % state


def test_model_letters_follow_the_formula_rule(capsys, tmp_path):
    for letter in ("true", "false", "Q1"):
        path = tmp_path / "kw.ism"
        path.write_text("order finite 2\nval %s 0 1\n" % letter,
                        encoding="ascii")
        code, out, err = run(capsys, "mc", "--model", str(path),
                             "--interval", "0", "1", "--formula", "true")
        assert (code, out) == (2, "")
        assert err == "error: bad letter %r (line 2)\n" % letter


def test_negative_budgets_are_usage_errors(capsys, tmp_path):
    code, out, err = run(capsys, "sat", "--max-bound", "-3", "<B> p")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    ppath = tmp_path / "p.ism"
    ppath.write_text("order periodic pre=1 per=1\nval p 1 2\n",
                     encoding="ascii")
    code, out, err = run(capsys, "mc", "--model", str(ppath),
                         "--interval", "0", "1", "--formula", "<L> p",
                         "--rounds", "-2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
