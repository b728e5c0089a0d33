"""Command line surface: grammars, exit codes, output determinism."""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import hslogic.cli
import hslogic.sat
from hslogic.automata import ifz_automaton, save_automaton
from hslogic.cli import main
from hslogic.models import finite_model, save_model

SRC = str(Path(__file__).resolve().parent.parent / "src")


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
                         "--interval", "0", "1", "--formula", "<L> p")
    assert (code, out, err) == (0, "true\n", "")
    # no round budget cuts a periodic evaluation short into unknown, so
    # --rounds is a usage error; the exit on the checker's fault is pinned
    # by test_not_stabilized_is_a_fault_naming_the_cell (test_checking.py)
    code, out, err = run(capsys, "mc", "--model", str(ppath),
                         "--interval", "0", "1", "--formula", "<L> p",
                         "--rounds", "0")
    assert (code, out) == (2, "")
    assert "--rounds" in err


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
    # no input is too deep: 10^5 nested negations parse and print back
    n = 10 ** 5
    code, out, err = run(capsys, "parse", "~(" * n + "p" + ")" * n)
    assert (code, out, err) == (0, "~" * n + "p\n", "")


def test_parse_deep_input_prints_its_canonical_form(capsys):
    code, out, err = run(capsys, "parse", "~" * 3000 + "p")
    assert (code, out, err) == (0, "~" * 3000 + "p\n", "")


def test_sat_file_of_a_long_conjunction(capsys, tmp_path):
    # 150 conjuncts, one a line, so the left chain nests 149 levels deep
    src = tmp_path / "long.hs"
    src.write_text("".join("%s<B> p%d &\n" % ("~" * (i % 2), i)
                           for i in range(149)) + "p\n", encoding="ascii")
    code, out, err = run(capsys, "sat", "--file", str(src))
    assert code == 0 and err == ""
    assert out.startswith("SAT\nwitness ")
    assert (tmp_path / "long.hs.cert.ism").read_text() in out


def test_sat_failed_recheck_exits_2(capsys, monkeypatch):
    # a re-check that rejects every witness stands in for a real
    # disagreement between the encoder and the model checker
    monkeypatch.setattr(hslogic.sat, "mc_periodic", lambda *a, **k: False)
    code, out, err = run(capsys, "sat", "<B> p")
    assert (code, out) == (2, "")
    assert err == "error: witness failed independent re-checking\n"


def test_out_of_memory_exits_2(capsys, monkeypatch, tmp_path):
    # exit 1 would read as false for mc and as UNSAT or UNKNOWN for sat;
    # the callees raise at once, so nothing large is allocated
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(hslogic.cli, "mc_finite", exhausted)
    monkeypatch.setattr(hslogic.cli, "sat_bbll", exhausted)
    model = write_example_model(tmp_path)
    for argv in (("mc", "--model", model, "--interval", "0", "1",
                  "--formula", "p"),
                 ("sat", "<B> p")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: out of memory\n"), argv


def test_model_too_large_to_index_exits_2(capsys, tmp_path):
    # the atom table of order finite n has about n^2 entries, past what a
    # list can index, so the checker fails before it allocates anything
    model = tmp_path / "huge.ism"
    for last in (10 ** 20 - 1, 2 ** 63 - 1):
        model.write_text("order finite %d\n" % last, encoding="ascii")
        code, out, err = run(capsys, "mc", "--model", str(model),
                             "--interval", "0", "1", "--formula", "p")
        assert (code, out, err) == (2, "", "error: out of memory\n"), last


def _limit_address_space():
    # about 1 GiB: a checker that allocates without bound fails with
    # MemoryError here instead of taking the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def test_huge_periodic_model_exits_2_at_once(tmp_path):
    # one query watches only itself, so no list of the about pre^2/2 or
    # per^2/2 canonical cells is made: the first table cannot exist and
    # fails at once. Run in a child process under an address-space limit,
    # so that a regression fails without exhausting memory
    model = tmp_path / "huge.ism"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for split in ("pre=99999999999999999999 per=1",
                  "pre=1 per=99999999999999999999"):
        model.write_text("order periodic %s\n" % split, encoding="ascii")
        run = subprocess.run(
            [sys.executable, "-m", "hslogic.cli", "mc", "--model",
             str(model), "--interval", "0", "1", "--formula", "p"],
            env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=_limit_address_space)
        assert (run.returncode, run.stdout, run.stderr) == \
            (2, "", "error: out of memory\n"), split


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


def test_negative_budgets_are_usage_errors(capsys):
    # on the periodic path and on the finite one, which never reads it
    for argv in (("--max-bound", "-3", "<B> p"),
                 ("<B> p", "--finite", "1", "--max-bound", "-4")):
        code, out, err = run(capsys, "sat", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv


def test_mirror_reports_the_formula_error(capsys):
    # a text that is neither a formula nor a fragment fails as a formula,
    # with the same message as hs parse
    code, out, err = run(capsys, "mirror", "p&")
    assert (code, out) == (2, "")
    assert err == "error: expected a formula, found end of input " \
        "(line 1, column 3)\n"
    assert run(capsys, "parse", "p&")[2] == err
    # with --fragment the text is read as a fragment only
    code, out, err = run(capsys, "mirror", "--fragment", "p&")
    assert (code, out) == (2, "")
    assert err == "error: unknown modality 'p&' (line 1, column 1)\n"


def test_an_unwritable_certificate_leaves_stdout_empty(capsys, tmp_path):
    # the certificate file is written before anything is printed, so exit
    # 2 comes with no SAT verdict on stdout
    code, out, err = run(capsys, "sat", "<B> p",
                         "--out", str(tmp_path / "missing" / "x.ism"))
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2] ")
    src = tmp_path / "f.hsf"
    src.write_text("<B> p\n", encoding="ascii")
    (tmp_path / "f.hsf.cert.ism").mkdir()   # the default path
    code, out, err = run(capsys, "sat", "--file", str(src))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    # a path that can be written still gets the certificate printed too
    cert = tmp_path / "c.ism"
    code, out, _ = run(capsys, "sat", "--file", str(src), "--out", str(cert))
    assert code == 0
    assert out == "SAT\nwitness 1 3\n" + cert.read_text(encoding="ascii")
