"""The .ism and .ica file formats: save/load round trips, and malformed
text through the command line.

Point and counter counts stay small: a model's tables grow as the square of
its points, and the encoder's exclusion constraints as the square of the
counters, so a well-formed file with huge counts is a slow input, not a
malformed one.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import assume, given, settings, strategies as st

from hslogic.automata import (
    OPS, AutomatonFormatError, CounterAutomaton, Transition, load_automaton,
    pump_automaton, save_automaton,
)
from hslogic.cli import main
from hslogic.models import (
    FiniteDomain, IntervalModel, ModelFormatError, PeriodicDomain,
    canonical_cells, finite_model, load_model, periodic_model, save_model,
)

LETTERS = ["p", "q", "r"]


@st.composite
def models(draw):
    if draw(st.booleans()):
        domain = FiniteDomain(draw(st.integers(1, 5)))
    else:
        domain = PeriodicDomain(draw(st.integers(1, 3)),
                                draw(st.integers(1, 3)))
    cells = canonical_cells(domain)
    val = {letter: draw(st.lists(st.sampled_from(cells), max_size=6))
           for letter in draw(st.lists(st.sampled_from(LETTERS),
                                       unique=True))}
    return IntervalModel(domain, val)


@settings(max_examples=300, deadline=None)
@given(models())
def test_model_round_trip(model):
    assert load_model(save_model(model)) == model


@st.composite
def automata(draw):
    states = draw(st.lists(st.sampled_from(["q0", "q1", "q2", "s"]),
                           min_size=1, unique=True))
    alphabet = draw(st.lists(st.sampled_from(["a", "b", "c"]), unique=True))
    counters = draw(st.integers(0, 3))
    transitions = []
    if counters:
        transitions = draw(st.lists(st.builds(
            Transition, st.sampled_from(states),
            st.sampled_from(alphabet + [None]), st.sampled_from(OPS),
            st.integers(1, counters), st.sampled_from(states)), max_size=5))
    return CounterAutomaton(
        states=tuple(states), alphabet=tuple(alphabet),
        num_counters=counters, init=draw(st.sampled_from(states)),
        finals=tuple(draw(st.lists(st.sampled_from(states), unique=True))),
        transitions=tuple(transitions))


@settings(max_examples=300, deadline=None)
@given(automata())
def test_automaton_round_trip(auto):
    assert load_automaton(save_automaton(auto)) == auto


# Malformed files are made by editing well-formed ones: lines dropped,
# repeated or added, and tokens replaced, inserted or removed.
ISM_SEEDS = [
    "order finite 3\nval p 0 1\nval q 1 3\n",
    "order periodic pre=1 per=2\nval p 0 1\nval p 1 3  # a comment\n",
]
ICA_SEEDS = [
    save_automaton(pump_automaton()),
    "alphabet a\nstates q0\ninit q0\nfinal q0\ncounters 2\n"
    "trans q0 eps inc 2 q0\n",
]
TOKENS = [
    "order", "finite", "periodic", "pre=1", "per=2", "pre=0", "per=x",
    "val", "alphabet", "states", "init", "final", "counters", "trans",
    "inc", "dec", "ifz", "eps", "bump", "p", "q", "q0", "q1", "a", "1p",
    "0", "1", "2", "3", "-1", "4.5", "99999999999999999999", "#", "=", "",
    "é", "\x00",
]
edits = st.lists(st.tuples(
    st.sampled_from(["drop", "repeat", "line", "replace", "insert",
                     "delete"]),
    st.integers(0, 7), st.integers(0, 7), st.sampled_from(TOKENS)),
    min_size=1, max_size=4)


def _edit(text, steps):
    lines = [line.split(" ") for line in text.splitlines()]
    for op, i, j, token in steps:
        if op == "line" or not lines:
            lines.insert(i % (len(lines) + 1), [token, str(j)])
            continue
        line = lines[i % len(lines)]
        if op == "drop":
            lines.remove(line)
        elif op == "repeat":
            lines.insert(i % len(lines), list(line))
        elif op == "replace":
            line[j % len(line)] = token
        elif op == "insert":
            line.insert(j % (len(line) + 1), token)
        elif len(line) > 1:
            del line[j % len(line)]
    return "\n".join(" ".join(line) for line in lines) + "\n"


def _load(load, error, text):
    """What load makes of text, or None where the command line must reject
    it. The command line reads files as ASCII."""
    if not text.isascii():
        return None
    try:
        return load(text)
    except error:
        return None


def _run(argv):
    """main's exit status and stderr; main must return, not raise."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _with_file(text, suffix, argv):
    fd, path = tempfile.mkstemp(suffix=suffix)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        return _run([a if a != "FILE" else path for a in argv])
    finally:
        os.unlink(path)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ISM_SEEDS), edits)
def test_malformed_models_exit_2(seed, steps):
    text = _edit(seed, steps)
    model = _load(load_model, ModelFormatError, text)
    if model is not None:
        d = model.domain
        assume(d.last_point <= 20 if isinstance(d, FiniteDomain)
               else d.pre + d.per <= 20)
    code, err = _with_file(text, ".ism", ["mc", "--model", "FILE",
                                          "--interval", "0", "1",
                                          "--formula", "<B> p | <A> q"])
    assert "Traceback" not in err
    if model is None:
        assert code == 2 and err.startswith("error: "), (text, err)
    else:
        assert code in (0, 1), (text, err)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ICA_SEEDS), edits)
def test_malformed_automata_exit_2(seed, steps):
    text = _edit(seed, steps)
    auto = _load(load_automaton, AutomatonFormatError, text)
    if auto is not None:
        assume(auto.num_counters <= 20)
    code, err = _with_file(text, ".ica", ["encode", "--ica", "FILE",
                                          "--target", "AE"])
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: "), (text, err)
    # a well-formed automaton whose names are not formula letters has no
    # encoding, and exits 2 too
    assert code == 2 if auto is None else code in (0, 2), (text, err)


def test_eps_is_not_a_letter():
    # "eps" is the format's keyword for an unlabelled step, so a letter of
    # that name would be saved as one and loaded back unlabelled
    with pytest.raises(ValueError):
        CounterAutomaton(
            states=("q0",), alphabet=("eps",), num_counters=1, init="q0",
            finals=(), transitions=(Transition("q0", "eps", "inc", 1, "q0"),))
    text = ("alphabet eps\nstates q0\ninit q0\ncounters 1\n"
            "trans q0 eps inc 1 q0\n")
    with pytest.raises(AutomatonFormatError):
        load_automaton(text)
    code, err = _with_file(text, ".ica", ["encode", "--ica", "FILE",
                                          "--target", "AE"])
    assert code == 2 and err.startswith("error: "), err


@pytest.mark.parametrize("letter", ["P", "true", "false", "1p", "p-q", ""])
def test_a_model_letter_must_be_a_formula_letter(letter):
    # save_model would write such a letter, and load_model reject it as a
    # bad letter, so the model itself refuses it, with or without cells
    with pytest.raises(ValueError):
        finite_model(2, {letter: [(0, 1)]})
    with pytest.raises(ValueError):
        periodic_model(1, 1, {letter: []})
    with pytest.raises(ModelFormatError):
        load_model("order finite 2\nval %s 0 1\n" % letter)
