"""Formula and fragment text grammar."""

import pytest

from hslogic.checking import postorder
from hslogic.parser import (
    ParseError, is_letter, parse_formula, parse_fragment,
)
from hslogic.syntax import (
    A, iA, B, iB, L, iL, And, Atom, Box, Diamond, FALSE, Fragment,
    Implies, MAX_NESTING, Not, Or, TRUE, closure, desugar, dia,
    mirror_formula, nesting_depth, render,
)

p, q = Atom("p"), Atom("q")


def test_atoms_and_keywords():
    assert parse_formula("p") == p
    assert parse_formula("true") == TRUE
    assert parse_formula("false") == FALSE
    assert parse_formula("_x9") == Atom("_x9")


@pytest.mark.parametrize("name", ["p", "_x9", "q1", "trueish", "__conf",
                                  "false_", "aB_3"])
def test_letters_parse_as_atoms(name):
    assert is_letter(name)
    assert parse_formula(name) == Atom(name)


@pytest.mark.parametrize("name", ["true", "false", "Q1", "1p", "p-q", "p q",
                                  "", "p\n", "\u00e9"])
def test_non_letters_do_not_parse_as_atoms(name):
    assert not is_letter(name)
    try:
        phi = parse_formula(name)
    except ParseError:
        return
    assert phi != Atom(name)


def test_precedence():
    assert parse_formula("p & q | p") == Or(And(p, q), p)
    assert parse_formula("p | q & p") == Or(p, And(q, p))
    assert parse_formula("p -> q -> p") == Implies(p, Implies(q, p))
    assert parse_formula("~p & q") == And(Not(p), q)


def test_modalities():
    assert parse_formula("<B> p") == Diamond(B, p)
    assert parse_formula("[iB] p") == Box(iB, p)
    assert parse_formula("<L> [iL] p") == Diamond(L, Box(iL, p))


def test_parens_and_comments():
    assert parse_formula("(p | q) & p # note") == And(Or(p, q), p)
    assert parse_formula("p\n# full line comment\n& q") == And(p, q)


def test_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_formula("p &")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        parse_formula("<X> p")
    with pytest.raises(ParseError):
        parse_formula("(p")
    with pytest.raises(ParseError):
        parse_formula("")


@pytest.mark.parametrize("text, message", [
    ("(p", "expected ')', found end of input (line 1, column 3)"),
    ("p &", "expected a formula, found end of input (line 1, column 4)"),
    ("", "expected a formula, found end of input (line 1, column 1)"),
    ("(p q", "expected ')', found 'q' (line 1, column 4)"),
    ("p <A> q", "trailing input '<A>' (line 1, column 3)"),
    ("p [iB] q", "trailing input '[iB]' (line 1, column 3)"),
    ("p )", "trailing input ')' (line 1, column 3)"),
])
def test_error_messages_name_the_token(text, message):
    with pytest.raises(ParseError) as e:
        parse_formula(text)
    assert str(e.value) == message


def test_fragments():
    assert parse_fragment("B iB") == Fragment.of(B, iB)
    assert parse_fragment("iA A") == Fragment.of(A, iA)
    with pytest.raises(ParseError):
        parse_fragment("B X")
    with pytest.raises(ParseError):
        parse_fragment("")


def test_encoder_namespace_reparses():
    phi = parse_formula("<A> (__conf & ~__sb)")
    assert phi == dia(A, And(Atom("__conf"), Not(Atom("__sb"))))


@pytest.mark.parametrize("make", [
    lambda n: "~" * n + "p",
    lambda n: "<B> " * n + "p",
    lambda n: "(" * n + "p" + ")" * n,
    lambda n: "p" + " & q" * n,
    lambda n: "p" + " -> q" * n,
    lambda n: "[iL] (" * n + "p" + ")" * n,
])
def test_nesting_cap(make):
    # make(n) is formula text nested n levels deep
    phi = parse_formula(make(MAX_NESTING))
    assert nesting_depth(phi) <= MAX_NESTING
    # every recursive function over formulas handles the cap
    assert parse_formula(render(phi)) is phi
    assert mirror_formula(mirror_formula(phi)) is phi
    assert closure(phi)
    assert desugar(phi) is not None
    assert postorder(phi)[-1] is phi
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_formula(make(MAX_NESTING + 1))


def test_very_deep_input_is_a_parse_error():
    for text in ("~" * 2000 + "p", "(" * 3000 + "p" + ")" * 3000,
                 " & ".join(["p"] * 5000)):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_formula(text)
