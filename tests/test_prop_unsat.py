"""The propositional pre-check of sat_bbll: atoms, diamonds and boxes are
opaque letters, and a formula false under every assignment to them is
refuted before any periodic candidate is built."""

import itertools
import random

import pytest

from hslogic.parser import parse_formula
from hslogic.sat import Unsat, _prop_unsat, sat_bbll
from hslogic.syntax import (
    And, Atom, Box, Diamond, FALSE, Implies, Not, Or, TRUE, conj,
)

REFUTED = [
    "p & ~p",
    "(p | q) & ~p & ~q",
    "<B> p & ~<B> p",
    "(true -> <iB> p) & ~<iB> p",
]


@pytest.mark.parametrize("text", REFUTED)
def test_propositional_refutations(text):
    phi = parse_formula(text)
    assert _prop_unsat(phi)
    assert sat_bbll(phi) == Unsat("propositional refutation")


def _all_true_but_one(n):
    letters = [Atom("p%d" % i) for i in range(n)]
    return And(conj(letters), Not(letters[0]))


def test_twelve_letters_are_refuted():
    phi = _all_true_but_one(12)
    assert _prop_unsat(phi)
    assert sat_bbll(phi) == Unsat("propositional refutation")


def test_thirteen_letters_fall_through_to_the_periodic_search():
    phi = _all_true_but_one(13)
    assert not _prop_unsat(phi)
    assert sat_bbll(phi) == Unsat("no model within the periodic bound")


def test_satisfiable_skeletons_are_not_refuted():
    for text in ("p | ~p", "<B> p & ~[B] p", "<L> p -> false", "true"):
        assert not _prop_unsat(parse_formula(text))


# Opaque letters of the differential below: atoms and modal nodes, which
# the pre-check never looks inside.
OPAQUE = [parse_formula(t) for t in
          ("p", "q", "<B> p", "[L] q", "<iL> (p & q)", "[iB] ~p")]


def _rand_skeleton(rng, letters, depth):
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.1:
            return TRUE if rng.random() < 0.5 else FALSE
        return rng.choice(letters)
    k = rng.randrange(4)
    if k == 0:
        return Not(_rand_skeleton(rng, letters, depth - 1))
    cls = (And, Or, Implies)[k - 1]
    return cls(_rand_skeleton(rng, letters, depth - 1),
               _rand_skeleton(rng, letters, depth - 1))


def _truth_table_unsat(phi):
    """Reference: collect the opaque letters, then evaluate the skeleton
    under every assignment."""
    letters = []

    def collect(f):
        if isinstance(f, (Atom, Diamond, Box)):
            if f not in letters:
                letters.append(f)
        elif isinstance(f, Not):
            collect(f.sub)
        elif isinstance(f, (And, Or, Implies)):
            collect(f.lhs)
            collect(f.rhs)

    def ev(f, env):
        if isinstance(f, (Atom, Diamond, Box)):
            return env[f]
        if f is TRUE:
            return True
        if f is FALSE:
            return False
        if isinstance(f, Not):
            return not ev(f.sub, env)
        a, b = ev(f.lhs, env), ev(f.rhs, env)
        if isinstance(f, And):
            return a and b
        if isinstance(f, Or):
            return a or b
        return (not a) or b

    collect(phi)
    return not any(ev(phi, dict(zip(letters, bits)))
                   for bits in itertools.product((False, True),
                                                 repeat=len(letters)))


def test_prop_unsat_matches_a_truth_table():
    rng = random.Random(601)
    verdicts = set()
    for _ in range(1500):
        letters = rng.sample(OPAQUE, rng.randrange(1, len(OPAQUE) + 1))
        phi = _rand_skeleton(rng, letters, rng.randrange(1, 6))
        expected = _truth_table_unsat(phi)
        assert _prop_unsat(phi) == expected, phi
        verdicts.add(expected)
    assert verdicts == {False, True}
