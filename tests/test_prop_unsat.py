"""The pre-check of sat_bbll, which refutes a formula before any periodic
candidate is built. Its skeleton layer reads atoms and diamonds as opaque
letters and a box [M] s as ~<M> neg(s), and refutes a formula false under
every assignment to them; its K step goes on from <M> a to a with every box
[M] b beside it and its b."""

import itertools
import random

import pytest

from hslogic import sat
from hslogic.parser import parse_formula
from hslogic.sat import Unsat, _prop_unsat, sat_bbll
from hslogic.syntax import (
    A, And, Atom, B, Box, Diamond, FALSE, Implies, Not, Or, TRUE, conj, neg,
)

PROPOSITIONAL = Unsat("propositional refutation")
MODAL = Unsat("modal refutation")

REFUTED = [
    "p & ~p",
    "(p | q) & ~p & ~q",
    "<B> p & ~<B> p",
    "(true -> <iB> p) & ~<iB> p",
    # a box is the negation of its twin diamond
    "<B> p & [B] ~p",
    "<iB> (p & q) & [iB] ~(p & q)",
    "<B> ~p & [B] ~~p",
]


@pytest.mark.parametrize("text", REFUTED)
def test_propositional_refutations(text):
    phi = parse_formula(text)
    assert _prop_unsat(phi) == PROPOSITIONAL
    assert sat_bbll(phi) == PROPOSITIONAL


MODAL_REFUTED = [
    # the first three cost the periodic search alone seconds to minutes
    "<B> (p & <L> q) & [B] [L] ~q",
    "<L> <iB> p & [L] [iB] ~p",
    "<B> (p & <B> q) & [B] ~q",
    "<iB> (p & ~p)",
    "~[L] (p | ~p)",
    "<B> <B> p & [B] [B] ~p",
    # the carried box: B is transitive
    "<B> <B> p & [B] ~p",
    "<iL> (q & <iL> <iL> p) & ~<iL> p",
]


@pytest.mark.parametrize("text", MODAL_REFUTED)
def test_modal_refutations(text):
    phi = parse_formula(text)
    assert _prop_unsat(phi) == MODAL
    assert sat_bbll(phi) == MODAL


NOT_REFUTED = [
    # B is well-founded, and iB and L always have a successor: K4 knows
    # neither, so these are left to the periodic search
    "<B> p & [B] (p -> <B> p)",
    "[L] false",
    "[iB] p & [iB] ~p",
    # satisfiable: the boxes and the diamond are of different modalities
    "<B> p & [L] ~p",
    "<B> <L> p & [L] ~p",
]


@pytest.mark.parametrize("text", NOT_REFUTED)
def test_what_the_pre_check_leaves_to_the_search(text):
    assert _prop_unsat(parse_formula(text)) is None


def test_no_step_through_a_modality_that_is_not_transitive():
    # A (meets) is not transitive: <A> <A> p & [A] ~p is satisfiable
    p = Atom("p")
    assert _prop_unsat(And(Diamond(A, Diamond(A, p)),
                           Box(A, Not(p)))) is None
    # the skeleton layer reads twins of every modality
    assert _prop_unsat(And(Diamond(A, p), Box(A, Not(p)))) == PROPOSITIONAL


def _chain(n, inner):
    f = inner
    for _ in range(n):
        f = Diamond(B, f)
    return f


def test_deep_chains_are_walked_without_recursion():
    p, q = Atom("p"), Atom("q")
    # 3000 nested <B> beside [B] q: one set per level, cut by the cap
    assert _prop_unsat(And(_chain(3000, p), Box(B, q))) is None
    # a contradiction 200 steps down is found
    assert _prop_unsat(And(_chain(200, And(p, Not(q))), Box(B, q))) == MODAL


def test_the_walk_visits_at_most_the_capped_number_of_sets(monkeypatch):
    # the box set a successor carries grows by one [B] ci per step, in any
    # order, so 2^14 sets are reachable
    n = 14
    g = conj([Diamond(B, Box(B, Atom("c%d" % i))) for i in range(n)])
    phi = And(Diamond(B, TRUE), Box(B, g))
    calls = []
    check = sat._skeleton_unsat

    def counting(members):
        calls.append(members)
        return check(members)

    monkeypatch.setattr(sat, "_skeleton_unsat", counting)
    assert _prop_unsat(phi) is None
    assert len(calls) == sat._WALK_SETS
    assert len({frozenset(c) for c in calls}) == len(calls)


def _all_true_but_one(n):
    letters = [Atom("p%d" % i) for i in range(n)]
    return And(conj(letters), Not(letters[0]))


def test_twelve_letters_are_refuted():
    phi = _all_true_but_one(12)
    assert _prop_unsat(phi) == PROPOSITIONAL
    assert sat_bbll(phi) == PROPOSITIONAL


def test_thirteen_letters_fall_through_to_the_periodic_search():
    phi = _all_true_but_one(13)
    assert _prop_unsat(phi) is None
    assert sat_bbll(phi) == Unsat("no model within the periodic bound")


def test_the_letter_cap_holds_per_set():
    # the successor of <B> phi has phi's 13 letters and is not checked, but
    # a small successor beside 13 letters is
    phi = _all_true_but_one(13)
    assert _prop_unsat(Diamond(B, phi)) is None
    assert _prop_unsat(And(phi, Diamond(B, _all_true_but_one(3)))) == MODAL


def test_satisfiable_skeletons_are_not_refuted():
    for text in ("p | ~p", "<B> p & ~[B] p", "<L> p -> false", "true"):
        assert _prop_unsat(parse_formula(text)) is None


# Letters of the differential below: atoms and modal nodes, which the
# skeleton layer never looks inside. [L] q is ~<L> ~q and [iB] ~p is
# ~<iB> p, so "<L> ~q" and "<iB> p" meet them as twins; "[iL] ~p" beside
# "<iL> (p & q)" is for the K step.
OPAQUE = [parse_formula(t) for t in
          ("p", "q", "<B> p", "[L] q", "<iL> (p & q)", "[iB] ~p", "<iB> p",
           "<L> ~q", "[iL] ~p")]


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
    """Reference: collect the opaque letters, a box by its twin diamond,
    then evaluate the skeleton under every assignment."""
    letters = []

    def twin(f):
        return Diamond(f.mod, neg(f.sub))

    def collect(f):
        if isinstance(f, Box):
            collect(twin(f))
        elif isinstance(f, (Atom, Diamond)):
            if f not in letters:
                letters.append(f)
        elif isinstance(f, Not):
            collect(f.sub)
        elif isinstance(f, (And, Or, Implies)):
            collect(f.lhs)
            collect(f.rhs)

    def ev(f, env):
        if isinstance(f, Box):
            return not env[twin(f)]
        if isinstance(f, (Atom, Diamond)):
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
        got = _prop_unsat(phi)
        # exact on the skeleton layer; the K step may refute more
        assert (got == PROPOSITIONAL) == expected, phi
        assert got in (None, PROPOSITIONAL, MODAL)
        verdicts.add((expected, got))
    assert verdicts >= {(False, None), (True, PROPOSITIONAL),
                        (False, MODAL)}
