"""The pre-check of sat_bbll, which refutes a formula before any periodic
candidate is built. It is a signed tableau: it reads atoms and diamonds as
opaque letters and a box [M] s as ~<M> neg(s), adds the parts of each
conjunction, splits a node on each disjunction and implication, and closes
a branch where a letter occurs both ways, so that it refutes exactly the
formulas false under every assignment to their letters. Its K step goes on
from <M> a to a with every box [M] b beside it and its b."""

import itertools
import random

import pytest

from hslogic import sat
from hslogic.parser import parse_formula
from hslogic.sat import Unsat, _prop_unsat, sat_bbll
from hslogic.syntax import (
    A, And, Atom, B, Box, Diamond, FALSE, Implies, Not, Or, TRUE, conj, iB,
    iL, L, neg,
)

from .gen import rand_formula

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
    # a diamond under | or ->: each branch closes after one K step. The
    # first takes the periodic search seconds
    "(<L> (p & q) | <B> (q & p)) & [L] ~q & [B] ~p",
    "(<L> (p & q) | <iL> (p & q)) & [L] ~q & [iL] ~q",
    "(<B> (p & q) | <iB> (p & q)) & [B] ~p & [iB] ~p",
    "<B> ((p -> p) -> <iB> false)",
    # a disjunction whose first part is already a member of the successor
    # is satisfied, not split into a branch that is the successor again
    "<B> ((q & <B> <B> p) | r) & [B] (q & <B> <B> p) & [B] ~p",
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


@pytest.mark.parametrize("nest", ["right", "left"])
def test_deep_disjunctions_beside_a_false_part_are_refuted(nest):
    # ~p & (p | (p | ... p)): each disjunction has a false part and forces
    # the other, so the node never splits
    p = Atom("p")
    f = p
    for _ in range(3000):
        f = Or(p, f) if nest == "right" else Or(f, p)
    assert _prop_unsat(And(Not(p), f)) == PROPOSITIONAL


def test_the_walk_visits_at_most_the_capped_number_of_sets(monkeypatch):
    calls = []
    expand = sat._expand

    def counting(members):
        calls.append(frozenset(members))
        return expand(members)

    monkeypatch.setattr(sat, "_expand", counting)
    # the box set a successor carries grows by one [B] ci per step, in any
    # order, so 2^14 successors are reachable
    n = 14
    g = conj([Diamond(B, Box(B, Atom("c%d" % i))) for i in range(n)])
    assert _prop_unsat(And(Diamond(B, TRUE), Box(B, g))) is None
    # every node is expanded once, the root too
    assert len(calls) == sat._WALK_SETS
    assert len(set(calls)) == len(calls)
    # branches count too: 2^10 leaves, each refuted by the same K step,
    # are more than the cap, so this contradiction is left to the search
    calls.clear()
    splits = conj([Or(Atom("a%d" % i), Atom("b%d" % i)) for i in range(10)])
    phi = And(splits, parse_formula("<B> <B> p & [B] ~p"))
    assert _prop_unsat(phi) is None
    assert len(calls) == sat._WALK_SETS
    assert len(set(calls)) == len(calls)


def _all_true_but_one(n):
    letters = [Atom("p%d" % i) for i in range(n)]
    return And(conj(letters), Not(letters[0]))


def test_twelve_letters_are_refuted():
    phi = _all_true_but_one(12)
    assert _prop_unsat(phi) == PROPOSITIONAL
    assert sat_bbll(phi) == PROPOSITIONAL


def test_thirteen_letters_are_refuted(monkeypatch):
    # no letter cap: the pair closes the set however many letters it has,
    # and with the periodic bound 0 the answer is Unsat, not Unknown
    phi = _all_true_but_one(13)
    monkeypatch.setattr(sat, "_Encoder", None)
    assert _prop_unsat(phi) == PROPOSITIONAL
    assert sat_bbll(phi) == PROPOSITIONAL
    assert sat_bbll(phi, max_bound=0) == PROPOSITIONAL


def test_a_successor_of_thirteen_letters_is_refuted():
    # every visited set is read whole: a successor with 13 letters, and a
    # small refuted successor beside 13 letters at the root
    assert _prop_unsat(Diamond(B, _all_true_but_one(13))) == MODAL
    many = conj([Atom("q%d" % i) for i in range(13)])
    assert _prop_unsat(And(many, Diamond(B, _all_true_but_one(3)))) == MODAL


def test_modal_letters_past_twelve_are_refuted():
    # diamonds are letters as atoms are, and a box pair among 12 diamonds
    # (14 letters) or a letter pair among 13 closes the set
    p = Atom("p")
    lits = [Diamond(B, Atom("a%d" % i)) for i in range(12)]
    assert _prop_unsat(conj(lits + [Box(L, p), Not(Box(L, p))])) \
        == PROPOSITIONAL
    lits.append(Diamond(iB, Atom("b")))
    assert _prop_unsat(conj(lits + [p, Not(p)])) == PROPOSITIONAL


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


def _twin(f):
    return Diamond(f.mod, neg(f.sub))


def _skeleton_letters(phi):
    """The opaque letters of phi in the order met, a box by its twin
    diamond."""
    letters = []

    def collect(f):
        if isinstance(f, Box):
            collect(_twin(f))
        elif isinstance(f, (Atom, Diamond)):
            if f not in letters:
                letters.append(f)
        elif isinstance(f, Not):
            collect(f.sub)
        elif isinstance(f, (And, Or, Implies)):
            collect(f.lhs)
            collect(f.rhs)

    collect(phi)
    return letters


def _truth_table_unsat(phi):
    """Reference: collect the opaque letters, a box by its twin diamond,
    then evaluate the skeleton under every assignment."""

    def ev(f, env):
        if isinstance(f, Box):
            return not env[_twin(f)]
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

    letters = _skeleton_letters(phi)
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


# A set of literals, each an atom, a diamond or a box, possibly under one ~,
# is false under every assignment exactly when a skeleton letter occurs both
# ways, however many letters it has.

def _literal_signs(members):
    """None unless every top-level conjunct of the set is a literal, else
    the signs each letter occurs with, a box read through its twin
    diamond."""
    signs = {}
    todo = list(members)
    while todo:
        f = todo.pop()
        if isinstance(f, And):
            todo += [f.lhs, f.rhs]
            continue
        sign = not isinstance(f, Not)
        g = f if sign else f.sub
        if isinstance(g, Box):
            g, sign = Diamond(g.mod, neg(g.sub)), not sign
        if not isinstance(g, (Atom, Diamond)):
            return None
        signs.setdefault(g, set()).add(sign)
    return signs


def _clash(signs):
    return any(len(s) == 2 for s in signs.values())


BBLL = (B, iB, L, iL)


def _rand_literal(rng, atoms):
    if rng.random() < 0.4:
        f = Atom(rng.choice(atoms))
    else:
        # few operands, so that twins and complements meet often
        s = rand_formula(rng, ("p", "q"), BBLL, rng.randrange(2))
        cls = Diamond if rng.random() < 0.5 else Box
        f = cls(rng.choice(BBLL[:2]), s if rng.random() < 0.6 else neg(s))
    return Not(f) if rng.random() < 0.4 else f


def _rand_set(rng):
    """A set of the walk: mostly literals, with the contradiction shape
    <M> s & [M] ~s, sometimes over 16 atoms and more, sometimes with a
    conjunct that is no literal."""
    atoms = ["a%d" % i for i in range(rng.choice((3, 8, 16)))]
    members = [_rand_literal(rng, atoms) for _ in range(rng.randrange(1, 6))]
    if rng.random() < 0.3:
        m = rng.choice(BBLL)
        s = rand_formula(rng, ("p", "q"), BBLL, 2)
        members.append(And(Diamond(m, s), Box(m, neg(s))))
    if rng.random() < 0.3:
        # every letter a conjunct, and one of them both ways
        members.append(conj(Atom(a) for a in atoms))
        members.append(Not(Atom(rng.choice(atoms))))
    if rng.random() < 0.15:
        members.append(rand_formula(rng, ("p", "q"), BBLL, 3))
    rng.shuffle(members)
    return tuple(members)


def test_the_literal_rule_agrees_with_the_truth_table():
    rng = random.Random(3007)
    seen = set()
    for _ in range(3000):
        members = _rand_set(rng)
        phi = conj(members)
        signs = _literal_signs(members)
        if signs is not None:
            expected = _clash(signs)
            if len(signs) <= 8:
                assert _truth_table_unsat(phi) is expected, members
            case = ("pair" if expected else "no pair", len(signs) > 12)
        elif len(_skeleton_letters(phi)) <= 12:
            expected = _truth_table_unsat(phi)
            case = ("other", expected)
        else:
            continue
        got = _prop_unsat(phi)
        assert (got == PROPOSITIONAL) == expected, members
        seen.add(case)
    # pairs among more than 12 letters and fewer, and sets with other
    # conjuncts both ways
    assert seen == {("pair", False), ("pair", True), ("no pair", False),
                    ("other", True), ("other", False)}


def _atoms_and_a_pair(n):
    """a0 & ... & a(n-1) & p & ~p: n + 1 letters."""
    p = Atom("p")
    return conj([Atom("a%d" % i) for i in range(n)] + [p, Not(p)])


@pytest.mark.parametrize("n", [9, 12, 3000])
def test_a_complementary_pair_refutes_any_number_of_letters(n):
    phi = _atoms_and_a_pair(n)
    assert _prop_unsat(phi) == PROPOSITIONAL
    assert _prop_unsat(And(phi, Diamond(iB, Atom("b")))) == PROPOSITIONAL


POLARITY = [
    # a box is the negation of its twin diamond, and ~ flips either
    ("[B] p & ~[B] p", PROPOSITIONAL),
    ("[B] p & <B> ~p", PROPOSITIONAL),
    ("[iB] ~p & <iB> p", PROPOSITIONAL),
    ("~<B> p & <B> p", PROPOSITIONAL),
    ("~[B] p & ~<B> ~p", PROPOSITIONAL),
    ("~<L> q & ~[L] ~q", PROPOSITIONAL),
    ("[iL] ~~q & <iL> ~q", PROPOSITIONAL),
    # the same letter with the same sign twice
    ("~[B] p & <B> ~p", None),
    ("[B] p & ~<B> ~p", None),
    ("~[iL] ~q & <iL> q", None),
    ("[L] ~q & ~<L> q", None),
]


@pytest.mark.parametrize("text, expected", POLARITY)
def test_literals_keep_their_polarity(text, expected):
    phi = parse_formula(text)
    assert _prop_unsat(phi) == expected
    assert _truth_table_unsat(phi) is (expected is not None)


CONNECTIVES = [
    ("~~p & ~p", PROPOSITIONAL),
    ("false & p", PROPOSITIONAL),
    ("p & ~true", PROPOSITIONAL),
    ("~~p & p", None),
    ("(p | q) & ~p", None),
    ("(p -> q) & p & ~q", PROPOSITIONAL),
    # every branch closes, and a false part forces the other along a chain
    ("(p | q) & (p | ~q) & (~p | q) & (~p | ~q)", PROPOSITIONAL),
    ("~(p & q) & p & q", PROPOSITIONAL),
    ("(p -> q) & (q -> r) & (r -> s) & p & ~s", PROPOSITIONAL),
    ("(p | q) & (p -> <B> r) & (q -> r) & ~r", None),
]


@pytest.mark.parametrize("text, expected", CONNECTIVES)
def test_connectives_are_read_by_the_tableau(text, expected):
    phi = parse_formula(text)
    assert _prop_unsat(phi) == expected
    assert _truth_table_unsat(phi) is (expected is not None)
