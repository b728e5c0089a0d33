"""fold and the walks written on it: each against a recursive reference
copy, at depths no recursion reaches, and on input that is no formula."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings

from hslogic.parser import parse_formula
from hslogic.sat import Unsat, _prop_unsat
from hslogic.syntax import (
    And, Atom, B, Box, Diamond, FALSE, Formula, Implies, Not, Or, TRUE,
    ast_size, closure, conj, desugar, fold, fragment_of, letters_of, metrics,
    mirror_formula, neg, postorder, render, subformulas,
)

from .gen import all_mods, rand_formula
from .test_interning import build, trees
from .test_prop_unsat import _truth_table_unsat


# Recursive references: the walks as they were written before fold.

def ref_render(phi, min_prec=0):
    if isinstance(phi, Atom):
        return phi.name
    if phi is TRUE:
        return "true"
    if phi is FALSE:
        return "false"
    if isinstance(phi, Not):
        s, prec = "~" + ref_render(phi.sub, 4), 4
    elif isinstance(phi, Diamond):
        s, prec = "<%s> %s" % (phi.mod.name, ref_render(phi.sub, 4)), 4
    elif isinstance(phi, Box):
        s, prec = "[%s] %s" % (phi.mod.name, ref_render(phi.sub, 4)), 4
    elif isinstance(phi, And):
        s, prec = "%s & %s" % (ref_render(phi.lhs, 3),
                               ref_render(phi.rhs, 4)), 3
    elif isinstance(phi, Or):
        s, prec = "%s | %s" % (ref_render(phi.lhs, 2),
                               ref_render(phi.rhs, 3)), 2
    else:
        s, prec = "%s -> %s" % (ref_render(phi.lhs, 2),
                                ref_render(phi.rhs, 1)), 1
    return "(" + s + ")" if prec < min_prec else s


def ref_desugar(phi):
    t = Atom("__t")
    if isinstance(phi, Atom):
        return phi
    if phi is TRUE:
        return Or(t, Not(t))
    if phi is FALSE:
        return Not(Or(t, Not(t)))
    if isinstance(phi, Not):
        return Not(ref_desugar(phi.sub))
    if isinstance(phi, Implies):
        return Or(Not(ref_desugar(phi.lhs)), ref_desugar(phi.rhs))
    if isinstance(phi, (And, Or)):
        return type(phi)(ref_desugar(phi.lhs), ref_desugar(phi.rhs))
    return type(phi)(phi.mod, ref_desugar(phi.sub))


def ref_mirror(phi):
    if isinstance(phi, Not):
        return Not(ref_mirror(phi.sub))
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(ref_mirror(phi.lhs), ref_mirror(phi.rhs))
    if isinstance(phi, (Diamond, Box)):
        return type(phi)(phi.mod.mirror(), ref_mirror(phi.sub))
    return phi


def ref_ast_size(phi):
    if isinstance(phi, (Not, Diamond, Box)):
        return 1 + ref_ast_size(phi.sub)
    if isinstance(phi, (And, Or, Implies)):
        return 1 + ref_ast_size(phi.lhs) + ref_ast_size(phi.rhs)
    return 1


def ref_repr(phi):
    return "%s(%s)" % (type(phi).__name__, ", ".join(
        "%s=%s" % (n, ref_repr(v) if isinstance(v, Formula) else repr(v))
        for n, v in ((n, getattr(phi, n)) for n in phi._fields)))


def ref_closure(phi):
    subs = subformulas(ref_desugar(phi))
    return subs | {neg(f) for f in subs}


@settings(max_examples=300, deadline=None)
@given(trees)
def test_walks_match_their_recursive_references(tree):
    f = build(tree)
    assert render(f) == ref_render(f)
    assert desugar(f) is ref_desugar(f)
    assert mirror_formula(f) is ref_mirror(f)
    assert ast_size(f) == ref_ast_size(f)
    assert repr(f) == ref_repr(f)
    assert closure(f) == ref_closure(f)
    assert letters_of(f) == {g.name for g in subformulas(ref_desugar(f))
                             if isinstance(g, Atom)}
    m = metrics(f)
    assert (m.length, m.closure_size) == (ref_ast_size(f),
                                          len(ref_closure(f)))
    # the skeleton layer of the pre-check; the K step may refute more
    refuted = _prop_unsat(f)
    assert (refuted == Unsat("propositional refutation")) == \
        _truth_table_unsat(f)
    assert refuted in (None, Unsat("propositional refutation"),
                       Unsat("modal refutation"))


def test_desugar_returns_a_sugar_free_formula_itself():
    rng = random.Random(3011)
    kept = 0
    for _ in range(600):
        f = rand_formula(rng, ("p", "q"), all_mods(), rng.randrange(1, 5))
        assert desugar(f) is ref_desugar(f)
        if not any(isinstance(g, (Implies, type(TRUE), type(FALSE)))
                   for g in postorder(f)):
            assert desugar(f) is f
            kept += 1
    assert 100 < kept < 500


@settings(max_examples=100, deadline=None)
@given(trees)
def test_fold_visits_each_node_once_children_first(tree):
    f = build(tree)
    seen = []

    def case(g, args):
        seen.append(g)
        assert args == tuple(getattr(g, n) for n in g._operands)
        return g

    assert fold(f, case) is f
    assert seen == postorder(f)


def test_fold_shares_results_between_equal_operands():
    p = Atom("p")
    calls = []
    fold(And(Not(p), Not(p)), lambda g, args: calls.append(g))
    assert calls == [p, Not(p), And(Not(p), Not(p))]


N = 3000
WIDE = conj([Atom("p%d" % i) for i in range(N)])


def _deep():
    f = Atom("p")
    for _ in range(N):
        f = Not(Diamond(B, f))
    return f


DEEP = _deep()


def _round_trips(f):
    """Pickling, copying and parsing the rendered text hand back f."""
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert parse_formula(render(f)) is f


def test_walks_take_a_wide_conjunction():
    assert render(WIDE) == " & ".join("p%d" % i for i in range(N))
    assert desugar(WIDE) is WIDE
    assert mirror_formula(WIDE) is WIDE
    assert ast_size(WIDE) == 2 * N - 1
    assert letters_of(WIDE) == {"p%d" % i for i in range(N)}
    assert len(closure(WIDE)) == 2 * (2 * N - 1)
    m = metrics(WIDE)
    assert (m.length, m.m_b, m.r_size) == (2 * N - 1, 0, 0)
    assert repr(WIDE).startswith("And(lhs=And(lhs=And(")
    # satisfiable however many letters it has, refuted with a pair
    assert _prop_unsat(WIDE) is None
    assert _prop_unsat(And(conj([Atom("p")] * N), Not(Atom("p"))))
    _round_trips(WIDE)


def test_walks_take_deep_nesting():
    assert render(DEEP) == "~<B> " * N + "p"
    assert desugar(DEEP) is DEEP
    assert render(mirror_formula(DEEP)) == "~<E> " * N + "p"
    assert mirror_formula(mirror_formula(DEEP)) is DEEP
    assert ast_size(DEEP) == 2 * N + 1
    assert letters_of(DEEP) == {"p"}
    # every node but the atom has its designated negation in the formula
    assert len(closure(DEEP)) == 2 * N + 2
    m = metrics(DEEP)
    assert (m.length, m.m_b, m.r_size) == (2 * N + 1, N, 0)
    assert repr(DEEP).startswith(
        "Not(sub=Diamond(mod=Modality(B), sub=Not(sub=Diamond(")
    assert repr(DEEP).endswith("Atom(name='p')" + "))" * N)
    assert _prop_unsat(DEEP) is None
    assert _prop_unsat(And(DEEP, DEEP.sub))
    _round_trips(DEEP)


WALKS = [render, desugar, mirror_formula, ast_size, closure, letters_of,
         metrics, fragment_of, _prop_unsat,
         lambda phi: fold(phi, lambda f, args: 0)]


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("bad", [None, 5])
def test_walks_reject_what_is_no_formula(walk, bad):
    with pytest.raises(TypeError, match="not a formula"):
        walk(bad)
