"""Fragment enumeration, decidability labels, definability order."""

import random

from hslogic import sat
from hslogic.atlas import (
    _CLOSURE_RULES, DECIDABLE_NONPR, UNDECIDABLE, Countermodel,
    NoCountermodel, check_equation, cited_equations, classify,
    definable_closure, enumerate_fragments, fragment_leq, hasse_dot,
)
from hslogic.checking import _COMPOSED, mc_finite
from hslogic.syntax import (
    A, iA, B, iB, D, iD, E, iE, L, iL, O, iO, Atom, Fragment, dia, iff,
    mirror_fragment,
)

p = Atom("p")


def test_enumeration_count_and_uniqueness():
    frags = enumerate_fragments()
    assert len(frags) == 62
    closures = {frozenset(definable_closure(f)) for f in frags}
    assert len(closures) == 62


def test_decidable_counts():
    frags = enumerate_fragments()
    sd = [f for f in frags if classify(f, "sd") != UNDECIDABLE]
    nat = [f for f in frags if classify(f, "nat") != UNDECIDABLE]
    assert len(sd) == 44
    assert len(nat) == 47
    only_nat = {f.name for f in frags
                if classify(f, "sd") == UNDECIDABLE
                and classify(f, "nat") != UNDECIDABLE}
    assert only_nat == {"iA B", "iA iB", "iA B iB"}
    for name in only_nat:
        f = next(x for x in frags if x.name == name)
        assert classify(f, "nat") == DECIDABLE_NONPR


def test_classify_mirror_invariant_over_sd_only():
    frags = enumerate_fragments()
    for f in frags:
        assert classify(f, "sd") == classify(mirror_fragment(f), "sd")
    broken = Fragment.of(iA, B)
    assert classify(broken, "nat") != \
        classify(mirror_fragment(broken), "nat")


def test_classify_rule_priorities():
    assert classify(Fragment.of(D)) == UNDECIDABLE
    assert classify(Fragment.of(O, A)) == UNDECIDABLE
    assert classify(Fragment.of(B, E)) == UNDECIDABLE
    assert classify(Fragment.of(A, E)) == UNDECIDABLE
    assert classify(Fragment.of(A, B)) == "EXPSPACEComplete"
    assert classify(Fragment.of(iA, iE)) == "EXPSPACEComplete"
    assert classify(Fragment.of(A)) == "NEXPTIMEComplete"
    assert classify(Fragment.of(B, iB, L, iL)) == "NPComplete"


def test_closure_rules():
    assert L in definable_closure(Fragment.of(A))
    assert iL in definable_closure(Fragment.of(iA))
    assert D in definable_closure(Fragment.of(B, E))
    assert iO in definable_closure(Fragment.of(B, iE))
    assert O in definable_closure(Fragment.of(E, iB))
    assert iD in definable_closure(Fragment.of(iB, iE))
    assert D not in definable_closure(Fragment.of(B))


def test_fragment_leq_preorder_and_monotone():
    frags = enumerate_fragments()
    rng = random.Random(701)
    sample = rng.sample(frags, 12)
    for f in sample:
        assert fragment_leq(f, f)
    for _ in range(60):
        f1, f2, f3 = rng.choice(frags), rng.choice(frags), rng.choice(frags)
        if fragment_leq(f1, f2) and fragment_leq(f2, f3):
            assert fragment_leq(f1, f3)
        if set(f1) <= set(f2):
            assert fragment_leq(f1, f2)


def test_hasse_dot_deterministic_and_well_formed():
    d1 = hasse_dot()
    d2 = hasse_dot()
    assert d1 == d2
    assert d1.startswith("digraph")
    frags = enumerate_fragments()
    closures = {f.name: frozenset(definable_closure(f)) for f in frags}
    for line in d1.splitlines():
        if "->" not in line:
            continue
        lhs, rhs = line.strip().rstrip(";").split(" -> ")
        a, b = lhs.strip('"'), rhs.strip('"')
        assert closures[b] < closures[a], line
    labeled = hasse_dot("nat")
    assert "DecidableNonPrimitiveRecursive" in labeled


def test_cited_equations_hold_on_small_orders():
    for name, lhs, rhs in cited_equations():
        res = check_equation(lhs, rhs, max_points=4)
        assert isinstance(res, NoCountermodel), name


def test_composed_diamonds_are_the_cited_equations():
    """The grid engine composes each of six diamonds from the premise of the
    closure rule that yields it, which is the pair of diamonds on the
    right-hand side of its cited equation, and in that side's order:
    _COMPOSED[M] is (inner, outer) for <M> p == <outer> <inner> p."""
    rules = {gain.name: {m.name for m in need} for need, gain in _CLOSURE_RULES}
    rhs = {lhs.mod.name: (rhs.sub.mod.name, rhs.mod.name)
           for _, lhs, rhs in cited_equations()}
    assert set(_COMPOSED) == set(rules) == set(rhs)
    for name, pair in _COMPOSED.items():
        assert pair == rhs[name], name
        assert set(pair) == rules[name], name


def test_cited_equations_fold_with_no_solver(monkeypatch):
    """Both sides of a cited equation make the same gates, so the negation
    of their equivalence folds to false at every size: check_equation
    answers each of the six with no solver run."""
    solves = []
    monkeypatch.setattr(sat._Cnf, "solve",
                        lambda cnf: solves.append(cnf) or None)
    for name, lhs, rhs in cited_equations():
        assert isinstance(check_equation(lhs, rhs), NoCountermodel), name
        assert solves == [], name
    # the counter sees a solve: an equation that does not hold reaches one
    check_equation(dia(L, p), dia(B, p), max_points=2)
    assert solves


def test_false_equation_has_countermodel():
    res = check_equation(dia(L, p), dia(B, p), max_points=4)
    assert isinstance(res, Countermodel)
    assert not mc_finite(res.model, res.witness,
                         iff(dia(L, p), dia(B, p)))
