"""sat_bbll's candidate schedule against the full ordered search it
replaces: same verdicts, reasons and certificates, from fewer candidates.
The pre-check is held to the same search without it: what it refutes, the
search never finds satisfiable."""

import pytest
from hypothesis import given, settings, strategies as st

from hslogic import sat
from hslogic.models import PeriodicDomain, save_model
from hslogic.parser import parse_formula
from hslogic.sat import Sat, Unknown, Unsat, sat_bbll
from hslogic.syntax import (
    And, B, Box, Diamond, iB, L, iL, letters_of, metrics,
)

from .test_interning import build


def ordered_sat_bbll(phi, max_bound, precheck=True):
    """Reference: refute every split (pre, per) with pre + per <= bound,
    by total and then by prefix, and certify the first satisfiable one.
    With precheck, sat_bbll's pre-check answers first, as it does there."""
    if precheck:
        refuted = sat._prop_unsat(phi)
        if refuted is not None:
            return refuted
    own_bound = metrics(phi).periodic_bound
    bound = own_bound if max_bound is None else max_bound
    goal = sat.later_somewhere(phi)
    letters = sorted(letters_of(phi))
    for total in range(2, bound + 1):
        for pre in range(1, total):
            per = total - pre
            enc = sat._Encoder(PeriodicDomain(pre, per), letters,
                               sat.postorder(goal))
            tables = enc.tables([phi])
            enc.cnf.clauses.append([tables[goal][(0, 1)]])
            solver = enc.cnf.solve()
            if solver is not None:
                return enc.certificate(solver, tables[phi].items(), phi)
    if max_bound is not None and max_bound < own_bound:
        return Unknown("search truncated below the periodic bound")
    return Unsat("no model within the periodic bound")


def _outcome(res):
    if isinstance(res, Sat):
        return ("Sat", save_model(res.model), res.witness)
    return (type(res).__name__, res.reason)


_bbll_mods = st.sampled_from([(m.base, m.inverted) for m in (B, iB, L, iL)])
bbll_trees = st.recursive(
    st.sampled_from(["p", "q"]).map(lambda n: ("atom", n)),
    lambda children: st.one_of(
        children.map(lambda c: ("not", c)),
        st.tuples(st.sampled_from(["and", "or", "implies"]), children,
                  children),
        st.tuples(st.sampled_from(["dia", "box"]), _bbll_mods, children),
    ),
    max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(bbll_trees, st.integers(1, 8))
def test_schedule_matches_the_full_ordered_search(tree, max_bound):
    phi = build(tree)
    assert _outcome(sat_bbll(phi, max_bound=max_bound)) == \
        _outcome(ordered_sat_bbll(phi, max_bound))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([B, iB, L, iL]), bbll_trees, bbll_trees, bbll_trees,
       st.integers(1, 5))
def test_pre_check_refutes_only_what_the_search_refutes(mod, a, b, c,
                                                        max_bound):
    # <M> a & [M] b & c: a shape the K step has something to work on
    phi = And(And(Diamond(mod, build(a)), Box(mod, build(b))), build(c))
    if sat._prop_unsat(phi) is not None:
        res = ordered_sat_bbll(phi, max_bound, precheck=False)
        assert not isinstance(res, Sat), phi


# Unit intervals ([B] false) beyond any prefix carry p in turn with ~p, or
# cycle through three valuations, so no model has period 1 (or 2): the
# first maximal splits are refuted and the resumed search skips the splits
# they cover.
ALTERNATING = [
    "[L] <L> ([B] false & p) & [L] <L> ([B] false & ~p)",
    "[L] <L> ([B] false & p & q) & [L] <L> ([B] false & p & ~q)"
    " & [L] <L> ([B] false & ~p)",
]


@pytest.mark.parametrize("text", ALTERNATING)
@pytest.mark.parametrize("max_bound", [3, 4, 6, 8])
def test_schedule_skips_covered_splits_to_the_same_certificate(text,
                                                               max_bound):
    phi = parse_formula(text)
    res = sat_bbll(phi, max_bound=max_bound)
    assert _outcome(res) == _outcome(ordered_sat_bbll(phi, max_bound))


def _candidates(monkeypatch, text, max_bound=None):
    """sat_bbll's answer, the splits it encodes and how many it solves."""
    built, solved = [], []
    init, solve = sat._Encoder.__init__, sat._Cnf.solve

    def counting_init(enc, domain, *args):
        built.append((domain.pre, domain.per))
        init(enc, domain, *args)

    def counting_solve(cnf):
        solved.append(cnf)
        return solve(cnf)

    monkeypatch.setattr(sat._Encoder, "__init__", counting_init)
    monkeypatch.setattr(sat._Cnf, "solve", counting_solve)
    res = sat_bbll(parse_formula(text), max_bound=max_bound)
    return res, built, len(solved)


def test_unsat_refutes_only_the_maximal_splits(monkeypatch):
    # bound 6: the five splits (6 - per, per), and no ordered prefix; an
    # iB successor always exists, so each goal folds to false in the gates
    # and no solver is built
    res, built, solved = _candidates(monkeypatch, "[iB] false")
    assert res == Unsat("no model within the periodic bound")
    assert built == [(6 - per, per) for per in range(1, 6)] and solved == 0
    # bound 8: (1, 1) from the ordered prefix, where the goal folds to
    # false, then the seven maximal ones, solved
    res, built, solved = _candidates(monkeypatch,
                                     "<B> ~p & [B] (~p -> <B> ~p)")
    assert res == Unsat("no model within the periodic bound")
    assert built == [(1, 1)] + [(8 - per, per) for per in range(1, 8)]
    assert solved == 7


def test_resumed_search_reuses_the_solved_maximal_split(monkeypatch):
    # bound 3: (2, 1) is refuted, (1, 2) is satisfiable; the resumed search
    # skips (1, 1) and takes (1, 2) without encoding it again
    res, built, _ = _candidates(monkeypatch, ALTERNATING[0], max_bound=3)
    assert isinstance(res, Sat) and built == [(2, 1), (1, 2)]
    assert (res.model.domain.pre, res.model.domain.per) == (1, 2)
