"""sat_bbll's candidate schedule against the full ordered search it
replaces: same verdicts, reasons and certificates, from fewer candidates."""

import pytest
from hypothesis import given, settings, strategies as st

from hslogic import sat
from hslogic.checking import _scan_frontier
from hslogic.models import PeriodicDomain, save_model
from hslogic.parser import parse_formula
from hslogic.sat import Sat, Unknown, Unsat, sat_bbll
from hslogic.syntax import (
    B, iB, L, iL, letters_of, metrics, modal_depth,
)

from .test_interning import build


def ordered_sat_bbll(phi, max_bound):
    """Reference: refute every split (pre, per) with pre + per <= bound,
    by total and then by prefix, and certify the first satisfiable one."""
    if sat._prop_unsat(phi):
        return Unsat("propositional refutation")
    own_bound = metrics(phi).periodic_bound
    bound = own_bound if max_bound is None else max_bound
    goal = sat.later_somewhere(phi)
    goal_depth = modal_depth(goal)
    letters = sorted(letters_of(phi))
    for total in range(2, bound + 1):
        for pre in range(1, total):
            per = total - pre
            enc = sat._Encoder(PeriodicDomain(pre, per),
                               _scan_frontier(pre, per, goal_depth, 1),
                               letters)
            tables = enc.tables(sat._encoding_order(goal), [(0, 1)], [phi])
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


def _solve_calls(monkeypatch, text, max_bound=None):
    calls = []
    solve = sat._Cnf.solve

    def counting(cnf):
        calls.append(cnf)
        return solve(cnf)

    monkeypatch.setattr(sat._Cnf, "solve", counting)
    res = sat_bbll(parse_formula(text), max_bound=max_bound)
    return res, len(calls)


def test_unsat_refutes_only_the_maximal_splits(monkeypatch):
    # bound 6: the five splits (6 - per, per), and no ordered prefix
    res, n = _solve_calls(monkeypatch, "<B> p & [B] ~p")
    assert isinstance(res, Unsat) and n == 5
    # bound 8: (1, 1) from the ordered prefix, then the seven maximal ones
    res, n = _solve_calls(monkeypatch, "<B> ~p & [B] (~p -> <B> ~p)")
    assert isinstance(res, Unsat) and n == 8


def test_resumed_search_reuses_the_solved_maximal_split(monkeypatch):
    # bound 3: (2, 1) is refuted, (1, 2) is satisfiable; the resumed search
    # skips (1, 1) and takes (1, 2) without solving it again
    res, n = _solve_calls(monkeypatch, ALTERNATING[0], max_bound=3)
    assert isinstance(res, Sat) and n == 2
    assert (res.model.domain.pre, res.model.domain.per) == (1, 2)
