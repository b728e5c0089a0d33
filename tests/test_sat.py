"""Satisfiability: the periodic decider, bounded finite search,
certificates."""

import random
import time

import pytest

from hslogic import syntax
from hslogic.checking import mc_periodic
from hslogic.models import FiniteDomain, PeriodicDomain
from hslogic import sat
from hslogic.parser import parse_formula
from hslogic.sat import (
    Sat, Unknown, Unsat, UnsupportedFragmentError, check_certificate,
    later_somewhere, sat_bbll, sat_bounded_finite,
)
from hslogic.syntax import (
    A, B, iB, L, iL, And, Atom, Not, conj, dia, metrics, postorder,
)

from .gen import all_mods, rand_formula, rand_periodic_model
from .test_cnf_golden import CASES

p = Atom("p")

UNSAT_SUITE = [
    "p & ~p",
    "(p -> q) & p & ~q",
    "<B> p & ~<B> p",
    "<B> p & [B] ~p",
    "<iB> p & [iB] ~p",
    "<L> p & [L] ~p",
    "<iL> p & [iL] ~p",
    "<B> <B> p & [B] [B] ~p",
    "[L] false",
    "<iB> (p & ~p)",
]


def test_frozen_sat_example():
    res = sat_bbll(dia(B, p))
    assert isinstance(res, Sat)
    d = res.model.domain
    assert (d.pre, d.per) == (1, 1)
    assert res.model.atom_cells("p") == frozenset({(1, 2)})
    assert res.witness == (1, 3)
    assert check_certificate(dia(B, p), res.model, res.witness)


def test_unsat_suite():
    for text in UNSAT_SUITE:
        assert isinstance(sat_bbll(parse_formula(text)), Unsat), text


def test_unsupported_fragment():
    with pytest.raises(UnsupportedFragmentError):
        sat_bbll(dia(A, p))


# the fragment check comes before the pre-check, which would refute the
# first two, and sees a modality the skeleton never enters, as in the third
@pytest.mark.parametrize("text, got", [
    ("<D> p & [D] ~p", "D"),
    ("<A> p & ~<A> p", "A"),
    ("<B> <D> p & [B] ~<D> p", "B D"),
])
def test_out_of_fragment_formulas_are_refused_not_refuted(text, got):
    with pytest.raises(UnsupportedFragmentError) as info:
        sat_bbll(parse_formula(text))
    assert str(info.value) == \
        "sat_bbll handles fragment B iB L iL; got " + got


@pytest.mark.parametrize("bad", [None, 5])
def test_sat_bbll_rejects_what_is_no_formula(bad):
    with pytest.raises(TypeError) as info:
        sat_bbll(bad)
    assert str(info.value) == "not a formula: %r" % (bad,)


@pytest.mark.parametrize("text", ["<A> p", "<D> p", "[A] p", "<B> <D> p"])
def test_the_periodic_encoder_refuses_other_modalities(text):
    # the thresholds it shares with the model checker cover all twelve
    # modalities, so the encoder itself must refuse the eight it has no
    # table for, not encode them as another
    phi = parse_formula(text)
    with pytest.raises(UnsupportedFragmentError):
        sat._Encoder(PeriodicDomain(1, 2), ["p"], postorder(phi))


def test_unknown_when_truncated():
    res = sat_bbll(dia(B, p), max_bound=1)
    assert isinstance(res, Unknown)


def test_witness_determinism():
    phi = parse_formula("<B> p | <L> (p & <iB> p)")
    r1 = sat_bbll(phi)
    r2 = sat_bbll(phi)
    assert isinstance(r1, Sat)
    assert r1.model == r2.model and r1.witness == r2.witness


def test_sat_results_verify_and_respect_bound():
    rng = random.Random(501)
    sat_count = 0
    for _ in range(60):
        phi = rand_formula(rng, ["p", "q"], [B, iB, L, iL], 2)
        res = sat_bbll(phi)
        if isinstance(res, Sat):
            sat_count += 1
            d = res.model.domain
            assert d.pre + d.per <= metrics(phi).periodic_bound
            assert check_certificate(phi, res.model, res.witness), phi
    assert sat_count >= 25


def test_model_true_implies_sat():
    rng = random.Random(502)
    hits = 0
    for _ in range(40):
        pre = rng.randrange(1, 4)
        per = rng.randrange(1, 7 - pre)
        m = rand_periodic_model(rng, pre, per, ["p", "q"])
        phi = rand_formula(rng, ["p", "q"], [B, iB, L, iL], 2)
        if mc_periodic(m, (0, 1), later_somewhere(phi)):
            hits += 1
            res = sat_bbll(phi)
            assert isinstance(res, Sat), phi
    assert hits >= 15


def test_unsat_coherence_on_samples():
    rng = random.Random(503)
    for text in UNSAT_SUITE[3:7]:
        phi = parse_formula(text)
        for _ in range(5):
            m = rand_periodic_model(rng, rng.randrange(1, 3),
                                    rng.randrange(1, 3), ["p", "q"])
            assert not mc_periodic(m, (0, 1), later_somewhere(phi))


def test_bounded_finite_frozen_example():
    res = sat_bounded_finite(dia(A, p), 2)
    assert isinstance(res, Sat)
    assert isinstance(res.model.domain, FiniteDomain)
    assert res.model.domain.last_point == 2
    assert res.model.atom_cells("p") == frozenset({(1, 2)})
    assert res.witness == (0, 1)


def test_bounded_finite_monotone():
    rng = random.Random(504)
    for _ in range(25):
        phi = rand_formula(rng, ["p"], [A, B, iB, L], 2)
        r3 = sat_bounded_finite(phi, 3)
        if isinstance(r3, Sat):
            r4 = sat_bounded_finite(phi, 4)
            assert isinstance(r4, Sat), phi


def test_bounded_finite_never_unsat():
    res = sat_bounded_finite(parse_formula("p & ~p"), 3)
    assert isinstance(res, Unknown)


def test_check_certificate_rejects_wrong_claims():
    res = sat_bbll(dia(B, p))
    assert isinstance(res, Sat)
    # wrong witness cell
    assert not check_certificate(dia(B, p), res.model, (0, 1))
    # witness outside the domain order
    assert not check_certificate(dia(B, p), res.model, (5, 4))
    # model that does not satisfy the formula at the witness
    other = rand_periodic_model(random.Random(505), 1, 1, [])
    assert not check_certificate(dia(B, p), other, (1, 3))


def test_deep_formulas_encode_without_recursion():
    # the encoder walks formulas iteratively, so nesting past Python's
    # recursion limit is no limit; the parser caps only text input
    wide = conj([Atom("p%d" % i) for i in range(3000)])
    assert isinstance(sat_bbll(wide), Sat)
    assert isinstance(
        sat_bounded_finite(conj([Atom("p%d" % i) for i in range(600)]), 1),
        Sat)
    nested = p
    for _ in range(3000):
        nested = Not(dia(B, nested))
    assert isinstance(sat_bounded_finite(nested, 1), (Sat, Unknown))


def test_negative_max_bound_is_a_value_error():
    with pytest.raises(ValueError):
        sat_bbll(dia(B, p), max_bound=-3)
    # 0 stays a truncated search, not an error
    assert isinstance(sat_bbll(dia(B, p), max_bound=0), Unknown)


# Unsat with every candidate refuted by the solver's goal probes alone: the
# four well-foundedness shapes of the sat_unsat benchmark, and a formula the
# fixed-order search alone did not answer within 30 s
PROBE_REFUTED = [
    "<B> %s & [B] (%s -> <B> %s)" % (psi, psi, psi)
    for psi in ("p", "~p", "(p & q)", "(p | q)")
] + ["<iB> [B] q & (p & [iL] p) & ~q"]


@pytest.mark.parametrize("text", PROBE_REFUTED)
def test_goal_probes_refute_every_candidate_without_a_decision(monkeypatch,
                                                               text):
    solvers = []

    class Recording(sat.Solver):
        def __init__(self):
            super().__init__()
            solvers.append(self)

    monkeypatch.setattr(sat, "Solver", Recording)
    assert sat_bbll(parse_formula(text)) == \
        Unsat("no model within the periodic bound")
    assert solvers and [s.decisions for s in solvers] == [0] * len(solvers)


def test_encoders_hand_the_solver_what_add_clauses_takes_on_trust(
        monkeypatch):
    # Solver.add_clauses skips add_clause's checks for repeated and
    # complementary literals, which the gates of _Cnf fold away before a
    # clause is made, and stores the lists themselves, so no list may be
    # handed over twice
    handed, bad = [], []
    base_solve = sat._Cnf.solve

    def solve(cnf):
        handed.append(len(cnf.clauses))
        assert len(set(map(id, cnf.clauses))) == len(cnf.clauses)
        bad.extend(list(c) for c in cnf.clauses
                   if len(set(c)) < len(c) or any(-lit in c for lit in c))
        return base_solve(cnf)

    monkeypatch.setattr(sat._Cnf, "solve", solve)
    for kind, text in CASES:
        if kind == "bbll":
            sat_bbll(parse_formula(text))
        else:
            sat_bounded_finite(parse_formula(text), int(kind.split()[1]))
    rng = random.Random(2404)
    for _ in range(100):
        sat_bbll(rand_formula(rng, "pq", [B, iB, L, iL], 4), 8)
    for _ in range(100):
        sat_bounded_finite(rand_formula(rng, "pq", all_mods(), 4), 4)
    assert len(handed) > 200 and sum(handed) > 10000
    assert bad == []


def _folded(lits):
    """A disjunction's literals as the gates fold them: the distinct ones in
    order, constant false (-1) dropped; [1] when one is constant true (1)
    or two are complementary."""
    out = []
    for lit in lits:
        if lit == 1 or -lit in out:
            return [1]
        if lit != -1 and lit not in out:
            out.append(lit)
    return out


def test_candidate_cnfs_are_laid_out_for_the_goal_probes(monkeypatch):
    # the solver watches the first two literals of a clause, and its probes
    # falsify the goal's literals least cell first. So the goal is one
    # clause, made with no variable, listing the folded goal literals last
    # cell first, and watched on the two probed last; and a gate's long
    # clause lists its inputs before its negated output, so the level-0
    # unit a failed probe leaves on a gate output wakes no watch of it
    goals = {}
    base_add_goal, base_solve = sat._Cnf.add_goal, sat._Cnf.solve

    def add_goal(cnf, lits):
        nvars, nclauses = cnf.nvars, len(cnf.clauses)
        added = base_add_goal(cnf, lits)
        assert cnf.nvars == nvars
        want = _folded(lits)[::-1]
        assert added == bool(want)
        assert cnf.clauses[nclauses:] == ([want] if want else [])
        goals[id(cnf)] = want
        return added

    solved = []

    def solve(cnf):
        goal = goals.pop(id(cnf))
        assert cnf.clauses[-1] == goal
        # the last two distinct literals probed are the ones watched, unless
        # the goal folded to true
        if goal != [1]:
            assert goal[:2] == [lit for lit in dict.fromkeys(cnf.goal[::-1])
                                if lit != -1][:2]
        inputs = {g: set(key) for key, g in cnf._gate.items()}
        long = [c for c in cnf.clauses[:-1] if len(c) > 2]
        assert sorted(-c[-1] for c in long) == sorted(inputs)
        for c in long:
            assert set(c[:-1]) == inputs[-c[-1]], c
        solved.append(len(long))
        return base_solve(cnf)

    monkeypatch.setattr(sat._Cnf, "add_goal", add_goal)
    monkeypatch.setattr(sat._Cnf, "solve", solve)
    for kind, text in CASES:
        if kind == "bbll":
            sat_bbll(parse_formula(text))
        else:
            sat_bounded_finite(parse_formula(text), int(kind.split()[1]))
    rng = random.Random(2505)
    for _ in range(50):
        sat_bbll(rand_formula(rng, "pq", [B, iB, L, iL], 4), 8)
    for _ in range(50):
        sat_bounded_finite(rand_formula(rng, "pq", all_mods(), 4), 4)
    assert len(solved) > 100 and sum(solved) > 1000


@pytest.mark.parametrize("text", ["<B> p & <L> ~p",
                                  "<B> p & [B] (p -> <B> p)"])
def test_max_bound_truncates_the_search_and_never_extends_it(monkeypatch,
                                                             text):
    # no split past the formula's own periodic bound is encoded, so a
    # max_bound at or above it gives the unbounded answer, Sat
    # certificates included, as fast
    phi = parse_formula(text)
    own = metrics(phi).periodic_bound
    want = sat_bbll(phi)
    init = sat._Encoder.__init__

    def bounded_init(enc, domain, *args):
        assert domain.pre + domain.per <= own, (domain, own)
        init(enc, domain, *args)

    monkeypatch.setattr(sat._Encoder, "__init__", bounded_init)
    for max_bound in (own, own + 8, 10 ** 20):
        start = time.perf_counter()
        assert sat_bbll(phi, max_bound=max_bound) == want
        assert time.perf_counter() - start < 1.0
    assert isinstance(want, Sat if "<L>" in text else Unsat)


def test_a_satisfiable_call_walks_the_formula_at_most_twice(monkeypatch):
    # postorder walks of phi before the certificate re-check: one in
    # metrics, one in sat_bbll, whose list the letters are read off
    walks, at_recheck = [], []

    def counting(f):
        walks.append(f)
        return postorder(f)

    def recheck(f, model, witness):
        at_recheck.append(len(walks))
        return recheck_base(f, model, witness)

    recheck_base = sat._recheck
    monkeypatch.setattr(syntax, "postorder", counting)
    monkeypatch.setattr(sat, "postorder", counting)
    monkeypatch.setattr(sat, "_recheck", recheck)
    phi = parse_formula("<B> (p & <iL> q) & [L] ~<B> q | <iB> ~p")
    assert isinstance(sat_bbll(phi), Sat)
    assert len(at_recheck) == 1
    assert walks[:at_recheck[0]] == [phi] * 2


def test_and_gates_are_or_gates_of_the_negations():
    # define_and2(a, b) folds, keys and writes its gate as
    # -define_or2(-a, -b) would, call for call
    rng = random.Random(3201)
    lits = [1, -1, 2, -2, 3, -3, 4, -4]
    for _ in range(200):
        calls = [(rng.random() < 0.5, rng.choice(lits), rng.choice(lits))
                 for _ in range(12)]
        ours, theirs = sat._Cnf(), sat._Cnf()
        for cnf in (ours, theirs):
            cnf.nvars = 4
        for is_and, a, b in calls:
            if is_and:
                got, want = ours.define_and2(a, b), -theirs.define_or2(-a, -b)
            else:
                got, want = ours.define_or2(a, b), theirs.define_or2(a, b)
            assert got == want, calls
        assert (ours.nvars, ours.clauses, ours._gate) == \
            (theirs.nvars, theirs.clauses, theirs._gate)
