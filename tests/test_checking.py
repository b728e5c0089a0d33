"""Model checking: finite tables, periodic stabilization, duality."""

import random

import pytest

from hslogic import checking
from hslogic.checking import (
    FiniteEvaluator, NotStabilized, mc_finite, mc_periodic, postorder,
)
from hslogic.cli import main
from hslogic.models import (
    IntervalModel, canonical_cells, finite_model, periodic_model,
    reverse_model, save_model,
)
from hslogic.parser import parse_formula
from hslogic.sat import check_certificate
from hslogic.syntax import (
    ALL_MODALITIES, A, iA, B, iB, E, iE, L, iL, And, Atom, Box, Diamond,
    Not, box, conj, dia, mirror_formula, modal_depth,
)

from . import oracle
from .gen import (
    rand_conjunction, rand_finite_model, rand_formula, rand_periodic_model,
)

p, q = Atom("p"), Atom("q")

# the module-2 example model: p on the two short prefixes, q across the top
EXAMPLE = finite_model(3, {"p": [(0, 1), (1, 2)], "q": [(0, 2)]})


def test_finite_frozen_examples():
    assert mc_finite(EXAMPLE, (0, 2), dia(B, p))
    assert not mc_finite(EXAMPLE, (1, 2), dia(iL, p))
    assert mc_finite(EXAMPLE, (2, 3), dia(iL, p))


def test_finite_random_against_naive():
    # every subformula at every cell: a recurrence that drops one term can
    # still be right at most cells of most formulas
    rng = random.Random(301)
    checked = 0
    for _ in range(250):
        last = rng.randrange(1, 7)
        m = rand_finite_model(rng, last, ["p", "q"])
        phi = rand_formula(rng, ["p", "q"], ALL_MODALITIES, 3)
        ev = FiniteEvaluator(m)
        for f in postorder(phi):
            for i, v in ev.table(f).items():
                assert v == oracle.mc_naive(m, i, f), (f, i)
                checked += 1
    assert checked > 10000


def test_finite_duality():
    rng = random.Random(302)
    for _ in range(150):
        last = rng.randrange(1, 6)
        m = rand_finite_model(rng, last, ["p"])
        sub = rand_formula(rng, ["p"], ALL_MODALITIES, 2)
        mod = rng.choice(ALL_MODALITIES)
        i = rng.choice(oracle.intervals_upto(last))
        assert mc_finite(m, i, Box(mod, sub)) == \
            mc_finite(m, i, Not(Diamond(mod, Not(sub))))


def test_mirror_reversal_equivalence():
    rng = random.Random(303)
    for _ in range(150):
        last = rng.randrange(1, 6)
        m = rand_finite_model(rng, last, ["p", "q"])
        phi = rand_formula(rng, ["p", "q"], ALL_MODALITIES, 3)
        x, y = rng.choice(oracle.intervals_upto(last))
        assert mc_finite(m, (x, y), phi) == mc_finite(
            reverse_model(m), (last - y, last - x), mirror_formula(phi))


def test_finite_evaluator_table_matches_value():
    rng = random.Random(304)
    m = rand_finite_model(rng, 4, ["p"])
    ev = FiniteEvaluator(m)
    phi = dia(B, And(p, dia(E, p)))
    table = ev.table(phi)
    for i, v in table.items():
        assert v == mc_finite(m, i, phi)


def test_periodic_frozen_examples():
    m = periodic_model(1, 1, {"p": [(1, 2)]})
    assert mc_periodic(m, (1, 3), dia(B, p))
    assert not mc_periodic(m, (1, 2), dia(B, p))
    assert mc_periodic(m, (0, 1), dia(L, p))
    assert mc_periodic(m, (0, 1), box(L, dia(L, p)))
    empty = periodic_model(1, 1, {})
    assert not mc_periodic(empty, (0, 1), dia(L, p))
    assert not mc_periodic(empty, (0, 1), box(L, dia(iB, Atom("p"))))


def test_periodic_unbounded_box_needs_caps():
    # the box ranges over infinitely many meets-successors; every one of
    # them sees a later p-interval, which only the periodicity caps can
    # conclude in finite time
    m = periodic_model(1, 2, {"p": [(1, 2)]})
    assert mc_periodic(m, (0, 1), box(A, dia(L, p)))
    assert not mc_periodic(m, (0, 1), box(A, dia(iL, p)))


def test_periodic_against_three_valued_oracle():
    rng = random.Random(305)
    checked = 0
    for _ in range(200):
        pre = rng.randrange(1, 4)
        per = rng.randrange(1, 4)
        m = rand_periodic_model(rng, pre, per, ["p", "q"])
        phi = rand_formula(rng, ["p", "q"], [A, iA, B, iB, E, iE, L, iL], 2)
        i = (rng.randrange(0, 3), 0)
        i = (i[0], i[0] + rng.randrange(1, 4))
        got = mc_periodic(m, i, phi)
        base = max(pre + per, i[1])
        for h in (base + 2 * per, base + 5 * per):
            want = oracle.mc3_naive(m, i, phi, h)
            if want is not None:
                assert got == want, (m, i, phi)
                checked += 1
                break
    assert checked >= 100


def _watched_values(m, nodes, bounds, watch, h):
    """Every node's values at the watched cells, one engine build at
    horizon h."""
    engine = checking._model_engine(m, h, bounds)
    keys = [x * engine.w + y for x, y in watch]
    return [engine.table(node)[k] for node in nodes for k in keys]


def test_periodic_stabilized_answer_fixed_across_horizons():
    # a determined value does not depend on the horizon: at the first
    # horizon base + k*per where every watched cell of every subformula is
    # determined, the values are those one period further out, and phi's
    # value at the query is mc_periodic's answer
    rng = random.Random(306)
    checked = 0
    while checked < 300:
        pre, per = rng.randint(1, 3), rng.randint(1, 3)
        m = rand_periodic_model(rng, pre, per, ["p", "q"],
                                rng.choice((0.15, 0.4)))
        phi = rand_formula(rng, ["p", "q"], ALL_MODALITIES, 3)
        if modal_depth(phi) == 0:
            continue
        checked += 1
        x = rng.randrange(0, 50)
        i = (x, rng.randrange(x + 1, 100))
        nodes = postorder(phi)
        bounds = checking._fold_thresholds(nodes, pre, per)
        query = checking._reduce_query(m.domain, i, bounds[phi])
        watch = list(canonical_cells(m.domain)) + [query]
        base = max(pre, query[1])
        h = next(base + k * per for k in range(2, 100)
                 if checking._U not in _watched_values(
                     m, nodes, bounds, watch, base + k * per))
        first = _watched_values(m, nodes, bounds, watch, h)
        assert first == _watched_values(m, nodes, bounds, watch, h + per), \
            (m, phi, h)
        assert (first[-1] == checking._T) == mc_periodic(m, i, phi)


def test_deep_conjunction_checks_without_recursion():
    phi = conj(Atom("p%d" % k) for k in range(1500))
    m = finite_model(2, {"p%d" % k: [(0, 1)] for k in range(1500)})
    assert mc_finite(m, (0, 1), phi)
    assert not mc_finite(m, (1, 2), phi)


def test_not_stabilized_is_a_fault_naming_the_cell(monkeypatch, capsys,
                                                   tmp_path):
    # an injected fault: thresholds 50 too high and a round count that
    # ignores the scans, so a scan that finds nothing stays undetermined
    # in every round
    lift = checking._lift
    monkeypatch.setattr(checking, "_scan_frontier", lambda *args: 0)
    monkeypatch.setattr(checking, "_lift", lambda name, b, per: tuple(
        v + 50 for v in lift(name, b, per)))
    m = periodic_model(1, 1, {"p": [(1, 2)]})
    phi = dia(L, q)
    with pytest.raises(NotStabilized) as info:
        mc_periodic(m, (0, 1), phi)
    exc = info.value
    assert (exc.subformula, exc.cell, exc.rounds) == (phi, (0, 1), 3)
    # a certificate re-check counts the fault as a failed check
    assert not check_certificate(phi, m, (0, 1))
    assert check_certificate(dia(L, p), m, (0, 1))
    # hs mc exits 2 with an error line and no answer
    path = tmp_path / "m.ism"
    path.write_text(save_model(m), encoding="ascii")
    code = main(["mc", "--model", str(path), "--interval", "0", "1",
                 "--formula", "<L> q"])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err == "error: evaluation did not stabilize: no stable " \
        "value for <L> q at [0, 1] after 3 rounds\n"


def test_a_pulled_back_query_settles_at_its_second_horizon(monkeypatch):
    # [L] s depends on the right endpoint alone, past s's diagonal
    # threshold: (4, 9) pulls back to (4, 6), so the horizons are 6 + k*3,
    # and the value found at k = 2 is confirmed at k = 3
    pulled, horizons = [], []
    reduce_query, model_engine = checking._reduce_query, checking._model_engine

    def recording_reduce(domain, i, b):
        pulled.append(reduce_query(domain, i, b))
        return pulled[-1]

    def recording_engine(model, horizon, bounds=None, rows=None):
        horizons.append(horizon)
        return model_engine(model, horizon, bounds, rows)

    monkeypatch.setattr(checking, "_reduce_query", recording_reduce)
    monkeypatch.setattr(checking, "_model_engine", recording_engine)
    m = periodic_model(2, 3, {"p": [(1, 2), (3, 4)], "q": [(0, 2)]})
    phi = parse_formula("[L] (p | <iB> q)")
    assert mc_periodic(m, (4, 9), phi) is False
    assert (pulled, horizons) == ([(4, 6)], [12, 15])


def test_periodic_queries_list_no_canonical_cells(monkeypatch):
    # a query watches only itself: listing the canonical cells, about
    # pre^2/2 of them, would make a huge prefix hang before any table
    def listing(*args):
        raise AssertionError("canonical cells listed")

    m = periodic_model(2, 3, {"p": [(1, 2), (3, 4)], "q": [(0, 2)]})
    phi = parse_formula("q & <L> <iB> p | [B] <A> q")
    queries = [(0, 1), (0, 2), (4, 9), (7, 100)]
    want = [mc_periodic(m, i, phi) for i in queries]
    assert want == [True, True, False, False]
    monkeypatch.setattr(checking, "canonical_cells", listing, raising=False)
    assert [mc_periodic(m, i, phi) for i in queries] == want


def test_each_periodic_query_walks_the_formula_once(monkeypatch):
    calls = []

    def counting(phi):
        calls.append(phi)
        return postorder(phi)

    monkeypatch.setattr(checking, "postorder", counting)
    m = periodic_model(2, 3, {"p": [(1, 2), (3, 4)], "q": [(0, 2)]})
    # an | root, and a root chain of conjuncts, whose reading walks nothing
    for text in ("q & <L> <iB> p | [B] <A> q", "q & <L> <iB> p & [B] <A> q"):
        phi = parse_formula(text)
        for i in [(0, 1), (4, 9), (7, 100)]:
            calls.clear()
            mc_periodic(m, i, phi)
            assert calls == [phi]


def test_each_periodic_query_lists_a_letter_once(monkeypatch):
    # every horizon's engine reads the one listing of a letter's
    # fixed-point rows that its mc_periodic call makes
    listed, horizons = [], []
    atom_cells, model_engine = IntervalModel.atom_cells, checking._model_engine

    def counting(model, letter):
        listed.append(letter)
        return atom_cells(model, letter)

    def recording_engine(model, horizon, bounds=None, rows=None):
        horizons.append(horizon)
        return model_engine(model, horizon, bounds, rows)

    m = periodic_model(2, 3, {"p": [(1, 2), (3, 4)], "q": [(0, 2)]})
    monkeypatch.setattr(IntervalModel, "atom_cells", counting)
    monkeypatch.setattr(checking, "_model_engine", recording_engine)
    for text in ("[L] (p | <iB> q)", "q & <L> <iB> p & [B] <A> q"):
        phi = parse_formula(text)
        for i in [(0, 1), (4, 9), (7, 100)]:
            listed.clear()
            horizons.clear()
            mc_periodic(m, i, phi)
            assert len(horizons) >= 2
            assert sorted(listed) == ["p", "q"]


def test_periodic_rejects_finite_and_vice_versa():
    fm = finite_model(2, {})
    pm = periodic_model(1, 1, {})
    with pytest.raises(TypeError):
        mc_periodic(fm, (0, 1), p)
    with pytest.raises(TypeError):
        mc_finite(pm, (0, 1), p)
    with pytest.raises(ValueError):
        mc_finite(fm, (0, 5), p)


# root chains of three or more conjuncts: left-nested, right-nested and
# grouped, with a repeated conjunct, and with a link another node reads
CHAINS = [
    "<B> p & <iL> q & [L] ~p & <iB> (p | q)",
    "<A> p & (<D> q & ([O] ~p & <iE> (q | <iA> p)))",
    "(<B> p & <E> q) & ([L] ~p & <iB> (p | q))",
    "<L> q & [B] ~q & <L> q & <iB> p",
    "((p & q) & r) & <B> (p & q)",
    "((p & q) & <A> ~p) & <iL> [B] (p & q) & <iB> q",
    "(((p & q) & r) & ~q) & [E] ((p & q) & r)",
]


def test_finite_root_chains_against_naive():
    rng = random.Random(3302)
    formulas = [parse_formula(text) for text in CHAINS]
    formulas += [rand_conjunction(rng, ["p", "q"], ALL_MODALITIES, 2)
                 for _ in range(150)]
    checked = 0
    for phi in formulas:
        m = rand_finite_model(rng, rng.randrange(1, 6), ["p", "q", "r"])
        for i in oracle.intervals_upto(m.domain.last_point):
            assert mc_finite(m, i, phi) == oracle.mc_naive(m, i, phi), \
                (phi, i)
            checked += 1
    assert checked > 1000


def test_periodic_root_chains_against_three_valued_oracle():
    rng = random.Random(3303)
    mods = [A, iA, B, iB, E, iE, L, iL]
    formulas = [parse_formula(text) for text in CHAINS]
    formulas += [rand_conjunction(rng, ["p", "q"], mods, 1)
                 for _ in range(150)]
    checked = 0
    for phi in formulas:
        pre, per = rng.randrange(1, 4), rng.randrange(1, 4)
        m = rand_periodic_model(rng, pre, per, ["p", "q", "r"])
        x = rng.randrange(0, 3)
        i = (x, x + rng.randrange(1, 4))
        got = mc_periodic(m, i, phi)
        base = max(pre + per, i[1])
        for h in (base + 2 * per, base + 5 * per):
            want = oracle.mc3_naive(m, i, phi, h)
            if want is not None:
                assert got == want, (m, i, phi)
                checked += 1
                break
    assert checked >= 100
