"""Model checking: finite tables, periodic stabilization, duality."""

import random

import pytest

from hslogic.checking import (
    FiniteEvaluator, NotStabilized, mc_finite, mc_periodic,
    periodic_stable_tables, postorder,
)
from hslogic.models import (
    canonical_cells, finite_model, periodic_model, reverse_model,
)
from hslogic.syntax import (
    ALL_MODALITIES, A, iA, B, iB, E, iE, L, iL, And, Atom, Box, Diamond,
    Not, box, conj, dia, mirror_formula,
)

from . import oracle
from .gen import rand_finite_model, rand_formula, rand_periodic_model

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


def test_periodic_stabilized_answer_fixed_across_horizons():
    rng = random.Random(306)
    for _ in range(60):
        m = rand_periodic_model(rng, rng.randrange(1, 3),
                                rng.randrange(1, 3), ["p"])
        phi = rand_formula(rng, ["p"], [B, iB, L, iL], 2)
        v1 = mc_periodic(m, (0, 1), phi)
        v2 = mc_periodic(m, (0, 1), phi, max_rounds=9)
        assert v1 == v2


def test_periodic_stable_tables_agree_with_mc_periodic():
    rng = random.Random(307)
    checked = 0
    for _ in range(100):
        pre, per = rng.randrange(1, 3), rng.randrange(1, 3)
        m = rand_periodic_model(rng, pre, per, ["p", "q"])
        phi = rand_formula(rng, ["p", "q"], ALL_MODALITIES, 2)
        tables, h = periodic_stable_tables(m, phi)
        assert h >= pre + per
        assert set(tables) == set(postorder(phi))
        cells = canonical_cells(m.domain)
        for node, grid in tables.items():
            assert all(v is False or v is None or v is True
                       for v in grid.values())
            for c in cells:
                if grid[c] is not None:
                    assert grid[c] == mc_periodic(m, c, node), (node, c)
                    checked += 1
    assert checked > 1000


def test_deep_conjunction_checks_without_recursion():
    phi = conj(Atom("p%d" % k) for k in range(1500))
    m = finite_model(2, {"p%d" % k: [(0, 1)] for k in range(1500)})
    assert mc_finite(m, (0, 1), phi)
    assert not mc_finite(m, (1, 2), phi)


def test_not_stabilized_raises_with_zero_budget():
    m = periodic_model(1, 1, {"p": [(1, 2)]})
    with pytest.raises(NotStabilized):
        mc_periodic(m, (0, 1), dia(L, p), max_rounds=0)


def test_periodic_rejects_finite_and_vice_versa():
    fm = finite_model(2, {})
    pm = periodic_model(1, 1, {})
    with pytest.raises(TypeError):
        mc_periodic(fm, (0, 1), p)
    with pytest.raises(TypeError):
        mc_finite(pm, (0, 1), p)
    with pytest.raises(ValueError):
        mc_finite(fm, (0, 5), p)
