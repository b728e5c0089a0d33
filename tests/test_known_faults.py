"""Regression tests for the length-aware periodicity thresholds.

The model checker cuts the right-unbounded scans (models.row_stop) and
pulls far queries back (checking._reduce_query) at thresholds past which
truth repeats with the period, derived per subformula by
checking._fold_thresholds. Under D, B and E truth also depends on the
interval's length, so the right-endpoint threshold grows with the length.
With a length term of per + 1 at every depth the model checker and, through
the shared thresholds, sat_bbll gave the wrong answers pinned below; each
case states the true answer.
"""

import random

from hslogic.checking import mc_periodic
from hslogic.models import load_model
from hslogic.parser import parse_formula
from hslogic.sat import Sat, Unsat, sat_bbll

from . import oracle
from .gen import all_mods, rand_formula, rand_periodic_model

MODEL = load_model("order periodic pre=1 per=1\nval p 0 1\n")


def test_nested_contains_after_meets():
    # [1, 6] contains [2, 5], which contains [3, 4]
    assert mc_periodic(MODEL, (0, 1), parse_formula("<A> <D> <D> ~q"))


def test_started_by_twice_inside_a_longer_interval():
    # [4, 7] is started by [4, 6], which is started by [4, 5]
    assert mc_periodic(MODEL, (4, 5),
                       parse_formula("<iB> <B> <B> (p | ~p)"))


def test_sat_bbll_refutes_a_valid_negation():
    assert isinstance(sat_bbll(parse_formula("~<iB> <B> <B> (p | ~p)")),
                      Unsat)


def test_sat_bbll_certifies_a_satisfiable_formula():
    assert isinstance(sat_bbll(parse_formula("<B> <B> p & <iL> q")), Sat)


def test_all_modalities_against_three_valued_oracle():
    # every definite verdict of the horizon-13 oracle, at cells near the
    # origin, for random formulas of depth <= 3 over all twelve modalities
    rng = random.Random(20121011)
    mods = all_mods()
    cells = [(x, y) for x in range(6) for y in range(x + 1, 10)]
    wrong = []
    checked = 0
    for _ in range(1500):
        model = rand_periodic_model(rng, rng.randint(1, 2), rng.randint(1, 2),
                                    ["p", "q"])
        phi = rand_formula(rng, ["p", "q"], mods, 3)
        for cell in rng.sample(cells, 3):
            want = oracle.mc3_naive(model, cell, phi, 13)
            if want is None:
                continue
            checked += 1
            if mc_periodic(model, cell, phi) != want:
                wrong.append((model.domain, cell, phi, want))
    assert checked > 3500
    assert wrong == []
