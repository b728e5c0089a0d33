"""Every Unsat of sat_bbll audited against tests/oracle.py on all small
periodic models.

A wrong Sat fails its certificate re-check, but a wrong Unsat has no
certificate, so nothing else would fail. Each formula here is over the one
letter p. When sat_bbll answers Unsat, the oracle's three-valued evaluator,
which shares no evaluation code with the package, evaluates the formula on
each of the 84 one-letter periodic models with pre + per <= 3, at every
interval up to the horizon pre + per + 5. A True there is sound for the
whole model, so it is a model of the formula and refutes the Unsat. The
package only decides and builds the models.

The audit is necessary, not sufficient: it cannot show that no larger model
exists. The periodic bound stays with the paper's argument.
"""

import random

import pytest

from hslogic.models import PeriodicDomain, canonical_cells, periodic_model
from hslogic.parser import parse_formula
from hslogic.sat import Unsat, sat_bbll
from hslogic.syntax import B, L, iB, iL, And, Box, Diamond, Implies, Or, neg

from . import oracle
from .gen import rand_formula


def _small_models():
    """(horizon, model) for every valuation of p on the canonical cells of
    every split with pre + per <= 3."""
    out = []
    for pre, per in ((1, 1), (1, 2), (2, 1)):
        cells = canonical_cells(PeriodicDomain(pre, per))
        for bits in range(1 << len(cells)):
            val = [c for j, c in enumerate(cells) if bits >> j & 1]
            out.append((pre + per + 5, periodic_model(pre, per, {"p": val})))
    return out


MODELS = _small_models()


def _counterexample(phi):
    """The first (model, interval) where the oracle finds phi true, or
    None."""
    for horizon, model in MODELS:
        ev = oracle.mc3_evaluator(model, horizon)
        for i in oracle.intervals_upto(horizon):
            if ev(i, phi) is True:
                return model, i
    return None


# each shape is a sound refutation, or a trap for an unsound one
SHAPES = [
    # a lone box over a box holds at every unit interval: a pre-check that
    # took B or iL for serial would refute them
    "[B] [B] false", "[iL] [iL] false", "[B] false & [iL] false",
    # L and iB are serial on the naturals
    "[L] false", "[iB] false", "<iB> p & [L] false",
    # B and iL are well-founded
    "<B> p & [B] (p -> <B> p)", "<iL> p & [iL] (p -> <iL> p)",
    # the interval is a successor of its successor under the converse
    "p & <iB> [B] ~p", "p & <B> [iB] ~p", "p & <L> [iL] ~p",
    "p & <iL> [L] ~p",
    # a diamond under | or ->: every branch closes after one K step
    "(<L> p | <B> p) & [L] ~p & [B] ~p",
    "(<B> p | <iB> p) & [B] ~p & [iB] ~p",
    "(<iL> p | ~p) & [iL] ~p & p",
    "(<L> <L> p | <B> <B> p) & [L] ~p & [B] ~p",
    "<B> ((p -> p) -> <iB> false)",
    # a false part forces the other: a pre-check that read a | b or a -> b
    # as a conjunction would refute them
    "(p | <B> p) & ~p", "(<L> p | <iB> p) & [L] ~p",
    "(~p -> [B] false) & ~p",
    # a split where one branch closes and the other is satisfiable: a
    # pre-check that refuted a node on either branch would refute them
    "((p & <B> p) | ~p) & [B] ~p", "(<B> <B> p | ~p) & [B] ~p",
]


@pytest.mark.parametrize("text", SHAPES)
def test_unsat_shapes_have_no_small_model(text):
    phi = parse_formula(text)
    if isinstance(sat_bbll(phi), Unsat):
        assert _counterexample(phi) is None, text


def _biased(rng):
    """A one-letter begin/later formula drawn toward Unsat: a modal
    consequence conjoined with its negation (K, transitivity, converse or
    well-foundedness), one under a disjunction, or a plain random
    formula."""
    converse = {B: iB, iB: B, L: iL, iL: L}
    mod = rng.choice((B, iB, L, iL))
    s = rand_formula(rng, ("p",), (B, iB, L, iL), 2)
    shape = rng.randrange(6)
    if shape == 0:
        return And(Diamond(mod, s), Box(mod, neg(s)))
    if shape == 1:
        return And(Diamond(mod, Diamond(mod, s)), Box(mod, neg(s)))
    if shape == 2:
        return And(s, Diamond(mod, Box(converse[mod], neg(s))))
    if shape == 3:
        mod = rng.choice((B, iL))
        return And(Diamond(mod, s),
                   Box(mod, Implies(s, Diamond(mod, s))))
    if shape == 4:
        other = rng.choice((B, iB, L, iL))
        return And(Or(Diamond(mod, Diamond(mod, s)), Diamond(other, s)),
                    And(Box(mod, neg(s)), Box(other, neg(s))))
    return rand_formula(rng, ("p",), (B, iB, L, iL), 3)


def test_drawn_unsat_formulas_have_no_small_model():
    rng = random.Random(1)
    refuted = 0
    for _ in range(30):
        phi = _biased(rng)
        if isinstance(sat_bbll(phi), Unsat):
            refuted += 1
            assert _counterexample(phi) is None, phi
    assert refuted >= 10
