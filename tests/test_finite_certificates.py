"""sat_bounded_finite's certificate is the least one, by enumeration.

The atom variables are numbered by letter, then cell, and the solver's
first model is the least in that order with false first. So the model
sat_bounded_finite returns is the first valuation of the first order size
in that order under which phi holds at some interval, and its witness is
the least such interval; if no order up to the bound has one, the answer is
Unknown. Here the valuations of small orders are enumerated in that order
and judged by the naive evaluator of tests/oracle.py, which shares nothing
with the encoder or the model checker.
"""

import itertools
import random

from hslogic.models import finite_model
from hslogic.sat import Sat, Unknown, sat_bounded_finite
from hslogic.syntax import Diamond, Box, letters_of, postorder

from . import oracle
from .gen import all_mods, rand_formula


def least_certificate(phi, max_points):
    """(model, witness) of the first valuation, order size by size, under
    which the oracle finds phi true somewhere; None if there is none."""
    letters = sorted(letters_of(phi))
    for n in range(1, max_points + 1):
        cells = oracle.intervals_upto(n)
        slots = [(letter, cell) for letter in letters for cell in cells]
        for bits in itertools.product((False, True), repeat=len(slots)):
            val = {letter: [] for letter in letters}
            for (letter, cell), bit in zip(slots, bits):
                if bit:
                    val[letter].append(cell)
            model = finite_model(n, val)
            for cell in cells:
                if oracle.mc_naive(model, cell, phi):
                    return model, cell
    return None


def test_certificate_is_the_least_valuation_and_cell():
    rng = random.Random(20121012)
    mods = all_mods()
    seen_mods = set()
    outcomes = {"Sat": 0, "Unknown": 0}
    # one letter on orders of up to 3 points past the origin, or two
    # letters on orders of up to 2: at most 64 valuations per size
    for letters, max_points in [(["p"], 3), (["p", "q"], 2)] * 500:
        phi = rand_formula(rng, letters, mods, 3)
        seen_mods.update(f.mod.name for f in postorder(phi)
                         if isinstance(f, (Diamond, Box)))
        want = least_certificate(phi, max_points)
        got = sat_bounded_finite(phi, max_points)
        if want is None:
            assert isinstance(got, Unknown), phi
            outcomes["Unknown"] += 1
        else:
            assert isinstance(got, Sat), phi
            assert (got.model, got.witness) == want, phi
            outcomes["Sat"] += 1
    assert seen_mods == {m.name for m in mods}
    assert min(outcomes.values()) >= 50, outcomes
