"""sat_bbll's certificates are the least ones: the first valuation of the
certificate's split, in atom-variable order, under which phi holds at some
interval, and the least interval where it holds.

The solver's first model is lex-least over the atom variables, which come
first, so this holds exactly when the candidate's CNF is satisfiable under
precisely the valuations where phi holds somewhere. An encoding that cuts a
scan short of the intervals some valuation needs loses those valuations,
and the certificate, though it passes the re-check, is a later one.
"""

import itertools
import random

import pytest

from hslogic.checking import mc_periodic
from hslogic.models import canonical_cells, periodic_model, save_model
from hslogic.parser import parse_formula
from hslogic.sat import Sat, sat_bbll
from hslogic.syntax import B, iB, L, iL, letters_of, render

from .gen import rand_formula

# Valuations where phi holds only far out. On split (1, 1), q on [1, 2]
# holds at every interval with left endpoint at least 1, so <iL> q first
# holds at left endpoint 3; <B> over a tautology, or over p on [1, 2],
# needs length 2 there, so the least true cell is [3, 5]. Both
# certificates once had q on [0, 1] in place of [1, 2], with witness
# [2, 4]: they pass the re-check but come later in atom-variable order,
# where q at [0, 1] comes before q at [1, 2].
PINNED = [
    ("<B> ((q -> p) | (q | q)) & ~[iL] ~q",
     "order periodic pre=1 per=1\nval q 1 2\n"),
    ("~~(<iL> q & <B> p)",
     "order periodic pre=1 per=1\nval p 1 2\nval q 1 2\n"),
]


@pytest.mark.parametrize("text,model", PINNED)
def test_pinned_certificates(text, model):
    res = sat_bbll(parse_formula(text))
    assert isinstance(res, Sat)
    assert save_model(res.model) == model
    assert res.witness == (3, 5)


# Every cell with right endpoint at most BOUND is searched for a true one.
# The certificates checked below come from the splits with at most 8 atom
# variables, (1, 1), (2, 1), (1, 2) and (3, 1). A bound too small for some
# formula fails the test rather than passing it: the certificate's own
# valuation would then seem to make phi true nowhere.
BOUND = 12


def _first_true(model, phi, cells):
    return next((c for c in cells if mc_periodic(model, c, phi)), None)


def test_certificates_are_lex_least_by_brute_force():
    rng = random.Random(20121020)
    cells = sorted((x, y) for y in range(1, BOUND + 1) for x in range(y))
    checked = 0
    while checked < 80:
        mods = [B, iB, L, iL] if checked % 2 else [B, iB, L, iL, iL, iL]
        phi = rand_formula(rng, ("p", "q"), mods, 4)
        res = sat_bbll(phi, max_bound=8)
        if not isinstance(res, Sat):
            continue
        d = res.model.domain
        letters = sorted(letters_of(phi))
        atoms = [(p, c) for p in letters for c in canonical_cells(d)]
        if len(atoms) > 8:
            continue
        # valuations in atom-variable order, false before true
        for bits in itertools.product((False, True), repeat=len(atoms)):
            val = {p: [c for (q, c), b in zip(atoms, bits) if b and q == p]
                   for p in letters}
            witness = _first_true(periodic_model(d.pre, d.per, val), phi,
                                  cells)
            if witness is not None:
                break
        assert [res.model.holds_atom(c, p) for p, c in atoms] == \
            list(bits), render(phi)
        assert res.witness == witness, render(phi)
        checked += 1
