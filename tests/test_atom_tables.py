"""The checker's atom tables, cell by cell against the naive canonical map."""

import random

from hslogic.checking import _F, _T, _model_engine
from hslogic.models import finite_model

from . import oracle
from .gen import rand_finite_model, rand_periodic_model


def _expected(model, h, letter):
    """A letter's flat table over the window 0..h, from the oracle's
    repeated-subtraction canonical map; the slots y <= x hold false."""
    w = h + 1
    table = [_F] * (h * w)
    for x in range(h):
        for y in range(x + 1, h + 1):
            if oracle.holds_atom_naive(model, (x, y), letter):
                table[x * w + y] = _T
    return table


def test_periodic_atom_tables_match_the_canonical_map():
    rng = random.Random(1301)
    checked = 0
    for pre in range(1, 6):
        for per in range(1, 6):
            cut = pre + per
            # below, at and past the canonical block, and the far end
            horizons = {1, max(1, cut - 1), cut, cut + per + 1,
                        rng.randrange(1, 41), 40}
            for h in sorted(horizons):
                m = rand_periodic_model(rng, pre, per, ["p", "q"],
                                        density=rng.choice([0.2, 0.5]))
                engine = _model_engine(m, h)
                for letter in ("p", "q", "r"):   # r is nowhere true
                    assert engine.atom(letter) == \
                        _expected(m, h, letter), (pre, per, h, letter)
                    checked += 1
    assert checked >= 3 * 25 * 4


def test_finite_atom_tables_cover_the_domain_to_its_last_point():
    rng = random.Random(1302)
    for _ in range(60):
        last = rng.randrange(1, 9)
        m = rand_finite_model(rng, last, ["p"])
        engine = _model_engine(m, last)
        for letter in ("p", "q"):                # q is nowhere true
            assert engine.atom(letter) == _expected(m, last, letter)
    # cells ending at the last point land in the last column
    table = _model_engine(finite_model(4, {"p": [(3, 4), (0, 4)]}), 4).atom("p")
    assert [divmod(k, 5) for k, v in enumerate(table) if v == _T] == \
        [(0, 4), (3, 4)]
