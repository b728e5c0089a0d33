"""Seeded random generators shared by the test modules."""

import random
from functools import reduce
from typing import List, Sequence

from hslogic.models import (
    IntervalModel, PeriodicDomain, canonical_cells, finite_model,
    periodic_model,
)
from hslogic.syntax import (
    ALL_MODALITIES, And, Atom, Box, Diamond, FALSE, Formula, Implies,
    Modality, Not, Or, TRUE,
)


def rand_formula(rng: random.Random, letters: Sequence[str],
                 mods: Sequence[Modality], depth: int,
                 const_weight: float = 0.06) -> Formula:
    if depth == 0 or rng.random() < 0.2:
        r = rng.random()
        if r < const_weight:
            return TRUE if rng.random() < 0.5 else FALSE
        return Atom(rng.choice(list(letters)))
    k = rng.randrange(6)
    sub = lambda: rand_formula(rng, letters, mods, depth - 1, const_weight)
    if k == 0:
        return Not(sub())
    if k == 1:
        return And(sub(), sub())
    if k == 2:
        return Or(sub(), sub())
    if k == 3:
        return Implies(sub(), sub())
    if k == 4:
        return Diamond(rng.choice(list(mods)), sub())
    return Box(rng.choice(list(mods)), sub())


def rand_conjunction(rng: random.Random, letters: Sequence[str],
                     mods: Sequence[Modality], depth: int) -> Formula:
    """A conjunction of 3-8 parts drawn by rand_formula, nested to the
    left, to the right or in two groups. One in four repeats a part or
    adds a diamond or a box over the chain's first link, which another
    node then reads."""
    parts = [rand_formula(rng, letters, mods, depth)
             for _ in range(rng.randint(3, 8))]
    r = rng.random()
    if r < 0.125:
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(parts))
    elif r < 0.25:
        parts.append(rng.choice((Diamond, Box))(rng.choice(list(mods)),
                                                And(parts[0], parts[1])))
    shape = rng.randrange(3)
    if shape == 0:
        return reduce(And, parts)
    if shape == 1:
        return reduce(lambda t, f: And(f, t), parts[::-1])
    k = rng.randint(1, len(parts) - 1)
    return And(reduce(And, parts[:k]), reduce(And, parts[k:]))


def rand_finite_model(rng: random.Random, last: int,
                      letters: Sequence[str],
                      density: float = 0.4) -> IntervalModel:
    cells = [(x, y) for x in range(last + 1) for y in range(x + 1, last + 1)]
    val = {p: [c for c in cells if rng.random() < density] for p in letters}
    return finite_model(last, val)


def rand_periodic_model(rng: random.Random, pre: int, per: int,
                        letters: Sequence[str],
                        density: float = 0.4) -> IntervalModel:
    cells = canonical_cells(PeriodicDomain(pre, per))
    val = {p: [c for c in cells if rng.random() < density] for p in letters}
    return periodic_model(pre, per, val)


def all_mods() -> List[Modality]:
    return list(ALL_MODALITIES)
