"""Independent reference implementations for the test suite.

Nothing here reuses the package's evaluation machinery. Interval
successors are enumerated from the raw relation definitions, truth is
computed by naive recursion, canonical cells by repeated subtraction,
and periodic models get a three-valued horizon evaluator that answers
None whenever the value could depend on points beyond the horizon. The
largest bisimulation between two finite models is a greatest fixpoint
over pairs of intervals.
"""

from typing import Dict, FrozenSet, List, Optional, Tuple

from hslogic.models import FiniteDomain, IntervalModel
from hslogic.syntax import (
    And, Atom, Box, Diamond, FalseConst, Formula, Fragment, Implies,
    Modality, Not, Or, TrueConst,
)

Interval = Tuple[int, int]
Pair = Tuple[Interval, Interval]


def related(i: Interval, j: Interval, mod: Modality) -> bool:
    """The twelve ordering relations, straight from their definitions."""
    x, y = i
    u, v = j
    name = mod.name
    if name == "A":
        return u == y
    if name == "iA":
        return v == x
    if name == "B":
        return u == x and v < y
    if name == "iB":
        return u == x and v > y
    if name == "E":
        return v == y and u > x
    if name == "iE":
        return v == y and u < x
    if name == "D":
        return u > x and v < y
    if name == "iD":
        return u < x and v > y
    if name == "L":
        return u > y
    if name == "iL":
        return v < x
    if name == "O":
        return x < u < y < v
    if name == "iO":
        return u < x < v < y
    raise ValueError("unknown modality %r" % name)


def intervals_upto(last: int) -> List[Interval]:
    return [(x, y) for x in range(last + 1) for y in range(x + 1, last + 1)]


def canon_naive(pre: int, per: int, x: int, y: int) -> Interval:
    while x >= pre + per:
        x -= per
        y -= per
    while y >= pre + per and y - per > x:
        y -= per
    return (x, y)


def holds_atom_naive(model: IntervalModel, j: Interval, letter: str) -> bool:
    d = model.domain
    if isinstance(d, FiniteDomain):
        return tuple(j) in set(model.atom_cells(letter))
    return canon_naive(d.pre, d.per, j[0], j[1]) in set(model.atom_cells(letter))


def mc_naive(model: IntervalModel, i: Interval, phi: Formula) -> bool:
    """Recursive evaluation on a finite model with no tables or caps."""
    last = model.domain.last_point
    cells = intervals_upto(last)
    memo: Dict[Tuple[Interval, Formula], bool] = {}

    def ev(j: Interval, f: Formula) -> bool:
        key = (j, f)
        if key in memo:
            return memo[key]
        if isinstance(f, Atom):
            v = holds_atom_naive(model, j, f.name)
        elif isinstance(f, TrueConst):
            v = True
        elif isinstance(f, FalseConst):
            v = False
        elif isinstance(f, Not):
            v = not ev(j, f.sub)
        elif isinstance(f, And):
            v = ev(j, f.lhs) and ev(j, f.rhs)
        elif isinstance(f, Or):
            v = ev(j, f.lhs) or ev(j, f.rhs)
        elif isinstance(f, Implies):
            v = (not ev(j, f.lhs)) or ev(j, f.rhs)
        elif isinstance(f, Diamond):
            v = any(related(j, k, f.mod) and ev(k, f.sub) for k in cells)
        elif isinstance(f, Box):
            v = all(ev(k, f.sub) for k in cells if related(j, k, f.mod))
        else:
            raise TypeError(f)
        memo[key] = v
        return v

    return ev(tuple(i), phi)


# relations whose successor sets on the naturals are unbounded to the right
_UNBOUNDED = {"A", "iB", "L", "iD", "O"}


def mc3_naive(model: IntervalModel, i: Interval, phi: Formula,
              horizon: int) -> Optional[bool]:
    """Three-valued evaluation of a periodic model truncated at horizon.

    True and False are sound for the full model; None means the horizon
    was too short to decide. Successors of in-range cells stay in range
    for every bounded relation, so only the unbounded five lose
    information at the edge.
    """
    return mc3_evaluator(model, horizon)(i, phi)


def mc3_evaluator(model: IntervalModel, horizon: int):
    """mc3_naive as a function of (interval, formula) over one model and
    horizon, whose calls share one memo."""
    cells = intervals_upto(horizon)
    memo: Dict[Tuple[Interval, Formula], Optional[bool]] = {}

    def ev(j: Interval, f: Formula) -> Optional[bool]:
        key = (j, f)
        if key in memo:
            return memo[key]
        if isinstance(f, Atom):
            v: Optional[bool] = holds_atom_naive(model, j, f.name)
        elif isinstance(f, TrueConst):
            v = True
        elif isinstance(f, FalseConst):
            v = False
        elif isinstance(f, Not):
            s = ev(j, f.sub)
            v = None if s is None else not s
        elif isinstance(f, And):
            a, b = ev(j, f.lhs), ev(j, f.rhs)
            v = False if (a is False or b is False) else (
                None if (a is None or b is None) else True)
        elif isinstance(f, Or):
            a, b = ev(j, f.lhs), ev(j, f.rhs)
            v = True if (a is True or b is True) else (
                None if (a is None or b is None) else False)
        elif isinstance(f, Implies):
            a, b = ev(j, f.lhs), ev(j, f.rhs)
            v = True if (a is False or b is True) else (
                None if (a is None or b is None) else False)
        elif isinstance(f, Diamond):
            vals = [ev(k, f.sub) for k in cells if related(j, k, f.mod)]
            if any(s is True for s in vals):
                v = True
            elif f.mod.name in _UNBOUNDED or any(s is None for s in vals):
                v = None
            else:
                v = False
        elif isinstance(f, Box):
            vals = [ev(k, f.sub) for k in cells if related(j, k, f.mod)]
            if any(s is False for s in vals):
                v = False
            elif f.mod.name in _UNBOUNDED or any(s is None for s in vals):
                v = None
            else:
                v = True
        else:
            raise TypeError(f)
        memo[key] = v
        return v

    return lambda i, phi: ev(tuple(i), phi)


def largest_bisimulation_naive(fragment: Fragment, ma: IntervalModel,
                               mb: IntervalModel) -> FrozenSet[Pair]:
    """Greatest fixpoint over pairs of two finite models' intervals: start
    from the pairs that agree on every letter's raw cell set and drop a
    pair while some move along a fragment modality on one side has no
    related answer on the other."""
    cells_a = intervals_upto(ma.domain.last_point)
    cells_b = intervals_upto(mb.domain.last_point)
    letters = set(ma.letters) | set(mb.letters)
    cells_of = [(set(ma.atom_cells(p)), set(mb.atom_cells(p)))
                for p in letters]
    mods = list(fragment.modalities)
    succ_a = {(i, m): [k for k in cells_a if related(i, k, m)]
              for i in cells_a for m in mods}
    succ_b = {(j, m): [k for k in cells_b if related(j, k, m)]
              for j in cells_b for m in mods}
    rel = {(i, j) for i in cells_a for j in cells_b
           if all((i in in_a) == (j in in_b) for in_a, in_b in cells_of)}

    def matched(i: Interval, j: Interval) -> bool:
        for m in mods:
            sa, sb = succ_a[i, m], succ_b[j, m]
            if any(all((k, l) not in rel for l in sb) for k in sa):
                return False
            if any(all((k, l) not in rel for k in sa) for l in sb):
                return False
        return True

    while True:
        bad = {pair for pair in rel if not matched(*pair)}
        if not bad:
            return frozenset(rel)
        rel -= bad
