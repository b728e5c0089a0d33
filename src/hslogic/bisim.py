"""Fragment bisimulations and undefinability certificates.

A relation between the intervals of two finite models is a bisimulation for
a set of modalities when related intervals carry the same letters and every
move along one of the modalities on either side can be matched on the
other. Formulas over the fragment cannot tell related intervals apart, so a
pair of models related at a pair of intervals that some candidate modality
distinguishes certifies that the candidate is not definable in the
fragment.

The largest one comes from partition refinement. Blocks live on the
disjoint union of both models' cells and start as the letter classes. Each
round splits every block by the sets of blocks its cells reach along each
modality; refinement only splits, and it stops when no block splits. Then
sharing a block is a bisimulation on the union, and every bisimulation
keeps its pairs together through each round, so it is the largest. Moves
stay inside a model, so the stable partition restricted to A x B is the
largest F-bisimulation from A to B.

Two ready-made witnesses are included: one separating the later modality
from the begin pair, one separating meets from begins and laters together.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import FrozenSet, Iterable, List, NamedTuple, Tuple

from .checking import _TableEngine, mc_finite
from .models import (FiniteDomain, Interval, IntervalModel, canonical_cells,
                     finite_model, valid_interval)
from .parser import is_letter
from .syntax import A, B, iB, L, iL, Atom, Fragment, Modality, dia

Pair = Tuple[Interval, Interval]


def _require_finite(ma: IntervalModel, mb: IntervalModel):
    for model, which in ((ma, "first model"), (mb, "second model")):
        if not isinstance(model.domain, FiniteDomain):
            raise TypeError("%s must be a finite model" % which)


def _union(sets: List[int]) -> int:
    return reduce(and_, sets, -1)


def _moves(model: IntervalModel, fragment: Fragment):
    """Each cell's successor lists, one per modality of the fragment in
    sorted order, by one grid-engine pass per modality over sets of cells.

    Cell k's own table entry is its bit complemented, ~(1 << k), and a set
    S is held as ~S. So the engine's false, -1, is the empty set, and its
    join, here &, is union: a diamond's entry at a cell is the complement
    of the set of the cell's successors."""
    cells = canonical_cells(model.domain)
    w = model.domain.last_point + 1
    own = [-1] * ((w - 1) * w)
    for k, (x, y) in enumerate(cells):
        own[x * w + y] = ~(1 << k)
    engine = _TableEngine(w - 1, None, _union, and_, None)
    tables = [engine._diamond(mod.name, own, None)
              for mod in fragment.sorted_modalities()]
    moves = {}
    for x, y in cells:
        moves[(x, y)] = lists = []
        for table in tables:
            bits, succ = ~table[x * w + y], []
            while bits:     # the set bits, lowest first
                low = bits & -bits
                succ.append(cells[low.bit_length() - 1])
                bits ^= low
            lists.append(succ)
    return moves


def is_f_bisimulation(pairs: Iterable[Pair], fragment: Fragment,
                      ma: IntervalModel, mb: IntervalModel) -> bool:
    """Check the letter-agreement and back-and-forth conditions literally."""
    _require_finite(ma, mb)
    rel = {(tuple(i), tuple(j)) for i, j in pairs}
    letters = sorted(set(ma.letters) | set(mb.letters))
    moves_a, moves_b = _moves(ma, fragment), _moves(mb, fragment)
    for i, j in rel:
        if i not in moves_a or j not in moves_b:
            raise ValueError("pair %r outside the domains" % ((i, j),))
        if any(ma.holds_atom(i, p) != mb.holds_atom(j, p) for p in letters):
            return False
        for succ_a, succ_b in zip(moves_a[i], moves_b[j]):
            fwd = all(any((i2, j2) in rel for j2 in succ_b) for i2 in succ_a)
            back = all(any((i2, j2) in rel for i2 in succ_a) for j2 in succ_b)
            if not (fwd and back):
                return False
    return True


def largest_f_bisimulation(fragment: Fragment, ma: IntervalModel,
                           mb: IntervalModel) -> FrozenSet[Pair]:
    """Refine the letter classes of both models' cells until no block
    splits, and pair the cells of the two models that share a block."""
    _require_finite(ma, mb)
    letters = sorted(set(ma.letters) | set(mb.letters))
    moves = [_moves(m, fragment) for m in (ma, mb)]
    sigs = [{i: tuple(m.holds_atom(i, p) for p in letters) for i in mv}
            for m, mv in zip((ma, mb), moves)]
    count = 0
    while True:
        ids = {}  # one numbering over both models, so blocks span them
        blocks = [{i: ids.setdefault(key, len(ids)) for i, key in sig.items()}
                  for sig in sigs]
        if len(ids) == count:
            break
        count = len(ids)
        sigs = [{i: (bl[i],) + tuple(frozenset(map(bl.__getitem__, succ))
                                     for succ in mv[i]) for i in mv}
                for bl, mv in zip(blocks, moves)]
    ba, bb = blocks
    return frozenset((i, j) for i in ba for j in bb if ba[i] == bb[j])


def certify_undefinability(mod: Modality, fragment: Fragment,
                           ma: IntervalModel, mb: IntervalModel,
                           ia: Interval, ib: Interval, letter: str) -> bool:
    """True when the two models are fragment-bisimilar at (ia, ib) yet the
    diamond of mod over the letter separates them. That combination shows
    no fragment formula can express the diamond."""
    ia, ib = tuple(ia), tuple(ib)
    for i, model, which in ((ia, ma, "first"), (ib, mb, "second")):
        if not valid_interval(model.domain, i):
            raise ValueError("%r is not an interval of the %s model"
                             % (i, which))
    if not is_letter(letter):
        raise ValueError("%r is not a letter" % (letter,))
    phi = dia(mod, Atom(letter))
    if (ia, ib) not in largest_f_bisimulation(fragment, ma, mb):
        return False
    return mc_finite(ma, ia, phi) and not mc_finite(mb, ib, phi)


class UndefinabilityWitness(NamedTuple):
    mod: Modality
    fragment: Fragment
    model_a: IntervalModel
    model_b: IntervalModel
    interval_a: Interval
    interval_b: Interval
    letter: str

    def certify(self) -> bool:
        return certify_undefinability(*self)


def later_witness() -> UndefinabilityWitness:
    """The later diamond is invisible to the begin pair: the begin moves
    never leave the left endpoint, so a letter far to the right separates
    two models the pair cannot tell apart."""
    return UndefinabilityWitness(
        mod=L,
        fragment=Fragment.of(B, iB),
        model_a=finite_model(3, {"p": [(2, 3)]}),
        model_b=finite_model(3, {}),
        interval_a=(0, 1),
        interval_b=(0, 1),
        letter="p")


def meets_witness() -> UndefinabilityWitness:
    """The meets diamond sees the interval starting at the right endpoint,
    which begins, laters, and their inverses all skip over on a two-point
    tail."""
    return UndefinabilityWitness(
        mod=A,
        fragment=Fragment.of(B, iB, L, iL),
        model_a=finite_model(2, {"p": [(1, 2)]}),
        model_b=finite_model(2, {}),
        interval_a=(0, 1),
        interval_b=(0, 1),
        letter="p")
