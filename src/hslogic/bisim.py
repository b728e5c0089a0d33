"""Fragment bisimulations and undefinability certificates.

A relation between the intervals of two finite models is a bisimulation for
a set of modalities when related intervals carry the same letters and every
move along one of the modalities on either side can be matched on the
other. Formulas over the fragment cannot tell related intervals apart, so a
pair of models related at a pair of intervals that some candidate modality
distinguishes certifies that the candidate is not definable in the
fragment.

Two ready-made witnesses are included: one separating the later modality
from the begin pair, one separating meets from begins and laters together.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, NamedTuple, Tuple

from .checking import allen_related, mc_finite
from .models import (
    FiniteDomain, Interval, IntervalModel, canonical_cells, finite_model,
)
from .syntax import A, B, iB, L, iL, Atom, Fragment, Modality, dia

Pair = Tuple[Interval, Interval]


def _require_finite(model: IntervalModel, which: str):
    if not isinstance(model.domain, FiniteDomain):
        raise TypeError("%s must be a finite model" % which)


def _atoms_agree(ma: IntervalModel, mb: IntervalModel,
                 i: Interval, j: Interval, letters) -> bool:
    return all(ma.holds_atom(i, p) == mb.holds_atom(j, p) for p in letters)


def _moves(model: IntervalModel, fragment: Fragment):
    """Each cell's successor lists, one per modality of the fragment in
    sorted order, listed once."""
    mods = fragment.sorted_modalities()
    return {i: [allen_related(model.domain, i, mod) for mod in mods]
            for i in canonical_cells(model.domain)}


def _pair_ok(pairs, moves_a, moves_b) -> bool:
    for succ_a, succ_b in zip(moves_a, moves_b):
        for i2 in succ_a:
            if not any((i2, j2) in pairs for j2 in succ_b):
                return False
        for j2 in succ_b:
            if not any((i2, j2) in pairs for i2 in succ_a):
                return False
    return True


def is_f_bisimulation(pairs: Iterable[Pair], fragment: Fragment,
                      ma: IntervalModel, mb: IntervalModel) -> bool:
    """Check the letter-agreement and back-and-forth conditions literally."""
    _require_finite(ma, "first model")
    _require_finite(mb, "second model")
    rel = {(tuple(i), tuple(j)) for i, j in pairs}
    letters = sorted(set(ma.letters) | set(mb.letters))
    moves_a, moves_b = _moves(ma, fragment), _moves(mb, fragment)
    for i, j in rel:
        if i not in moves_a or j not in moves_b:
            raise ValueError("pair %r outside the domains" % ((i, j),))
        if not _atoms_agree(ma, mb, i, j, letters):
            return False
        if not _pair_ok(rel, moves_a[i], moves_b[j]):
            return False
    return True


def largest_f_bisimulation(fragment: Fragment, ma: IntervalModel,
                           mb: IntervalModel) -> FrozenSet[Pair]:
    """Greatest fixpoint: start from all letter-agreeing pairs and drop
    pairs whose moves cannot be matched until nothing changes."""
    _require_finite(ma, "first model")
    _require_finite(mb, "second model")
    letters = sorted(set(ma.letters) | set(mb.letters))
    moves_a, moves_b = _moves(ma, fragment), _moves(mb, fragment)
    rel = {
        (i, j) for i in moves_a for j in moves_b
        if _atoms_agree(ma, mb, i, j, letters)
    }
    changed = True
    while changed:
        changed = False
        for pair in sorted(rel):
            i, j = pair
            if not _pair_ok(rel, moves_a[i], moves_b[j]):
                rel.discard(pair)
                changed = True
    return frozenset(rel)


def certify_undefinability(mod: Modality, fragment: Fragment,
                           ma: IntervalModel, mb: IntervalModel,
                           ia: Interval, ib: Interval, letter: str) -> bool:
    """True when the two models are fragment-bisimilar at (ia, ib) yet the
    diamond of mod over the letter separates them. That combination shows
    no fragment formula can express the diamond."""
    ia, ib = tuple(ia), tuple(ib)
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
        return certify_undefinability(self.mod, self.fragment,
                                      self.model_a, self.model_b,
                                      self.interval_a, self.interval_b,
                                      self.letter)


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
