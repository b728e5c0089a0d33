"""An atlas of the modal fragments around the meets/begins family.

The enumeration covers every fragment over the two six-modality universes
{A, iA, B, iB, L, iL} and {A, iA, E, iE, L, iL}, keeping the first of
each definable closure: later is dropped whenever meets is present (and
dually on the past side), and the purely horizontal overlap is counted
once. That yields 62 fragments with pairwise distinct definable closures.

classify places any fragment, including ones using the strictly-inside and
overlap modalities, into a decidability class over two families of orders:
all strongly discrete ones, or the natural numbers only. Several fragments
are decidable only on the second family.

check_equation searches bounded finite orders for a countermodel to a
definability equation; cited_equations lists the six rewrite equations the
closure rules rest on plus their diamond shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .models import IntervalModel, Interval
from .sat import Sat, sat_bounded_finite
from .syntax import (
    A, iA, B, iB, D, iD, E, iE, L, iL, O, iO,
    Atom, Formula, Fragment, Not, dia, iff,
)

# decidability classes
UNDECIDABLE = "Undecidable"
DECIDABLE_NONPR = "DecidableNonPrimitiveRecursive"
EXPSPACE = "EXPSPACEComplete"
NEXPTIME = "NEXPTIMEComplete"
NPC = "NPComplete"

ORDER_CLASSES = ("sd", "nat")


def cited_equations() -> List[Tuple[str, Formula, Formula]]:
    """The six definability equations behind the closure rules."""
    p = Atom("p")
    return [
        ("later-from-meets", dia(L, p), dia(A, dia(A, p))),
        ("before-from-met-by", dia(iL, p), dia(iA, dia(iA, p))),
        ("inside-from-begin-end", dia(D, p), dia(B, dia(E, p))),
        ("overlapped-from-begin-ended", dia(iO, p), dia(B, dia(iE, p))),
        ("overlaps-from-end-begun", dia(O, p), dia(E, dia(iB, p))),
        ("contains-from-begun-ended", dia(iD, p), dia(iB, dia(iE, p))),
    ]


# each cited equation <M> p = <M1> <M2> p gives the rule {M1, M2} -> M
_CLOSURE_RULES = tuple((frozenset({rhs.mod, rhs.sub.mod}), lhs.mod)
                       for _, lhs, rhs in cited_equations())


def definable_closure(fragment: Fragment) -> Fragment:
    """Close a fragment under the cited definability equations."""
    mods = set(fragment)
    changed = True
    while changed:
        changed = False
        for need, gain in _CLOSURE_RULES:
            if need <= mods and gain not in mods:
                mods.add(gain)
                changed = True
    return Fragment.of(*sorted(mods, key=lambda m: (m.base, m.inverted)))


def enumerate_fragments() -> List[Fragment]:
    """The 62 closure-distinct fragments over the two universes."""
    universes = ((A, iA, B, iB, L, iL), (A, iA, E, iE, L, iL))
    seen = set()
    out: List[Fragment] = []
    for universe in universes:
        n = len(universe)
        for mask in range(1, 1 << n):
            frag = Fragment.of(*[universe[k] for k in range(n)
                                 if mask & (1 << k)])
            closure = definable_closure(frag)
            if closure not in seen:
                seen.add(closure)
                out.append(frag)
    out.sort(key=lambda f: (len(f), f.name))
    return out


def classify(fragment: Fragment, order_class: str = "sd") -> str:
    """Decidability class of the fragment's satisfiability problem over
    strongly discrete orders ("sd") or the natural numbers ("nat")."""
    if order_class not in ORDER_CLASSES:
        raise ValueError("order class must be one of %s" % (ORDER_CLASSES,))
    mods = set(fragment)
    b_side = B in mods or iB in mods
    e_side = E in mods or iE in mods
    if mods & {D, iD, O, iO}:
        return UNDECIDABLE
    if b_side and e_side:
        return UNDECIDABLE
    if iA in mods and b_side:
        if order_class == "sd":
            return UNDECIDABLE
        if A in mods or L in mods:
            return UNDECIDABLE
        return DECIDABLE_NONPR
    if A in mods and e_side:
        return UNDECIDABLE
    if (A in mods and b_side) or (iA in mods and e_side):
        return EXPSPACE
    if A in mods or iA in mods:
        return NEXPTIME
    return NPC


def fragment_leq(f1: Fragment, f2: Fragment) -> bool:
    """Whether every modality of f1 is definable from f2."""
    return set(f1) <= set(definable_closure(f2))


def hasse_dot(order_class: Optional[str] = None) -> str:
    """Deterministic DOT rendering of the definability order on the 62
    fragments; an edge points from a fragment to one it strictly covers.
    With an order class, each node carries its decidability label."""
    frags = enumerate_fragments()
    closures = {f: frozenset(definable_closure(f)) for f in frags}
    below: Dict[Fragment, List[Fragment]] = {}
    for f1 in frags:
        below[f1] = [f2 for f2 in frags
                     if f2 is not f1 and closures[f2] < closures[f1]]
    lines = ["digraph fragments {", "  rankdir=BT;",
             '  node [shape=box, fontname="Helvetica"];']
    for f in frags:
        if order_class is None:
            lines.append('  "%s";' % f.name)
        else:
            lines.append('  "%s" [label="%s\\n%s"];'
                         % (f.name, f.name, classify(f, order_class)))
    for f1 in frags:
        strict = below[f1]
        strict_set = {closures[f] for f in strict}
        for f2 in strict:
            # covering edge: nothing sits strictly between f2 and f1
            if not any(closures[f2] < mid < closures[f1]
                       for mid in strict_set):
                lines.append('  "%s" -> "%s";' % (f1.name, f2.name))
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Countermodel:
    model: IntervalModel
    witness: Interval


@dataclass(frozen=True)
class NoCountermodel:
    max_points: int


EquationCheck = Union[Countermodel, NoCountermodel]


def check_equation(lhs: Formula, rhs: Formula,
                   max_points: int = 6) -> EquationCheck:
    """Search finite orders for an interval where lhs and rhs disagree."""
    res = sat_bounded_finite(Not(iff(lhs, rhs)), max_points)
    if isinstance(res, Sat):
        return Countermodel(res.model, res.witness)
    return NoCountermodel(max_points)
