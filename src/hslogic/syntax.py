"""Formula syntax for the twelve interval modalities.

Formulas are immutable trees built from atoms, boolean connectives, and one
diamond/box pair per Allen relation. The six base relations are meets (A),
before (L), started-by (B), finished-by (E), contains (D), and overlaps (O);
each also has an inverse, written iX in concrete syntax. Besides the AST this
module provides rendering, the mirror transformation (time reversal), the
closure of a formula under subformulas and negations, and the size metrics
that drive the periodic-model bound used by the satisfiability engine.

Nodes are interned, and each records its modal depth, its nesting depth and
its modalities, as a bit set, when it is built; modal_depth, nesting_depth
and fragment_of read them in constant time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass(frozen=True, order=True)
class Modality:
    """One of the twelve interval modalities: a base relation plus a flag
    selecting the inverse relation."""

    base: str
    inverted: bool

    def __post_init__(self):
        if self.base not in ("A", "B", "D", "E", "L", "O"):
            raise ValueError("unknown modality base %r" % (self.base,))

    @property
    def name(self) -> str:
        return ("i" + self.base) if self.inverted else self.base

    def inverse(self) -> "Modality":
        return Modality(self.base, not self.inverted)

    def mirror(self) -> "Modality":
        return _MIRROR[self]

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return "Modality(%s)" % self.name


A = Modality("A", False)
iA = Modality("A", True)
B = Modality("B", False)
iB = Modality("B", True)
D = Modality("D", False)
iD = Modality("D", True)
E = Modality("E", False)
iE = Modality("E", True)
L = Modality("L", False)
iL = Modality("L", True)
O = Modality("O", False)
iO = Modality("O", True)

ALL_MODALITIES = (A, iA, B, iB, D, iD, E, iE, L, iL, O, iO)
MODALITIES_BY_NAME = {m.name: m for m in ALL_MODALITIES}

# Reversing the time order maps the meets relation to its inverse, swaps the
# started-by and finished-by families, leaves the (symmetric-under-reversal)
# containment relation in place, and maps overlaps to its inverse.
_MIRROR = {
    A: iA, iA: A,
    L: iL, iL: L,
    B: E, E: B,
    iB: iE, iE: iB,
    D: D, iD: iD,
    O: iO, iO: O,
}


# Every formula node is interned (hash-consed): building a node looks up its
# class and fields here and hands back the node already made for them, if any.
# Structurally equal formulas are therefore the same object, and equality and
# hashing are the identity defaults inherited from object. The table keeps its
# nodes for the life of the process.
_INTERNED: Dict[tuple, "Formula"] = {}

_new_node = object.__new__


class Formula:
    """Base class for formula nodes. Nodes are interned and immutable; each
    records its modal depth, its nesting depth and its modalities when it
    is built."""

    __slots__ = ("_depth", "_height", "_mods")
    _fields: Tuple[str, ...] = ()
    # the fields holding formulas, in the order fold passes their results
    _operands: Tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError("formula nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError("formula nodes are immutable")

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f) for f in self._fields))

    def __repr__(self) -> str:
        return fold(self, _repr_case)


# Nodes are filled in through their slot descriptors, since the immutable
# __setattr__ refuses assignment.
_set_depth, _set_height, _set_mods = (
    Formula._depth.__set__, Formula._height.__set__, Formula._mods.__set__)

# A node's modalities are a bit set: bit i stands for ALL_MODALITIES[i].
_MOD_BIT = {m: 1 << i for i, m in enumerate(ALL_MODALITIES)}


def _record(key: tuple, node: Formula, depth: int, height: int,
            mods: int) -> Formula:
    _set_depth(node, depth)
    _set_height(node, height)
    _set_mods(node, mods)
    _INTERNED[key] = node
    return node


class Atom(Formula):
    __slots__ = ("name",)
    _fields = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        node = _INTERNED.get(key)
        if node is None:
            node = _new_node(cls)
            _set_name(node, name)
            _record(key, node, 0, 0, 0)
        return node


_set_name = Atom.name.__set__


class _Constant(Formula):
    __slots__ = ()

    def __new__(cls):
        key = (cls,)
        node = _INTERNED.get(key)
        if node is None:
            node = _record(key, _new_node(cls), 0, 0, 0)
        return node


class TrueConst(_Constant):
    __slots__ = ()


class FalseConst(_Constant):
    __slots__ = ()


class Not(Formula):
    __slots__ = ("sub",)
    _fields = _operands = ("sub",)

    def __new__(cls, sub: Formula):
        key = (cls, sub)
        node = _INTERNED.get(key)
        if node is None:
            node = _new_node(cls)
            _set_not_sub(node, sub)
            _record(key, node, sub._depth, sub._height + 1, sub._mods)
        return node


_set_not_sub = Not.sub.__set__


class _Binary(Formula):
    __slots__ = ("lhs", "rhs")
    _fields = _operands = ("lhs", "rhs")

    def __new__(cls, lhs: Formula, rhs: Formula):
        key = (cls, lhs, rhs)
        node = _INTERNED.get(key)
        if node is None:
            node = _new_node(cls)
            _set_lhs(node, lhs)
            _set_rhs(node, rhs)
            _record(key, node, max(lhs._depth, rhs._depth),
                    max(lhs._height, rhs._height) + 1, lhs._mods | rhs._mods)
        return node


_set_lhs = _Binary.lhs.__set__
_set_rhs = _Binary.rhs.__set__


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class _Modal(Formula):
    __slots__ = ("mod", "sub")
    _fields = ("mod", "sub")
    _operands = ("sub",)

    def __new__(cls, mod: Modality, sub: Formula):
        # the modality enters the key by its fields, which hash in C
        key = (cls, mod.base, mod.inverted, sub)
        node = _INTERNED.get(key)
        if node is None:
            node = _new_node(cls)
            _set_mod(node, mod)
            _set_modal_sub(node, sub)
            _record(key, node, sub._depth + 1, sub._height + 1,
                    sub._mods | _MOD_BIT[mod])
        return node


_set_mod = _Modal.mod.__set__
_set_modal_sub = _Modal.sub.__set__


class Diamond(_Modal):
    __slots__ = ()


class Box(_Modal):
    __slots__ = ()


TRUE = TrueConst()
FALSE = FalseConst()

# Deepest nesting parse_formula accepts (see nesting_depth). It keeps what
# still recurses over formulas, the parser and pickling, well inside
# Python's default recursion limit; the walks in this module and the SAT
# encoder are iterative and have no depth limit.
MAX_NESTING = 100

# Letter reserved for the boolean-constant rewriting in desugar().
RESERVED_TAUTOLOGY_LETTER = "__t"


def dia(mod: Modality, sub: Formula) -> Formula:
    return Diamond(mod, sub)


def box(mod: Modality, sub: Formula) -> Formula:
    return Box(mod, sub)


def conj(parts: Iterable[Formula]) -> Formula:
    """Left fold of a conjunction; the empty conjunction is true."""
    parts = list(parts)
    return reduce(And, parts) if parts else TRUE


def disj(parts: Iterable[Formula]) -> Formula:
    """Left fold of a disjunction; the empty disjunction is false."""
    parts = list(parts)
    return reduce(Or, parts) if parts else FALSE


def iff(a: Formula, b: Formula) -> Formula:
    return And(Implies(a, b), Implies(b, a))


def fold(phi: Formula, case: Callable[[Formula, tuple], object]) -> object:
    """Evaluate phi bottom-up: case(f, args) is called once per unique
    node f, children first, where args holds the results for f's formula
    operands left to right. Iterative, so nesting depth is no limit."""
    return _fold(postorder(phi), case)


def _fold(order: List[Formula],
          case: Callable[[Formula, tuple], object]) -> object:
    """fold over a postorder already listed; its root is last."""
    # each result is dropped once the last node using it is done, so that
    # a long chain of string results (render, repr) is not all held at once
    last = {getattr(f, n): f for f in order for n in f._operands}
    done = {}
    for f in order:
        kids = [getattr(f, n) for n in f._operands]
        done[f] = case(f, tuple([done[g] for g in kids]))
        for g in kids:
            if last[g] is f:
                done.pop(g, None)
    return done[order[-1]]


def _repr_case(f: Formula, args: tuple) -> str:
    shown = dict(zip(f._operands, args))
    return "%s(%s)" % (type(f).__name__, ", ".join(
        "%s=%s" % (n, shown[n] if n in shown else repr(getattr(f, n)))
        for n in f._fields))


def _rebuild(f: Formula, args: tuple, mods: Optional[dict] = None) -> Formula:
    """f's node class over new operands, a modality mapped through mods."""
    if isinstance(f, _Modal):
        return type(f)(mods[f.mod] if mods else f.mod, *args)
    return type(f)(*args) if args else f


# Rendering precedence: implication binds loosest, then disjunction, then
# conjunction, then the unary operators.
_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4
_PREC_ATOM = 5

# Per node class: template (modal ones take the modality name first), own
# precedence, and the least precedence of each operand left unbracketed:
# & and | are left associative, -> is right associative.
_RENDER = {
    TrueConst: ("true", _PREC_ATOM, ()),
    FalseConst: ("false", _PREC_ATOM, ()),
    Not: ("~%s", _PREC_UNARY, (_PREC_UNARY,)),
    Diamond: ("<%s> %s", _PREC_UNARY, (_PREC_UNARY,)),
    Box: ("[%s] %s", _PREC_UNARY, (_PREC_UNARY,)),
    And: ("%s & %s", _PREC_AND, (_PREC_AND, _PREC_AND + 1)),
    Or: ("%s | %s", _PREC_OR, (_PREC_OR, _PREC_OR + 1)),
    Implies: ("%s -> %s", _PREC_IMPLIES, (_PREC_IMPLIES + 1, _PREC_IMPLIES)),
}


def render(phi: Formula) -> str:
    """Concrete syntax for a formula; parse(render(phi)) == phi."""
    return fold(phi, _render_case)[0]


def _render_case(f: Formula, args: tuple) -> Tuple[str, int]:
    if type(f) is Atom:
        return f.name, _PREC_ATOM
    template, prec, needs = _RENDER[type(f)]
    parts = tuple(s if p >= need else "(" + s + ")"
                  for (s, p), need in zip(args, needs))
    if isinstance(f, _Modal):
        parts = (f.mod.name,) + parts
    return template % parts, prec


def desugar(phi: Formula) -> Formula:
    """Rewrite implication and the boolean constants away.

    p -> q becomes ~p | q; true becomes __t | ~__t over a reserved letter,
    and false becomes the negation of that. The result uses only atoms,
    negation, conjunction, disjunction, diamonds, and boxes; a formula
    that already does is returned as it is.
    """
    order = postorder(phi)
    if _SUGAR.isdisjoint(map(type, order)):
        return phi
    return _fold(order, _desugar_case)


_SUGAR = {Implies, TrueConst, FalseConst}


def _desugar_case(f: Formula, args: tuple) -> Formula:
    t = type(f)
    if t is Implies:
        return Or(Not(args[0]), args[1])
    if t is TrueConst or t is FalseConst:
        a = Atom(RESERVED_TAUTOLOGY_LETTER)
        return Or(a, Not(a)) if t is TrueConst else Not(Or(a, Not(a)))
    return _rebuild(f, args)


def neg(phi: Formula) -> Formula:
    """Designated negation: strips a leading negation instead of stacking."""
    if isinstance(phi, Not):
        return phi.sub
    return Not(phi)


def postorder(phi: Formula) -> List[Formula]:
    """Unique subformulas of phi, phi included: children left to right
    before parents, each at its first occurrence. Iterative, so nesting
    depth is no limit."""
    if not isinstance(phi, Formula):
        raise TypeError("not a formula: %r" % (phi,))
    seen = set()
    out = []
    # a None on the stack means: the node below it has had its children
    # emitted, so emit it
    stack = [phi]
    while stack:
        f = stack.pop()
        if f is None:
            out.append(stack.pop())
        elif f not in seen:
            seen.add(f)
            t = type(f)
            if t is And or t is Or or t is Implies:
                stack += (f, None, f.rhs, f.lhs)
            elif t is Not or t is Diamond or t is Box:
                stack += (f, None, f.sub)
            else:
                out.append(f)
    return out


def subformulas(phi: Formula) -> set:
    """All structural subformulas of phi, phi included."""
    return set(postorder(phi))


def closure(phi: Formula) -> set:
    """Subformulas of the desugared formula plus the designated negation of
    each, deduplicated structurally."""
    subs = subformulas(desugar(phi))
    return subs | {neg(f) for f in subs}


def ast_size(phi: Formula) -> int:
    """Node count of the tree; each connective, modality, and atom occurrence
    counts as one symbol."""
    return _ast_size(postorder(phi))


def _ast_size(order: List[Formula]) -> int:
    """ast_size over a postorder already listed; its root is last."""
    size: Dict[Formula, int] = {}
    for f in order:
        t = type(f)
        if t is And or t is Or or t is Implies:
            size[f] = size[f.lhs] + size[f.rhs] + 1
        elif t is Not or t is Diamond or t is Box:
            size[f] = size[f.sub] + 1
        else:
            size[f] = 1
    return size[order[-1]]


def modal_depth(phi: Formula) -> int:
    """Greatest number of modalities on one branch; recorded at build time."""
    return phi._depth


def nesting_depth(phi: Formula) -> int:
    """Greatest number of operators on one branch (0 for an atom or a
    constant); recorded at build time."""
    return phi._height


def letters_of(phi: Formula) -> set:
    """The letters of desugar(phi): the atoms of phi, and the reserved
    letter if phi has a constant."""
    return _letters(postorder(phi))


def _letters(order: List[Formula]) -> set:
    """letters_of over a postorder already listed."""
    out = {f.name for f in order if type(f) is Atom}
    if TRUE in order or FALSE in order:
        out.add(RESERVED_TAUTOLOGY_LETTER)
    return out


def _skeleton_letter(f: Formula) -> tuple:
    """The skeleton letter of a diamond <M> a or a box [M] s, read as
    ~<M> neg(s): (M, b, negated) for a = b or a = ~b, so that the twin
    <M> neg(s) is never built. Two modal nodes share a letter exactly when
    they are a diamond and its twin, or the same node."""
    a, negated = f.sub, type(f) is Box
    if negated and type(a) is Not:      # neg(~b) is b
        a, negated = a.sub, False
    if not negated and type(a) is Not:
        a, negated = a.sub, True
    return (f.mod.base, f.mod.inverted, a, negated)


@dataclass(frozen=True)
class FormulaMetrics:
    """Size measures of a formula and the bound on prefix-plus-period length
    for the periodic-model search."""

    length: int
    closure_size: int
    m_b: int
    r_size: int
    m_l: int
    periodic_bound: int


def metrics(phi: Formula) -> FormulaMetrics:
    """phi's size measures, read off one walk of desugar(phi), with no
    closure built: two walks when phi has sugar, as desugar(phi) is then
    another formula.

    * closure_size counts each node of desugar(phi) and its designated
      negation, unless that negation is a node too: a negation's is its
      operand, and the negation of a node that is no negation is a node
      when it is the operand of one;
    * m_b counts the begin-family diamonds of the closure, a negated box
      [M] s as its twin <M> neg(s), by their skeleton letters: every
      begin-family diamond and box of desugar(phi), and no other member,
      gives one;
    * r_size counts the later-family diamonds and boxes of desugar(phi)
      and the negation of each."""
    order = postorder(phi)
    length = _ast_size(order)
    if not _SUGAR.isdisjoint(map(type, order)):
        order = postorder(_fold(order, _desugar_case))
    closure_size = len(order)
    begin = set()
    later = 0
    for f in order:
        t = type(f)
        if t is Not:
            if type(f.sub) is not Not:
                closure_size -= 1
        else:
            closure_size += 1
            if t is Diamond or t is Box:
                base = f.mod.base
                if base == "B":
                    begin.add(_skeleton_letter(f))
                elif base == "L":
                    later += 1
    m_b, r_size = len(begin), 2 * later
    m_l = 2 * r_size
    return FormulaMetrics(
        length=length,
        closure_size=closure_size,
        m_b=m_b,
        r_size=r_size,
        m_l=m_l,
        periodic_bound=(m_l + 2) * m_b + m_l + 4,
    )


def mirror_formula(phi: Formula) -> Formula:
    """Swap every modality for its time-reversed partner; an involution."""
    return fold(phi, lambda f, args: _rebuild(f, args, _MIRROR))


@dataclass(frozen=True)
class Fragment:
    """A set of modalities, named by listing them in a fixed order (base
    letter first, inverse after its plain form)."""

    modalities: frozenset

    def __post_init__(self):
        for m in self.modalities:
            if not isinstance(m, Modality):
                raise TypeError("fragment members must be modalities")

    @staticmethod
    def of(*mods: Modality) -> "Fragment":
        return Fragment(frozenset(mods))

    @property
    def name(self) -> str:
        return " ".join(m.name for m in self.sorted_modalities())

    def sorted_modalities(self) -> list:
        return sorted(self.modalities, key=lambda m: (m.base, m.inverted))

    def __contains__(self, m: Modality) -> bool:
        return m in self.modalities

    def __iter__(self) -> Iterator[Modality]:
        return iter(self.sorted_modalities())

    def __len__(self) -> int:
        return len(self.modalities)

    def __le__(self, other: "Fragment") -> bool:
        return self.modalities <= other.modalities

    def __str__(self) -> str:
        return self.name


def mirror_fragment(f: Fragment) -> Fragment:
    return Fragment(frozenset(m.mirror() for m in f.modalities))


def fragment_of(phi: Formula) -> Fragment:
    """The modalities phi uses; recorded at build time, so constant
    time."""
    if not isinstance(phi, Formula):
        raise TypeError("not a formula: %r" % (phi,))
    return Fragment(frozenset(m for m, b in _MOD_BIT.items() if phi._mods & b))
