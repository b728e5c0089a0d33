"""Formula syntax for the twelve interval modalities.

Formulas are immutable trees built from atoms, boolean connectives, and one
diamond/box pair per Allen relation. The six base relations are meets (A),
before (L), started-by (B), finished-by (E), contains (D), and overlaps (O);
each also has an inverse, written iX in concrete syntax. Besides the AST this
module provides rendering, the mirror transformation (time reversal), the
closure of a formula under subformulas and negations, and the size metrics
that drive the periodic-model bound used by the satisfiability engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Tuple


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
    records its modal depth and its nesting depth when it is built."""

    __slots__ = ("_depth", "_height")
    _fields: Tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError("formula nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError("formula nodes are immutable")

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f) for f in self._fields))

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))


# Nodes are filled in through their slot descriptors, since the immutable
# __setattr__ refuses assignment.
_set_depth = Formula._depth.__set__
_set_height = Formula._height.__set__


def _record(key: tuple, node: Formula, depth: int, height: int) -> Formula:
    _set_depth(node, depth)
    _set_height(node, height)
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
            _record(key, node, 0, 0)
        return node


_set_name = Atom.name.__set__


class _Constant(Formula):
    __slots__ = ()

    def __new__(cls):
        key = (cls,)
        node = _INTERNED.get(key)
        if node is None:
            node = _record(key, _new_node(cls), 0, 0)
        return node


class TrueConst(_Constant):
    __slots__ = ()


class FalseConst(_Constant):
    __slots__ = ()


class Not(Formula):
    __slots__ = ("sub",)
    _fields = ("sub",)

    def __new__(cls, sub: Formula):
        key = (cls, sub)
        node = _INTERNED.get(key)
        if node is None:
            node = _new_node(cls)
            _set_not_sub(node, sub)
            _record(key, node, sub._depth, sub._height + 1)
        return node


_set_not_sub = Not.sub.__set__


class _Binary(Formula):
    __slots__ = ("lhs", "rhs")
    _fields = ("lhs", "rhs")

    def __new__(cls, lhs: Formula, rhs: Formula):
        key = (cls, lhs, rhs)
        node = _INTERNED.get(key)
        if node is None:
            node = _new_node(cls)
            _set_lhs(node, lhs)
            _set_rhs(node, rhs)
            _record(key, node, max(lhs._depth, rhs._depth),
                    max(lhs._height, rhs._height) + 1)
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

    def __new__(cls, mod: Modality, sub: Formula):
        # the modality enters the key by its fields, which hash in C
        key = (cls, mod.base, mod.inverted, sub)
        node = _INTERNED.get(key)
        if node is None:
            node = _new_node(cls)
            _set_mod(node, mod)
            _set_modal_sub(node, sub)
            _record(key, node, sub._depth + 1, sub._height + 1)
        return node


_set_mod = _Modal.mod.__set__
_set_modal_sub = _Modal.sub.__set__


class Diamond(_Modal):
    __slots__ = ()


class Box(_Modal):
    __slots__ = ()


TRUE = TrueConst()
FALSE = FalseConst()

# Deepest nesting parse_formula accepts (see nesting_depth). The recursive
# functions over formulas (render, desugar, mirror_formula, ast_size, repr,
# checking.postorder, the satisfiability encoders) spend at most a few stack
# frames per level, and the parser six per pair of parentheses, so formulas
# within this depth stay well inside Python's default recursion limit.
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
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts: Iterable[Formula]) -> Formula:
    """Left fold of a disjunction; the empty disjunction is false."""
    parts = list(parts)
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def iff(a: Formula, b: Formula) -> Formula:
    return And(Implies(a, b), Implies(b, a))


# Rendering precedence: implication binds loosest, then disjunction, then
# conjunction, then the unary operators.
_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4
_PREC_ATOM = 5


def render(phi: Formula) -> str:
    """Concrete syntax for a formula; parse(render(phi)) == phi."""
    return _render(phi, 0)


def _render(phi: Formula, min_prec: int) -> str:
    if isinstance(phi, Atom):
        return phi.name
    if isinstance(phi, TrueConst):
        return "true"
    if isinstance(phi, FalseConst):
        return "false"
    if isinstance(phi, Not):
        s = "~" + _render(phi.sub, _PREC_UNARY)
        prec = _PREC_UNARY
    elif isinstance(phi, Diamond):
        s = "<%s> %s" % (phi.mod.name, _render(phi.sub, _PREC_UNARY))
        prec = _PREC_UNARY
    elif isinstance(phi, Box):
        s = "[%s] %s" % (phi.mod.name, _render(phi.sub, _PREC_UNARY))
        prec = _PREC_UNARY
    elif isinstance(phi, And):
        # left associative: right operand needs strictly higher precedence
        s = "%s & %s" % (_render(phi.lhs, _PREC_AND), _render(phi.rhs, _PREC_AND + 1))
        prec = _PREC_AND
    elif isinstance(phi, Or):
        s = "%s | %s" % (_render(phi.lhs, _PREC_OR), _render(phi.rhs, _PREC_OR + 1))
        prec = _PREC_OR
    elif isinstance(phi, Implies):
        # right associative
        s = "%s -> %s" % (_render(phi.lhs, _PREC_IMPLIES + 1),
                          _render(phi.rhs, _PREC_IMPLIES))
        prec = _PREC_IMPLIES
    else:
        raise TypeError("not a formula: %r" % (phi,))
    if prec < min_prec:
        return "(" + s + ")"
    return s


def desugar(phi: Formula) -> Formula:
    """Rewrite implication and the boolean constants away.

    p -> q becomes ~p | q; true becomes __t | ~__t over a reserved letter,
    and false becomes the negation of that. The result uses only atoms,
    negation, conjunction, disjunction, diamonds, and boxes.
    """
    if isinstance(phi, Atom):
        return phi
    if isinstance(phi, TrueConst):
        t = Atom(RESERVED_TAUTOLOGY_LETTER)
        return Or(t, Not(t))
    if isinstance(phi, FalseConst):
        t = Atom(RESERVED_TAUTOLOGY_LETTER)
        return Not(Or(t, Not(t)))
    if isinstance(phi, Not):
        return Not(desugar(phi.sub))
    if isinstance(phi, And):
        return And(desugar(phi.lhs), desugar(phi.rhs))
    if isinstance(phi, Or):
        return Or(desugar(phi.lhs), desugar(phi.rhs))
    if isinstance(phi, Implies):
        return Or(Not(desugar(phi.lhs)), desugar(phi.rhs))
    if isinstance(phi, Diamond):
        return Diamond(phi.mod, desugar(phi.sub))
    if isinstance(phi, Box):
        return Box(phi.mod, desugar(phi.sub))
    raise TypeError("not a formula: %r" % (phi,))


def neg(phi: Formula) -> Formula:
    """Designated negation: strips a leading negation instead of stacking."""
    if isinstance(phi, Not):
        return phi.sub
    return Not(phi)


def subformulas(phi: Formula) -> set:
    """All structural subformulas of phi, phi included."""
    out = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        if f in out:
            continue
        out.add(f)
        if isinstance(f, Not):
            stack.append(f.sub)
        elif isinstance(f, (And, Or, Implies)):
            stack.append(f.lhs)
            stack.append(f.rhs)
        elif isinstance(f, (Diamond, Box)):
            stack.append(f.sub)
    return out


def closure(phi: Formula) -> set:
    """Subformulas of the desugared formula plus the designated negation of
    each, deduplicated structurally."""
    subs = subformulas(desugar(phi))
    return subs | {neg(f) for f in subs}


def ast_size(phi: Formula) -> int:
    """Node count of the tree; each connective, modality, and atom occurrence
    counts as one symbol."""
    if isinstance(phi, (Atom, TrueConst, FalseConst)):
        return 1
    if isinstance(phi, Not):
        return 1 + ast_size(phi.sub)
    if isinstance(phi, (And, Or, Implies)):
        return 1 + ast_size(phi.lhs) + ast_size(phi.rhs)
    if isinstance(phi, (Diamond, Box)):
        return 1 + ast_size(phi.sub)
    raise TypeError("not a formula: %r" % (phi,))


def modal_depth(phi: Formula) -> int:
    """Greatest number of modalities on one branch; recorded at build time."""
    return phi._depth


def nesting_depth(phi: Formula) -> int:
    """Greatest number of operators on one branch (0 for an atom or a
    constant); recorded at build time."""
    return phi._height


def letters_of(phi: Formula) -> set:
    return {f.name for f in subformulas(desugar(phi)) if isinstance(f, Atom)}


def _temporal_core(member: Formula) -> Formula:
    return member.sub if isinstance(member, Not) else member


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
    cl = closure(phi)
    # Begin-family diamonds: diamond-shaped members count directly, negated
    # boxes count through their diamond form with one negation pushed in.
    begin_forms = set()
    for member in cl:
        if isinstance(member, Diamond) and member.mod.base == "B":
            begin_forms.add((member.mod, member.sub))
        elif isinstance(member, Not) and isinstance(member.sub, Box) \
                and member.sub.mod.base == "B":
            begin_forms.add((member.sub.mod, neg(member.sub.sub)))
    m_b = len(begin_forms)
    r_members = {
        member for member in cl
        if isinstance(_temporal_core(member), (Diamond, Box))
        and _temporal_core(member).mod.base == "L"
    }
    r_size = len(r_members)
    m_l = 2 * r_size
    bound = (m_l + 2) * m_b + m_l + 4
    return FormulaMetrics(
        length=ast_size(phi),
        closure_size=len(cl),
        m_b=m_b,
        r_size=r_size,
        m_l=m_l,
        periodic_bound=bound,
    )


def mirror_formula(phi: Formula) -> Formula:
    """Swap every modality for its time-reversed partner; an involution."""
    if isinstance(phi, (Atom, TrueConst, FalseConst)):
        return phi
    if isinstance(phi, Not):
        return Not(mirror_formula(phi.sub))
    if isinstance(phi, And):
        return And(mirror_formula(phi.lhs), mirror_formula(phi.rhs))
    if isinstance(phi, Or):
        return Or(mirror_formula(phi.lhs), mirror_formula(phi.rhs))
    if isinstance(phi, Implies):
        return Implies(mirror_formula(phi.lhs), mirror_formula(phi.rhs))
    if isinstance(phi, Diamond):
        return Diamond(phi.mod.mirror(), mirror_formula(phi.sub))
    if isinstance(phi, Box):
        return Box(phi.mod.mirror(), mirror_formula(phi.sub))
    raise TypeError("not a formula: %r" % (phi,))


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
    mods = {
        f.mod for f in subformulas(phi) if isinstance(f, (Diamond, Box))
    }
    return Fragment(frozenset(mods))
