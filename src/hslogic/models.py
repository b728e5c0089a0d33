"""Interval structures over strongly discrete linear orders.

Two domain shapes are supported: an initial segment {0, ..., N} of the
naturals, and the whole of the naturals presented as an ultimately periodic
structure with a prefix length and a period. In the periodic case a
valuation is stored on a finite set of canonical cells; truth of an atom at
an arbitrary interval is looked up through the canonicalization map, which
quotients the grid by the two periodicity clauses (diagonal shifts past the
prefix, and right-endpoint shifts that keep the interval ahead of its start).
The model checker does not look atoms up cell by cell: it fills whole rows
of a letter's table from atom_cells by the same two shifts
(checking._model_engine).

Intervals are ordered pairs (x, y) with x < y; the point-interval reading is
not used anywhere in this package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

from .parser import is_letter

Interval = Tuple[int, int]


class ModelFormatError(ValueError):
    def __init__(self, message: str, line: int = 0):
        if line:
            super().__init__("%s (line %d)" % (message, line))
        else:
            super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class FiniteDomain:
    """Points 0..last_point inclusive."""

    last_point: int

    def __post_init__(self):
        if self.last_point < 1:
            raise ValueError("a finite domain needs at least two points")


@dataclass(frozen=True)
class PeriodicDomain:
    """The naturals, with valuations repeating with the given period after
    the given prefix."""

    pre: int
    per: int

    def __post_init__(self):
        if self.pre < 1 or self.per < 1:
            raise ValueError("prefix and period must be at least 1")


def valid_interval(domain, i: Interval) -> bool:
    x, y = i
    if not (0 <= x < y):
        return False
    if isinstance(domain, FiniteDomain):
        return y <= domain.last_point
    return True


def canonical_interval(domain, i: Interval) -> Interval:
    """Representative of an interval's periodicity class; the identity on
    finite domains, and idempotent everywhere."""
    x, y = i
    if not (0 <= x < y):
        raise ValueError("not an interval: %r" % (i,))
    if isinstance(domain, FiniteDomain):
        if y > domain.last_point:
            raise ValueError("interval %r outside the domain" % (i,))
        return i
    pre, per = domain.pre, domain.per
    cut = pre + per
    if x >= cut:
        # diagonal shifts until the left endpoint is below pre + per
        k = (x - cut) // per + 1
        x -= k * per
        y -= k * per
    if y >= cut and y - per > x:
        # right-endpoint shifts while y >= pre + per and y - per > x
        y -= ((y - max(cut, x + per + 1)) // per + 1) * per
    return (x, y)


def canonical_cells(domain) -> List[Interval]:
    """The finite cell set a valuation lives on, in (x, y) order."""
    out = []
    if isinstance(domain, FiniteDomain):
        n = domain.last_point
        for x in range(n):
            for y in range(x + 1, n + 1):
                out.append((x, y))
        return out
    pre, per = domain.pre, domain.per
    cut = pre + per
    for x in range(cut):
        for y in range(x + 1, max(cut, x + per + 1)):
            out.append((x, y))
    return out


class IntervalModel:
    """A domain together with a valuation mapping letters to interval sets.

    On periodic domains every stored interval is canonical; the constructor
    canonicalizes whatever it is given.
    """

    __slots__ = ("domain", "_val", "_hash")

    def __init__(self, domain, valuation: Mapping[str, Iterable[Interval]]):
        norm: Dict[str, FrozenSet[Interval]] = {}
        for letter in sorted(valuation):
            cells = set()
            for i in valuation[letter]:
                i = (int(i[0]), int(i[1]))
                if not valid_interval(domain, i):
                    raise ValueError(
                        "interval %r outside the domain for letter %r"
                        % (i, letter))
                cells.add(canonical_interval(domain, i))
            if cells:  # a nowhere-true letter is the same as an absent one
                norm[letter] = frozenset(cells)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_val", norm)
        key = (domain, tuple((p, tuple(sorted(cs))) for p, cs in norm.items()))
        object.__setattr__(self, "_hash", hash(key))

    @property
    def valuation(self) -> Dict[str, FrozenSet[Interval]]:
        return dict(self._val)

    @property
    def letters(self) -> List[str]:
        return sorted(self._val)

    def holds_atom(self, i: Interval, letter: str) -> bool:
        cells = self._val.get(letter)
        if not cells:
            return False
        return canonical_interval(self.domain, i) in cells

    def atom_cells(self, letter: str) -> FrozenSet[Interval]:
        return self._val.get(letter, frozenset())

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntervalModel)
                and self.domain == other.domain and self._val == other._val)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "IntervalModel(%r, %d letters)" % (self.domain, len(self._val))


def finite_model(last_point: int,
                 valuation: Mapping[str, Iterable[Interval]]) -> IntervalModel:
    return IntervalModel(FiniteDomain(last_point), valuation)


def periodic_model(pre: int, per: int,
                   valuation: Mapping[str, Iterable[Interval]]) -> IntervalModel:
    return IntervalModel(PeriodicDomain(pre, per), valuation)


def reverse_interval(last_point: int, i: Interval) -> Interval:
    x, y = i
    return (last_point - y, last_point - x)


def reverse_model(model: IntervalModel) -> IntervalModel:
    """Reflect a finite model through the midpoint of its order."""
    if not isinstance(model.domain, FiniteDomain):
        raise ValueError("only finite models can be reversed")
    n = model.domain.last_point
    val = {
        letter: [reverse_interval(n, i) for i in cells]
        for letter, cells in model.valuation.items()
    }
    return IntervalModel(model.domain, val)


def load_model(text: str) -> IntervalModel:
    """Parse the .ism model format.

    The first directive is either "order finite N" or
    "order periodic pre=P per=Q"; every following "val LETTER X Y" line adds
    one interval to a letter. Comments start with "#". On periodic domains
    entries are canonicalized on load, and two entries that land on the same
    canonical cell are rejected as duplicates.
    """
    domain = None
    seen = set()
    val: Dict[str, set] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "order":
            if domain is not None:
                raise ModelFormatError("repeated order directive", lineno)
            if len(parts) == 3 and parts[1] == "finite":
                try:
                    n = int(parts[2])
                except ValueError:
                    raise ModelFormatError("bad point count %r" % parts[2],
                                           lineno)
                if n < 1:
                    raise ModelFormatError("finite order needs at least two "
                                           "points", lineno)
                domain = FiniteDomain(n)
            elif len(parts) == 4 and parts[1] == "periodic":
                m_pre = re.match(r"pre=(\d+)$", parts[2])
                m_per = re.match(r"per=(\d+)$", parts[3])
                if not (m_pre and m_per):
                    raise ModelFormatError(
                        "expected 'order periodic pre=P per=Q'", lineno)
                pre, per = int(m_pre.group(1)), int(m_per.group(1))
                if pre < 1 or per < 1:
                    raise ModelFormatError("prefix and period must be at "
                                           "least 1", lineno)
                domain = PeriodicDomain(pre, per)
            else:
                raise ModelFormatError("bad order directive", lineno)
        elif parts[0] == "val":
            if domain is None:
                raise ModelFormatError("val before order directive", lineno)
            if len(parts) != 4:
                raise ModelFormatError("expected 'val LETTER X Y'", lineno)
            letter = parts[1]
            if not is_letter(letter):
                raise ModelFormatError("bad letter %r" % letter, lineno)
            try:
                x, y = int(parts[2]), int(parts[3])
            except ValueError:
                raise ModelFormatError("bad endpoints", lineno)
            if not 0 <= x < y:
                raise ModelFormatError(
                    "degenerate interval [%d, %d]" % (x, y), lineno)
            if not valid_interval(domain, (x, y)):
                raise ModelFormatError(
                    "interval [%d, %d] outside the domain" % (x, y), lineno)
            cell = canonical_interval(domain, (x, y))
            if (letter, cell) in seen:
                raise ModelFormatError(
                    "duplicate valuation entry for %s at [%d, %d]"
                    % (letter, x, y), lineno)
            seen.add((letter, cell))
            val.setdefault(letter, set()).add(cell)
        else:
            raise ModelFormatError("unknown directive %r" % parts[0], lineno)
    if domain is None:
        raise ModelFormatError("missing order directive")
    return IntervalModel(domain, val)


def save_model(model: IntervalModel) -> str:
    lines = []
    d = model.domain
    if isinstance(d, FiniteDomain):
        lines.append("order finite %d" % d.last_point)
    else:
        lines.append("order periodic pre=%d per=%d" % (d.pre, d.per))
    for letter in model.letters:
        for x, y in sorted(model.atom_cells(letter)):
            lines.append("val %s %d %d" % (letter, x, y))
    return "\n".join(lines) + "\n"
