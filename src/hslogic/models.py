"""Interval structures over strongly discrete linear orders.

Two domain shapes are supported: an initial segment {0, ..., N} of the
naturals, and the whole of the naturals presented as an ultimately periodic
structure with a prefix length and a period. In the periodic case a
valuation is stored on a finite set of canonical cells; truth of an atom at
an arbitrary interval is looked up through the canonicalization map, which
quotients the grid by the two periodicity shifts (the comment above
reduce_cell). The model checker does not look atoms up cell by cell: it
fills whole rows of a letter's table from atom_cells (checking._model_engine).

Intervals are ordered pairs (x, y) with x < y; the point-interval reading is
not used anywhere in this package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

from .parser import is_letter

Interval = Tuple[int, int]
# thresholds (A, L, D): absolute right, length and diagonal
Bounds = Tuple[int, int, int]


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


# The periodicity shifts. Truth over an ultimately periodic domain repeats
# with the period past thresholds (A, L, D), which depend on what is
# evaluated: an atom's are (pre, 1, pre), and every subformula's are
# derived from its operands' by one rule, which the checker and the encoder
# share (checking._fold_thresholds). Two shifts lower a cell:
#
#   diagonal  (x, y) has the value of (x - per, y - per) when x - per >= D;
#   right     (x, y) has the value of (x, y - per) when y - per >= A and
#             y - per - x >= L.
#
# A cell neither shift lowers is a fixed point: x < D + per and
# x < y < max(A, x + L) + per, so row x of the fixed points ends at
# row_stop(b, per, x, x). A table kept as those rows is read at any cell
# through reduce_cell, and along a row through read_row. A scan along row x
# past y stops at row_stop, since each value further right repeats one
# before it; a scan over the rows past y stops at later_stop, since past it
# whole rows repeat.

def reduce_cell(b: Bounds, per: int, x: int, y: int) -> Interval:
    """The fixed point (x, y) lowers to under thresholds b: diagonal shifts
    while x - per >= D, then right shifts while y - per >= max(A, x + L)."""
    a, l, d = b
    if x - per >= d:
        k = (x - d) // per * per
        x, y = x - k, y - k
    m = max(a, x + l)
    if y - per >= m:
        y -= (y - m) // per * per
    return x, y


def row_stop(b: Bounds, per: int, x: int, y: int) -> int:
    """The last right endpoint a scan over (x, y'), y' > y, must visit:
    one period past y and past the thresholds A and x + L."""
    a, l, _ = b
    return max(a, x + l, y + 1) + per - 1


def later_stop(b: Bounds, per: int, y: int) -> int:
    """The last left endpoint a scan over the rows x' > y must visit: one
    period past y and past the threshold D."""
    return max(b[2], y + 1) + per - 1


def read_row(rows: List[List[int]], per: int, x: int, hi: int) -> List[int]:
    """The entries at (x, x + 1) .. (x, hi) of a table kept as its rows of
    fixed points: row x lowered by diagonal shifts, then continued by
    repeating its last per entries. A stored row of that length is
    returned itself, not copied, so callers only read the result."""
    n = hi - x
    if x >= len(rows):
        x -= ((x - len(rows)) // per + 1) * per
    row = rows[x]
    if n == len(row):
        return row
    if n > len(row):
        row = row + row[-per:] * -((len(row) - n) // per)
    return row[:n]


def canonical_interval(domain, i: Interval) -> Interval:
    """Representative of an interval's periodicity class, its fixed point
    under the atom thresholds (pre, 1, pre); the identity on finite
    domains, and idempotent everywhere."""
    x, y = i
    if not (0 <= x < y):
        raise ValueError("not an interval: %r" % (i,))
    if isinstance(domain, FiniteDomain):
        if y > domain.last_point:
            raise ValueError("interval %r outside the domain" % (i,))
        return i
    return reduce_cell((domain.pre, 1, domain.pre), domain.per, x, y)


def canonical_cells(domain) -> List[Interval]:
    """The finite cell set a valuation lives on, in (x, y) order: on a
    periodic domain the fixed points of the atom thresholds."""
    out = []
    if isinstance(domain, FiniteDomain):
        n = domain.last_point
        for x in range(n):
            for y in range(x + 1, n + 1):
                out.append((x, y))
        return out
    pre, per = domain.pre, domain.per
    b = (pre, 1, pre)
    for x in range(pre + per):
        for y in range(x + 1, row_stop(b, per, x, x) + 1):
            out.append((x, y))
    return out


class IntervalModel:
    """A domain together with a valuation mapping letters to interval sets.

    On periodic domains every stored interval is canonical; the constructor
    canonicalizes whatever it is given. Every letter must be one the formula
    parser reads as an atom (parser.is_letter), so that a saved model loads
    back; any other is a ValueError.
    """

    __slots__ = ("domain", "_val", "_hash")

    def __init__(self, domain, valuation: Mapping[str, Iterable[Interval]]):
        norm: Dict[str, FrozenSet[Interval]] = {}
        for letter in sorted(valuation):
            if not is_letter(letter):
                raise ValueError("bad letter %r" % (letter,))
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
