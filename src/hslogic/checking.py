"""Model checking over finite and ultimately periodic interval structures.

One grid engine (_TableEngine) evaluates every formula: a table per
subformula over a window of points 0..h, filled bottom up with one pass per
connective or modality. A table is a flat list with cell (x, y) at
x*(h+1) + y, so a run of cells along a row is a slice and a column is a
strided slice. Truth values are -1 (false), 0 (undetermined) and 1 (true),
with max as join, min as meet and unary minus as negation. The engine is
written against those operations, not the values: sat_bounded_finite runs
it with the SAT encoder's gates in their place, and so encodes a formula
over a finite order with the recurrences this module checks it with. The
public functions convert to tables keyed by (x, y) only at their boundary.

The engine is the one statement of Allen's twelve relations outside the
periodic begin/later encoder (sat._Encoder): six diamonds are written out
(A, iA, B, iB, E, iE), and the other six are one of them over another, by
the six definability equations (_COMPOSED). allen_related lists the
successors of an interval with one engine pass.

Finite models are evaluated exactly over the whole domain. Periodic models
are evaluated over windows of growing horizon: scans that reach right without
bound stop at the periodicity caps (the comment above _row_cap), values a
window cannot justify are undetermined, and _stabilized_tables decides when
the windows agree.
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Tuple

from .models import (
    FiniteDomain, Interval, IntervalModel, PeriodicDomain, canonical_cells,
    valid_interval,
)
from .syntax import (
    And, Atom, Box, Diamond, FalseConst, Formula, Implies, Modality, Not,
    Or, TrueConst, modal_depth, postorder, render,
)

# The three-valued lattice: -1 false, 0 undetermined, 1 true, with max as
# join and min as meet. Negation is unary minus, as for the literals of
# sat._Cnf, whose constants are 1 and -1.
_F, _U, _T = -1, 0, 1
_join = partial(max, default=_F)


class NotStabilized(Exception):
    """Raised when consecutive evaluation horizons keep disagreeing."""

    def __init__(self, subformula: Formula, cell: Interval, rounds: int):
        self.subformula = subformula
        self.cell = cell
        self.rounds = rounds
        super().__init__(
            "no stable value for %s at [%d, %d] after %d rounds"
            % (render(subformula), cell[0], cell[1], rounds))


# The periodicity caps. A periodic domain repeats its valuation with the
# period past the prefix: an atom has the same truth at [x, y] and at
# [x, y + per] once y >= pre, and at [x + per, y + per] once x >= pre. The
# rule used here is that this lifts level by level, with three thresholds
# for a formula of modal depth d:
#
#   absolute right   y >= pre + 2*d*per
#   length           y - x >= (2*d + 1)*per + 1
#   diagonal         x >= pre + 2*d*per
#
# Past the first two, truth repeats when the right endpoint alone moves by
# one period; past the third, when both endpoints do. Each modality lifts
# its child's thresholds by one level:
#
# * B, E and D look inside [x, y]. Each interval inside [x, y + per] is
#   matched to one inside [x, y] with the same value: a long one by a
#   right shift back a period, a short one near the new end by a diagonal
#   shift. The match stays inside [x, y] only when [x, y] is some periods
#   longer than the child's length threshold: the length term. Without it,
#   truth under nested D, B and E still depends on the interval's length
#   past the absolute threshold.
# * iB, A, L, iD and O reach right without bound. Their scans stop one
#   period past the child's thresholds (the caps below), so every value
#   further right repeats one already scanned, and moving [x, y] by a
#   period moves the scanned values with it.
# * iE, iA, iL and iO look left of the left endpoint or across it. A
#   diagonal shift adds successors in the period before the new left
#   endpoint, which repeat earlier ones once they clear the child's
#   diagonal threshold.
#
# This is an argument, not a proof: the step of two periods per level and
# the 2*d + 1 of the length term are fitted, not derived. They are the
# values under which mc_periodic agrees with the independent three-valued
# oracle on every definite verdict of an all-modality fuzz
# (tests/test_known_faults.py), where a length term of per + 1 at every
# depth gives wrong answers. A scan that runs one period past the
# thresholds has then seen every value there is to see. The checker's A
# and L scans, iB row joins and horizon and query reductions cut where
# these two functions say. sat._Encoder derives its own thresholds per
# subformula instead, so these caps re-check its certificates independently.
# The iB rows read their one threshold off _row_cap: past
# t = _row_cap(pre, per, depth, x, x) - per + 1 the cap is y + per, and
# before it the same for every cell of row x.

def _row_cap(pre: int, per: int, depth: int, x: int, lo: int) -> int:
    """Largest right endpoint y' a scan over [x, y'], y' > lo, must visit
    for a child of the given depth: one period past lo and past the
    child's absolute-right and length thresholds."""
    return max(pre + 2 * depth * per, x + (2 * depth + 1) * per + 1,
               lo + 1) + per - 1


def _later_cap(pre: int, per: int, depth: int, y: int) -> int:
    """Largest left endpoint x' a scan over the intervals after point y
    must visit for a child of the given depth: one period past y and past
    the child's diagonal threshold, beyond which whole rows repeat."""
    return max(pre + 2 * depth * per, y + 1) + per - 1


# The six diamonds that are one diamond over another, <M> s being
# <outer> <inner> s: inner is applied to s's table with s's depth, outer to
# the result. These are the six definability equations atlas.cited_equations
# lists. "later" is <A> whose scan of row y stops at the later cap: <L> s
# holds at (x, y) when <A> s holds at some (y, u), u > y, and past that cap
# whole rows repeat.
_COMPOSED = {
    "D": ("E", "B"),        # x < x' < y' < y
    "iD": ("iB", "iE"),     # x' < x, y' > y
    "O": ("iB", "E"),       # x < x' < y < y'
    "iO": ("iE", "B"),      # x' < x < y' < y
    "L": ("A", "later"),    # y < x'
    "iL": ("iA", "iA"),     # y' < x
}


class _TableEngine:
    """The one grid evaluator: a table per subformula over the window
    0..horizon, with the semantics written once against an algebra.

    A table is a flat list over x < horizon with cell (x, y) at x*w + y,
    w = horizon + 1. The slots with y <= x hold constants and are never
    read. The algebra is atom(name), a letter's table, and three operations
    on values: join of a list, or2 and and2. In both algebras -1 is false, 1
    is true, negation is unary minus and a join over a true value is true.
    For the three-valued lattice the operations are max and min. Passed
    sat._Cnf's folding gates, with atom variables as atom tables, the same
    recurrences encode a formula as CNF; unread slots then fold to
    constants and make no gates.

    period=(pre, per) makes the window a prefix of a periodic domain, which
    only the lattice is used with: joins that reach right without bound
    stop at the caps above, and a join the window cuts short of its cap
    takes in undetermined. A and later scan once per column (_scan); iB
    fills each row with running joins (_row_joins). Without a period the
    window is a whole finite domain and every value is exact.

    Six diamonds are written out (A, iA, B, iB, E, iE), the other six are
    two of them (_COMPOSED), and a box [M] s is the negation of <M> ~s."""

    def __init__(self, horizon: int, atom: Callable[[str], List[int]],
                 join: Callable[[List[int]], int],
                 or2: Callable[[int, int], int],
                 and2: Callable[[int, int], int],
                 period: Optional[Tuple[int, int]] = None):
        self.h = horizon
        self.w = horizon + 1
        self.atom = atom
        self.join, self.or2, self.and2 = join, or2, and2
        self.period = period
        self.tables: Dict[Formula, List[int]] = {}

    def table(self, phi: Formula) -> List[int]:
        got = self.tables.get(phi)
        if got is not None:
            return got
        for node in postorder(phi):
            if node not in self.tables:
                self.tables[node] = self._compute(node)
        return self.tables[phi]

    def _compute(self, f: Formula) -> List[int]:
        t = type(f)
        if t is Atom:
            return self.atom(f.name)
        if t is Not:
            return [-v for v in self.tables[f.sub]]
        if t is And:
            return list(map(self.and2, self.tables[f.lhs],
                            self.tables[f.rhs]))
        if t is Or:
            return list(map(self.or2, self.tables[f.lhs], self.tables[f.rhs]))
        if t is Implies:
            return list(map(self.or2, [-v for v in self.tables[f.lhs]],
                            self.tables[f.rhs]))
        if t is Diamond:
            return self._diamond(f.mod.name, self.tables[f.sub],
                                 modal_depth(f.sub))
        if t is Box:
            dia = self._diamond(f.mod.name, [-v for v in self.tables[f.sub]],
                                modal_depth(f.sub))
            return [-v for v in dia]
        if t is TrueConst or t is FalseConst:
            return [_T if t is TrueConst else _F] * (self.h * self.w)
        raise TypeError("not a formula: %r" % (f,))

    def _diamond(self, name: str, C: List[int], depth: int) -> List[int]:
        """The table of a diamond over the child table C, whose formula
        has the given modal depth."""
        composed = _COMPOSED.get(name)
        if composed is not None:
            inner, outer = composed
            return self._diamond(outer, self._diamond(inner, C, depth), depth)
        h, w, or2 = self.h, self.w, self.or2
        out = [_F] * (h * w)
        if name == "A" or name == "later":
            # (y, y') with y' > y, the same for every x: fill column y
            for y in range(1, h + 1):
                v = self._scan(C, depth, y, name == "later")
                out[y:y * w + y:w] = [v] * y
        elif name == "iA":
            # (x', x): column x, the same for every y: fill row x
            for x in range(1, h):
                r = x * w
                out[r + x + 1:r + h + 1] = [self.join(C[x:r + x:w])] * (h - x)
        elif name == "B":
            # (x, y') with y' < y: a ladder along each row
            for x in range(h):
                r = x * w
                out[r + x + 1:r + h + 1] = accumulate(C[r + x + 1:r + h], or2,
                                                      initial=_F)
        elif name == "iB":
            # (x, y') with y' > y: a ladder along each row, from the right
            for x in range(h):
                r = x * w
                out[r + x + 1:r + h + 1] = self._row_joins(C, depth, x)
        elif name == "E":
            # (x', y) with x' > x: a ladder up each column, from y - 1 down
            for y in range(1, h + 1):
                col = list(accumulate(C[(y - 1) * w + y:y:-w], or2,
                                      initial=_F))
                col.reverse()
                out[y:y * w + y:w] = col
        elif name == "iE":
            # (x', y) with x' < x: a ladder down each column
            for y in range(1, h + 1):
                out[y:y * w + y:w] = accumulate(C[y:(y - 1) * w + y:w], or2,
                                                initial=_F)
        else:
            raise ValueError("unknown modality %r" % name)
        return out

    def _row_joins(self, C: List[int], depth: int, x: int) -> List[int]:
        """Row x of <iB> over C: for each y in x+1..h the join of C over
        the cells (x, y'), y' > y, by running joins along the row.

        Without a period this is a ladder from the end of the row, the
        mirror of E's column ladder. With one, let cap = _row_cap(pre, per,
        depth, x, x) and t = cap - per + 1: _row_cap gives every y < t the
        same cap, and every y >= t the cap y + per. So the cells before t
        are one ladder from min(cap, h), started at undetermined when the
        window ends before cap, and from t on each cell joins the window
        y < y' <= y + per: per shifted slices of the row under or2, each
        padded with undetermined past h, as a scan cut short by the window
        joins in undetermined."""
        h, or2 = self.h, self.or2
        r = x * self.w
        t, hi, start = h + 1, h, _F
        if self.period is not None:
            pre, per = self.period
            cap = _row_cap(pre, per, depth, x, x)
            t, hi = cap - per + 1, min(cap, h)
            if cap > h:
                start = _U
        row = list(accumulate(C[r + hi:r + x + 1:-1], or2, initial=start))
        row.reverse()
        n = h + 1 - t
        if n <= 0:
            return row
        del row[t - x - 1:]
        win = C[r + t + 1:r + h + 1] + [_U]
        for k in range(2, per + 1):
            win = list(map(or2, win,
                           C[r + t + k:r + h + 1] + [_U] * min(k, n)))
        return row + win

    def _scan(self, C: List[int], depth: int, y: int, later: bool) -> int:
        """Join of C over the cells (y, y'), y' > y, for A and later.
        Unbounded to the right; on a periodic domain the scan stops at the
        row cap, or at the later cap, and joins in undetermined if the
        window ends first."""
        hi, exact = self.h, True
        if self.period is not None:
            pre, per = self.period
            cap = (_later_cap(pre, per, depth, y) if later
                   else _row_cap(pre, per, depth, y, y))
            hi, exact = min(hi, cap), cap <= hi
        r = y * self.w
        v = self.join(C[r + y + 1:r + hi + 1])
        return v if exact else self.or2(v, _U)


def allen_related(domain, i: Interval, mod: Modality,
                  horizon: Optional[int] = None) -> List[Interval]:
    """All intervals standing in the given relation to i, in (x, y) order:
    the cells where the inverse diamond holds over a letter true only at i,
    by one engine pass.

    On a finite domain the answer is exact. On a periodic domain the pass
    runs on the window 0..max(horizon, y), so the five relations that reach
    arbitrarily far right (A, iB, L, iD, O) are cut off at the supplied
    horizon, which is therefore required there; the others stay in 0..y."""
    if not valid_interval(domain, i):
        raise ValueError("interval %r outside the domain" % (i,))
    x, y = i
    if isinstance(domain, FiniteDomain):
        h = domain.last_point
    elif horizon is not None:
        h = max(horizon, y)
    elif mod.name in ("A", "iB", "L", "iD", "O"):
        raise ValueError("a horizon is required for %s on an unbounded "
                         "domain" % mod.name)
    else:
        h = y
    w = h + 1
    letter = [_F] * (h * w)
    letter[x * w + y] = _T
    rel = _TableEngine(h, None, _join, max, min)._diamond(
        mod.inverse().name, letter, 0)
    return [divmod(k, w) for k, v in enumerate(rel) if v == _T]


def _model_engine(model: IntervalModel, horizon: int) -> _TableEngine:
    """The engine over a model's window 0..horizon in the three-valued
    lattice.

    A letter's table is filled row by row from its canonical cells,
    model.atom_cells(letter). On a finite domain the window is the whole
    domain, so each cell is stamped where it stands. On a periodic domain,
    with cut = pre + per, the two shifts of models.canonical_interval give
    every row from a few stored ones:

    * diagonal: row x >= cut reads row x - k*per at the same offsets
      y - x, k being the shift count that brings x below cut;
    * right: inside a row xc < cut, the value at y is the value at
      y - per once y >= m = max(cut, xc + per + 1).

    So row xc is its canonical segment, the cells (xc, y) with
    xc < y < m (max(cut - 1 - xc, per) of them), followed by its last per
    entries repeated, and row x takes the first h - x entries of row xc.
    Each row is one slice assignment, with no canonical_interval call."""
    d = model.domain
    h, w = horizon, horizon + 1
    period = (d.pre, d.per) if isinstance(d, PeriodicDomain) else None

    def atom(name: str) -> List[int]:
        table = [_F] * (h * w)
        if period is None:
            for x, y in model.atom_cells(name):
                table[x * w + y] = _T
            return table
        pre, per = period
        cut = pre + per
        rows = [[_F] * max(cut - 1 - xc, per) for xc in range(min(cut, h))]
        for x, y in model.atom_cells(name):
            if x < h:
                rows[x][y - x - 1] = _T
        for xc, row in enumerate(rows):
            short = h - xc - len(row)
            if short > 0:
                row += row[-per:] * -(-short // per)
        for x in range(h):
            xc = x if x < cut else x - ((x - cut) // per + 1) * per
            table[x * w + x + 1:x * w + h + 1] = rows[xc][:h - x]
        return table

    return _TableEngine(horizon, atom, _join, max, min, period)


class FiniteEvaluator:
    """Exact truth tables over a finite model, cached per subformula so many
    formulas can be checked against one model cheaply."""

    def __init__(self, model: IntervalModel):
        if not isinstance(model.domain, FiniteDomain):
            raise TypeError("FiniteEvaluator needs a finite model")
        self._engine = _model_engine(model, model.domain.last_point)

    def table(self, phi: Formula) -> Dict[Interval, bool]:
        raw, w = self._engine.table(phi), self._engine.w
        return {(x, y): raw[x * w + y] == _T
                for x in range(w - 1) for y in range(x + 1, w)}

    def value(self, phi: Formula, i: Interval) -> bool:
        x, y = i
        w = self._engine.w
        if not 0 <= x < y < w:
            raise ValueError("interval %r outside the domain" % (i,))
        return self._engine.table(phi)[x * w + y] == _T


def mc_finite(model: IntervalModel, i: Interval, phi: Formula) -> bool:
    if not isinstance(model.domain, FiniteDomain):
        raise TypeError("mc_finite needs a finite model")
    return FiniteEvaluator(model).value(phi, tuple(i))


def _reduce_query(domain: PeriodicDomain, i: Interval, depth: int) -> Interval:
    """Pull a far-away query interval back toward the origin along the two
    periodicity shifts, staying within the region where truth of a formula
    of the given depth is invariant."""
    pre, per = domain.pre, domain.per
    x, y = i
    # the last left endpoint a later scan from point 0 visits
    top = _later_cap(pre, per, depth, 0)
    if x > top:
        # diagonal shifts until the left endpoint is at most top
        k = (x - top - 1) // per + 1
        x -= k * per
        y -= k * per
    cap = _row_cap(pre, per, depth, x, x)
    if y > cap:
        # right-endpoint shifts until y is at most cap
        y -= ((y - cap - 1) // per + 1) * per
    return (x, y)


def _scan_frontier(pre: int, per: int, depth: int, y0: int) -> int:
    """Horizon large enough that every periodicity-capped scan reachable
    from a cell with right endpoint y0 stays inside the grid. Each modality
    level moves the frontier at most twice (the later modality scans rows
    from scanned start points), hence the doubled step count."""
    f = y0
    for _ in range(2 * depth + 1):
        f = _row_cap(pre, per, depth, f, f)
    return max(f, pre + per + 1)


def _stabilized_tables(model: IntervalModel, phi: Formula,
                       max_rounds: Optional[int],
                       extra_cells: Tuple[Interval, ...] = ()):
    """Recompute tables at horizons base + k*per until two consecutive
    horizons agree, with determined values, on every watched cell for every
    subformula, else raise NotStabilized naming the first (subformula, cell)
    that differs. Returns (tables, horizon), the tables flat as the
    engine's. phi's postorder is listed once and fills each round's fresh
    engine; a round's watched values are one list, node by node.

    The default budget is enough rounds for every capped scan from a
    watched cell to end inside the window: max(depth + 2,
    ceil((need - base) / per) + 1), need being _scan_frontier's horizon.
    A budget of 0 counts as 1; a negative one is a ValueError."""
    if max_rounds is not None and max_rounds < 0:
        raise ValueError("the round budget must be at least 0, got %d"
                         % max_rounds)
    domain = model.domain
    depth = modal_depth(phi)
    watch = list(canonical_cells(domain))
    for c in extra_cells:
        if c not in watch:
            watch.append(c)
    base = max(domain.pre, max((c[1] for c in extra_cells), default=0))
    if max_rounds is not None:
        rounds = max(max_rounds, 1)
    else:
        wy = max(c[1] for c in watch)
        need = _scan_frontier(domain.pre, domain.per, depth, wy)
        rounds = max(depth + 2, -((base - need) // domain.per) + 1)
    nodes = postorder(phi)
    prev = None
    for k in range(2, rounds + 3):
        h = base + k * domain.per
        engine = _model_engine(model, h)
        tables = engine.tables
        for node in nodes:
            tables[node] = engine._compute(node)
        keys = [x * engine.w + y for x, y in watch]
        cur = [tables[node][j] for node in nodes for j in keys]
        if cur == prev and _U not in cur:
            return tables, h
        if prev is not None:
            j = next(j for j, (vp, vc) in enumerate(zip(prev, cur))
                     if vc == _U or vp != vc)
            offender = (nodes[j // len(keys)], watch[j % len(keys)])
        prev = cur
    raise NotStabilized(offender[0], offender[1], rounds)


def mc_periodic(model: IntervalModel, i: Interval, phi: Formula,
                max_rounds: Optional[int] = None) -> bool:
    """Truth of phi at interval i over an ultimately periodic model.

    Raises NotStabilized when the evaluation horizons keep disagreeing
    within the round budget: max_rounds, or by default enough rounds for
    every periodicity-capped scan to be conclusive (_stabilized_tables)."""
    if not isinstance(model.domain, PeriodicDomain):
        raise TypeError("mc_periodic needs a periodic model")
    i = tuple(i)
    if not valid_interval(model.domain, i):
        raise ValueError("not an interval: %r" % (i,))
    x, y = _reduce_query(model.domain, i, modal_depth(phi))
    tables, h = _stabilized_tables(model, phi, max_rounds, ((x, y),))
    return tables[phi][x * (h + 1) + y] == _T


def periodic_stable_tables(model: IntervalModel, phi: Formula,
                           max_rounds: Optional[int] = None):
    """Stabilized three-valued tables for phi and all its subformulas.

    Returns (tables, horizon) where tables maps each subformula to a grid
    over the window 0..horizon with values False, None (undetermined), or
    True."""
    if not isinstance(model.domain, PeriodicDomain):
        raise TypeError("periodic tables need a periodic model")
    raw, h = _stabilized_tables(model, phi, max_rounds)
    decode = {_F: False, _U: None, _T: True}
    tables = {
        node: {(x, y): decode[grid[x * (h + 1) + y]]
               for x in range(h) for y in range(x + 1, h + 1)}
        for node, grid in raw.items()
    }
    return tables, h
