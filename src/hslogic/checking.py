"""Model checking over finite and ultimately periodic interval structures.

One grid engine (_TableEngine) evaluates every formula: a table per
subformula over a window of points 0..h, filled bottom up with one pass per
connective or modality. Which pass a node takes is read in one place,
_fill, which the periodic encoder and the threshold rule share. A table is
a flat list with cell (x, y) at x*(h+1) + y, so a run of cells along a row
is a slice and a column is a strided slice. Truth values are -1 (false), 0
(undetermined) and 1 (true), with max as join, min as meet and unary minus
as negation. The engine is written against those operations, not the
values: sat_bounded_finite runs it with the SAT encoder's gates in their
place, and so encodes a formula over a finite order with the recurrences
this module checks it with. The public functions convert to tables keyed
by (x, y) only at their boundary.

The engine is the one statement of Allen's twelve relations outside the
periodic begin/later encoder (sat._Encoder): six diamonds are written out
(A, iA, B, iB, E, iE), and the other six are one of them over another, by
the six definability equations (_COMPOSED). allen_related lists the
successors of an interval with one engine pass, and bisim._moves those of
every cell of a finite model with one pass per modality.

Finite models are evaluated exactly over the whole domain. Periodic models
are evaluated over windows of growing horizon: scans that reach right without
bound stop where truth starts to repeat, at thresholds derived per
subformula (_fold_thresholds, which the periodic encoder reads too), and
values a window cannot justify are undetermined. A determined value is
exact (strong Kleene logic), so mc_periodic watches only the formula at the
query it is asked, pulled back under those thresholds, and stops once two
consecutive windows give it the same determined value. How many windows it
tries is its own decision, derived from the formula, the model and the
query; no caller sets a budget or a horizon.
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate
from typing import Any, Callable, Dict, List, Optional, Tuple

from .models import (
    Bounds, FiniteDomain, Interval, IntervalModel, PeriodicDomain,
    read_row, reduce_cell, row_stop, valid_interval,
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
    """A fault: the derived number of evaluation horizons ran out before
    two consecutive ones gave the formula the same determined value at the
    pulled-back query, the cell named. The thresholds make every scan from
    that cell conclusive within that number, so this signals a wrong
    threshold or scan bound, not an answer."""

    def __init__(self, subformula: Formula, cell: Interval, rounds: int):
        self.subformula = subformula
        self.cell = cell
        self.rounds = rounds
        super().__init__(
            "no stable value for %s at [%d, %d] after %d rounds"
            % (render(subformula), cell[0], cell[1], rounds))


# The six diamonds that are one diamond over another, <M> s being
# <outer> <inner> s: inner is applied to s's table with s's thresholds,
# outer to the result with the thresholds inner lifts them to (_lift).
# These are the six definability equations atlas.cited_equations lists. L
# is <A> <A>: <A> s holds at (y, u) when s holds somewhere on row u, so
# <L> s holds at (x, y) when s holds on some row past y.
_COMPOSED = {
    "D": ("E", "B"),        # x < x' < y' < y
    "iD": ("iB", "iE"),     # x' < x, y' > y
    "O": ("iB", "E"),       # x < x' < y < y'
    "iO": ("iE", "B"),      # x' < x < y' < y
    "L": ("A", "A"),        # y < x'
    "iL": ("iA", "iA"),     # y' < x
}


def _lift(name: str, b: Bounds, per: int) -> Bounds:
    """The thresholds of <M> s and [M] s, M named name, s having the
    thresholds b = (A, L, D). The two shifts are those stated above
    models.reduce_cell: diagonal, (x, y) to (x - per, y - per) when x - per
    >= D, and right, (x, y) to (x, y - per) when y - per >= A and y - per
    - x >= L. A lift rule holds when each shift of a cell past the new
    thresholds maps the successors of the cell onto those of its image,
    value for value, both ways. Every node has A <= D + L - 1: an atom and
    a constant meet it with equality, the componentwise max keeps it, and
    so does each rule below, which lean on it where a right shift needs y
    - per >= A. The six written out:

    * A joins s over row y, (y, u) with u > y, so it depends on y alone:
      (D, 1, D). Once y - per >= D each (y, u) has the value of its
      diagonal shift (y - per, u - per), so rows y and y - per hold the
      same values, and both shifts lower y by per.
    * iA joins s over column x, (u, x) with u < x, so it depends on x
      alone: (0, 1, D + per + L - 1). Past that, a cell (u, x) with u >= D
      + per has the value of its diagonal shift (u - per, x - per), and
      one with u < D + per that of its right shift (u, x - per), as x - per
      - u >= L; back the other way, (u, x - per) is a diagonal shift of (u
      + per, x) when u >= D, and a right shift of (u, x) when u < D.
    * B joins s over (x, y'), x < y' < y: (A + per, L + per, D). A diagonal
      shift moves every successor along, each still past D. A right shift
      drops the y' with y - per <= y' < y, each past A + per and x + L +
      per, so each has the value of (x, y' - per), a successor still.
    * iB joins s over (x, y'), y' > y: unchanged. A diagonal shift moves
      the successors along; a right shift adds the y' with y - per < y' <=
      y, each past A and x + L, so each has the value of (x, y' + per), a
      successor already.
    * E joins s over (u, y), x < u < y: (D + per + L - 1, L + per, D). A
      diagonal shift moves every successor along. Under a right shift a
      successor (u, y) with u <= y - per - L has the value of (u, y - per),
      and one with u > y - per - L that of (u - per, y - per), as u - per
      >= D and, by the length term, u - per > x: both successors of (x, y
      - per). Back the other way, (u, y - per) has the value of (u + per,
      y) when u >= D, and of (u, y) when u < D.
    * iE joins s over (u, y), u < x: (A, max(1, L - 1), D + per + max(0, L
      - 2)). A right shift takes each (u, y) to (u, y - per), as y - per >=
      A and y - per - u >= y - per - x + 1 >= L. Under a diagonal shift,
      x - per >= D', a successor (u, y) with u >= D + per has the value of
      (u - per, y - per), and one with u < D + per, so u < x - per, that
      of (u, y - per), as y - per >= D' + 1 >= A and y - per - u >= D' + 2
      - D - per >= L; back the other way, (u, y - per) has the value of (u
      + per, y) when u >= D, and of (u, y) when u < D.

    Two rules keep slack: A's diagonal term could be max(0, D - 1), as y
    - per > x - per, and iB could lower A by one and L to max(1, L - 1),
    as each y' a right shift adds is past y - per.
    The other six lift through _COMPOSED, outer over inner."""
    composed = _COMPOSED.get(name)
    if composed is not None:
        inner, outer = composed
        return _lift(outer, _lift(inner, b, per), per)
    a, l, d = b
    if name == "B":
        return (a + per, l + per, d)
    if name == "iB":
        return b
    if name == "A":
        return (d, 1, d)
    if name == "iA":
        return (0, 1, d + per + l - 1)
    if name == "E":
        return (d + per + l - 1, l + per, d)
    return (a, max(1, l - 1), d + per + max(0, l - 2))     # iE


def _fill(order: List[Formula], out: Dict[Formula, Any], alg) -> dict:
    """Give each node of order, a postorder, that has no entry in out the
    value alg makes of it from its operands' entries; return out.

    This is the one reading of the connectives. Its back-ends are the grid
    engine's tables (_TableEngine), the periodic encoder's rows
    (sat._Encoder) and the thresholds (_fold_thresholds), and each supplies
    only its representation's operations:

    * atom(name), a letter's value, and constant(v), v being 1 for true
      and -1 for false;
    * negation(x);
    * and2 and or2, operations on two cells, and pointwise(f, op, x, y),
      which applies op to the operand values x and y of node f cell by
      cell;
    * diamond(f, x), the diamond of the modality of f, a diamond or a box,
      over the value x.

    A conjunction and a disjunction are and2 and or2 cell by cell. An
    implication s -> t is the disjunction of ~s with t. A box [M] s is ~<M>
    ~s: the negation of the diamond over the negated operand. Anything else
    is a TypeError. The pre-check's tableau (sat._expand) keeps its own
    walk, as its letters are whole diamonds and boxes and it reads a
    formula one branch at a time."""
    for f in order:
        if f in out:
            continue
        t = type(f)
        if t is Atom:
            v = alg.atom(f.name)
        elif t is Not:
            v = alg.negation(out[f.sub])
        elif t is And:
            v = alg.pointwise(f, alg.and2, out[f.lhs], out[f.rhs])
        elif t is Or:
            v = alg.pointwise(f, alg.or2, out[f.lhs], out[f.rhs])
        elif t is Implies:
            v = alg.pointwise(f, alg.or2, alg.negation(out[f.lhs]), out[f.rhs])
        elif t is Diamond:
            v = alg.diamond(f, out[f.sub])
        elif t is Box:
            v = alg.negation(alg.diamond(f, alg.negation(out[f.sub])))
        elif t is TrueConst or t is FalseConst:
            v = alg.constant(_T if t is TrueConst else _F)
        else:
            raise TypeError("not a formula: %r" % (f,))
        out[f] = v
    return out


class _Thresholds:
    """_fill's algebra for _fold_thresholds: a node's value is its
    thresholds (A, L, D) over the split (pre, per)."""

    and2 = or2 = max

    def __init__(self, pre: int, per: int):
        self.pre, self.per = pre, per

    def atom(self, name: str) -> Bounds:
        return (self.pre, 1, self.pre)

    def constant(self, v: int) -> Bounds:
        return (0, 1, 0)

    def negation(self, b: Bounds) -> Bounds:
        return b

    def pointwise(self, f: Formula, op, b: Bounds, c: Bounds) -> Bounds:
        return tuple(map(op, b, c))

    def diamond(self, f: Formula, b: Bounds) -> Bounds:
        return _lift(f.mod.name, b, self.per)


def _fold_thresholds(order: List[Formula], pre: int,
                     per: int) -> Dict[Formula, Bounds]:
    """The thresholds (A, L, D) of every node of order, a postorder, over
    the split (pre, per): the one threshold rule of the checker and of the
    periodic encoder (sat._Encoder). An atom repeats past (pre, 1, pre),
    the thresholds of models.canonical_interval, and a constant past (0,
    1, 0). A negation or a connective holds with its operands at the same
    cell, so it repeats where all of them do: negation keeps its operand's
    thresholds and a connective takes the componentwise max. A diamond, and
    so a box, lifts its operand's thresholds (_lift)."""
    return _fill(order, {}, _Thresholds(pre, per))


class _TableEngine:
    """The one grid evaluator: a table per subformula over the window
    0..horizon, with the semantics written once against an algebra.

    A table is a flat list over x < horizon with cell (x, y) at x*w + y,
    w = horizon + 1. The slots with y <= x hold constants and are never
    read. The algebra is atom(name), a letter's table, and three operations
    on values: join of a list, or2 and and2. In both algebras -1 is false, 1
    is true, negation is unary minus and a join over a true value is true.
    For the three-valued lattice the operations are max and min. The engine
    is a back-end of _fill, which reads the connectives and the boxes, so it
    supplies constant tables, negation and or2/and2 cell by cell, and the
    diamonds. Passed
    sat._Cnf's folding gates, with atom variables as atom tables, the same
    recurrences encode a formula as CNF; unread slots then fold to
    constants and make no gates.

    period=(per, bounds) makes the window a prefix of a periodic domain of
    period per, which only the lattice is used with; bounds maps each node
    to its thresholds (_fold_thresholds). Joins that reach right without
    bound stop at models.row_stop for the thresholds of what they join, and
    a join the window cuts short of its stop takes in undetermined. A
    scans once per column (_scan); iB fills each row with running joins
    (_row_joins). Without a period the window is a whole finite domain and
    every value is exact.

    Six diamonds are written out (A, iA, B, iB, E, iE), and the other six
    are two of them (_COMPOSED)."""

    def __init__(self, horizon: int, atom: Callable[[str], List[int]],
                 join: Callable[[List[int]], int],
                 or2: Callable[[int, int], int],
                 and2: Callable[[int, int], int],
                 period: Optional[Tuple[int, Dict[Formula, Bounds]]] = None):
        self.h = horizon
        self.w = horizon + 1
        self.atom = atom
        self.join, self.or2, self.and2 = join, or2, and2
        self.period = period
        self.tables: Dict[Formula, List[int]] = {}

    def table(self, phi: Formula) -> List[int]:
        if phi not in self.tables:
            self.fill(postorder(phi))
        return self.tables[phi]

    def fill(self, order: List[Formula]) -> Dict[Formula, List[int]]:
        """Compute the table of every node of order, a postorder, that has
        none yet (_fill, with this engine as the algebra); return the
        tables."""
        return _fill(order, self.tables, self)

    def constant(self, v: int) -> List[int]:
        return [v] * (self.h * self.w)

    def negation(self, C: List[int]) -> List[int]:
        return [-v for v in C]

    def pointwise(self, f: Formula, op, C: List[int],
                  D: List[int]) -> List[int]:
        return list(map(op, C, D))

    def diamond(self, f: Formula, C: List[int]) -> List[int]:
        return self._diamond(f.mod.name, C,
                             self.period and self.period[1][f.sub])

    def _diamond(self, name: str, C: List[int],
                 b: Optional[Bounds]) -> List[int]:
        """The table of a diamond over the child table C, whose formula
        has the thresholds b (None without a period)."""
        composed = _COMPOSED.get(name)
        if composed is not None:
            inner, outer = composed
            lifted = b and _lift(inner, b, self.period[0])
            return self._diamond(outer, self._diamond(inner, C, b), lifted)
        h, w, or2 = self.h, self.w, self.or2
        out = [_F] * (h * w)
        if name == "A":
            # (y, y') with y' > y, the same for every x: fill column y
            for y in range(1, h + 1):
                v = self._scan(C, b, y)
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
                out[r + x + 1:r + h + 1] = self._row_joins(C, b, x)
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

    def _row_joins(self, C: List[int], b: Optional[Bounds],
                   x: int) -> List[int]:
        """Row x of <iB> over C: for each y in x+1..h the join of C over
        the cells (x, y'), y' > y, by running joins along the row.

        Without a period this is a ladder from the end of the row, the
        mirror of E's column ladder. With one, let cap = models.row_stop(b,
        per, x, x) and t = cap - per + 1: row_stop gives every y < t the
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
            per = self.period[0]
            cap = row_stop(b, per, x, x)
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

    def _scan(self, C: List[int], b: Optional[Bounds], y: int) -> int:
        """Join of C over the cells (y, y'), y' > y, for A. Unbounded to
        the right; on a periodic domain the scan stops at models.row_stop
        and joins in undetermined if the window ends first."""
        hi, exact = self.h, True
        if self.period is not None:
            cap = row_stop(b, self.period[0], y, y)
            hi, exact = min(hi, cap), cap <= hi
        r = y * self.w
        v = self.join(C[r + y + 1:r + hi + 1])
        return v if exact else self.or2(v, _U)


def allen_related(domain, i: Interval, mod: Modality) -> List[Interval]:
    """All intervals standing in the given relation to i, in (x, y) order:
    the cells where the inverse diamond holds over a letter true only at i,
    by one engine pass.

    On a finite domain the answer is exact. On a periodic domain the pass
    runs on the window 0..y, which holds every successor of the seven
    relations bounded by i's right endpoint (B, E, D, iA, iE, iL, iO). The
    other five (A, iB, L, iD, O) have infinitely many successors there and
    are a ValueError; allen_related(FiniteDomain(h), i, mod) lists those in
    the window 0..h."""
    if not valid_interval(domain, i):
        raise ValueError("interval %r outside the domain" % (i,))
    x, y = i
    if isinstance(domain, FiniteDomain):
        h = domain.last_point
    elif mod.name in ("A", "iB", "L", "iD", "O"):
        raise ValueError("%s has infinitely many successors on an unbounded "
                         "domain" % mod.name)
    else:
        h = y
    w = h + 1
    letter = [_F] * (h * w)
    letter[x * w + y] = _T
    rel = _TableEngine(h, None, _join, max, min)._diamond(
        mod.inverse().name, letter, None)
    return [divmod(k, w) for k, v in enumerate(rel) if v == _T]


def _model_engine(model: IntervalModel, horizon: int,
                  bounds: Optional[Dict[Formula, Bounds]] = None
                  ) -> _TableEngine:
    """The engine over a model's window 0..horizon in the three-valued
    lattice; on a periodic domain bounds gives the thresholds of the nodes
    its diamonds and boxes read (_fold_thresholds).

    A letter's table is filled row by row from its canonical cells,
    model.atom_cells(letter). On a finite domain the window is the whole
    domain, so each cell is stamped where it stands. On a periodic domain
    the canonical cells are the fixed points of the atom thresholds
    (pre, 1, pre) (models.reduce_cell): each row x < pre + per is read from
    them by models.read_row, and each later row x is row x - per one cell
    on, by a diagonal shift. Each row is one slice assignment, with no
    canonical_interval call."""
    d = model.domain
    h, w = horizon, horizon + 1
    period = (d.per, bounds) if isinstance(d, PeriodicDomain) else None

    def atom(name: str) -> List[int]:
        table = [_F] * (h * w)
        if period is None:
            for x, y in model.atom_cells(name):
                table[x * w + y] = _T
            return table
        pre, per = d.pre, d.per
        b, cut = (pre, 1, pre), pre + per
        rows = [[_F] * (row_stop(b, per, x, x) - x)
                for x in range(min(cut, h))]
        for x, y in model.atom_cells(name):
            if x < h:
                rows[x][y - x - 1] = _T
        for x in range(h):
            r = x * w
            if x < cut:
                table[r + x + 1:r + h + 1] = read_row(rows, per, x, h)
            else:
                q = r - per * (w + 1)   # row x - per, one cell on
                table[r + x + 1:r + h + 1] = table[q + x + 1:q + h + 1]
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
        grid, w = self._engine.table(phi), self._engine.w
        return {(x, y): grid[x * w + y] == _T
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


def _reduce_query(domain: PeriodicDomain, i: Interval, b: Bounds) -> Interval:
    """Pull a far-away query interval back to its fixed point under the
    thresholds b of the formula asked, where its truth is the same."""
    return reduce_cell(b, domain.per, *i)


def _scan_frontier(pre: int, per: int, b: Bounds, depth: int,
                   y0: int) -> int:
    """Horizon large enough that every scan reachable from a cell with
    right endpoint y0 stays inside the grid, b being the componentwise max
    of the thresholds of a formula's nodes. Each modality level moves the
    frontier at most twice (L scans rows from scanned start points), hence
    the doubled step count."""
    f = y0
    for _ in range(2 * depth + 1):
        f = row_stop(b, per, f, f)
    return max(f, pre + per + 1)


def mc_periodic(model: IntervalModel, i: Interval, phi: Formula) -> bool:
    """Truth of phi at interval i over an ultimately periodic model.

    The query is pulled back under phi's thresholds (_reduce_query), and
    tables are built at horizons base + k*per, base the larger of pre and
    the pulled-back right endpoint, k = 2, 3, ..., until phi's value there
    is determined and the same at two consecutive horizons. A determined
    value is exact, so nothing else is watched; the second horizon checks
    that it does not move as the window grows. phi's postorder is listed
    once, gives every node its thresholds (_fold_thresholds) and fills each
    horizon's fresh engine.

    The number of horizons is derived here, and only here: enough for every
    scan from the query to end inside the window, max(depth + 2,
    ceil((need - base) / per) + 1), need being _scan_frontier's horizon for
    the query. Running out of them is a fault, NotStabilized, naming phi
    and the pulled-back query."""
    domain = model.domain
    if not isinstance(domain, PeriodicDomain):
        raise TypeError("mc_periodic needs a periodic model")
    i = tuple(i)
    if not valid_interval(domain, i):
        raise ValueError("not an interval: %r" % (i,))
    pre, per = domain.pre, domain.per
    depth = modal_depth(phi)
    nodes = postorder(phi)
    bounds = _fold_thresholds(nodes, pre, per)
    query = x, y = _reduce_query(domain, i, bounds[phi])
    top = tuple(map(max, zip(*bounds.values())))
    need = _scan_frontier(pre, per, top, depth, y)
    base = max(pre, y)
    rounds = max(depth + 2, -((base - need) // per) + 1)
    prev = None
    for k in range(2, rounds + 3):
        engine = _model_engine(model, base + k * per, bounds)
        cur = engine.fill(nodes)[phi][x * engine.w + y]
        if cur == prev and cur != _U:
            return cur == _T
        prev = cur
    raise NotStabilized(phi, query, rounds)
