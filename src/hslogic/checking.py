"""Model checking over finite and ultimately periodic interval structures.

Finite models are evaluated exactly with per-subformula truth tables filled
by dynamic programming, one pass per modality.

Periodic models need more care. An atom's truth is invariant under the two
periodicity shifts, and that invariance lifts level by level: the truth of a
formula of modal depth d is invariant under right-endpoint shifts by one
period once the endpoint clears roughly pre + 2*d*per, and under diagonal
shifts once the left endpoint does. The evaluator exploits this twice over:

* scans for the five modalities that reach arbitrarily far right (A, iB, L,
  iD, O) are cut off at a cap derived from the child's invariance threshold,
  so a missing witness below the cap proves there is none at all;
* tables are recomputed at growing horizons, and a value is only reported
  once two consecutive horizons agree on every canonical cell for every
  subformula. Values that a horizon cannot justify are carried as a third
  "undetermined" state rather than guessed, and a query that never settles
  raises NotStabilized.

The thresholds are conservative; on the begin/before fragment the tables of
interest settle within a couple of rounds past the formula depth.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .models import (
    FiniteDomain, Interval, IntervalModel, PeriodicDomain, canonical_cells,
    valid_interval,
)
from .syntax import (
    And, Atom, Box, Diamond, FalseConst, Formula, Implies, Not, Or,
    TrueConst, modal_depth, postorder, render,
)

# three-valued lattice: 0 false, 1 undetermined, 2 true
_F, _U, _T = 0, 1, 2


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
# period past the prefix, and the rule assumed here is that this lifts level
# by level: once an endpoint clears pre + 2*depth*per, truth of a formula of
# that modal depth repeats when the endpoint moves by one period (the right
# endpoint alone, or both endpoints together). A scan that runs one period
# past that threshold has then seen every value there is to see. These two
# functions hold the only copy of the rule: the table checker's scans, the
# horizon and query reductions below, and the SAT encoder's iB and L scans
# (sat._Encoder) all cut where they say. The rule is known to fail where
# truth depends on an interval's length (D, B and E nested under a
# right-reaching modality); tests/test_known_faults.py pins such cases.

def _row_cap(pre: int, per: int, depth: int, x: int, lo: int) -> int:
    """Largest right endpoint y' a scan over [x, y'], y' > lo, must visit
    for a child of the given depth."""
    return max(pre + 2 * depth * per, x + per + 1, lo + 1) + per - 1


def _later_cap(pre: int, per: int, depth: int, y: int) -> int:
    """Largest left endpoint x' a scan over the intervals after point y
    must visit for a child of the given depth: the cap of a row scan past
    y whose row starts one period before y, so that x + per + 1 adds
    nothing to the bound."""
    return _row_cap(pre, per, depth, y - per, y)


class _TableEngine:
    """Shared grid evaluator. A finite model is the degenerate case with an
    exact window and no undetermined values."""

    def __init__(self, model: IntervalModel, horizon: int):
        self.model = model
        self.h = horizon
        d = model.domain
        if isinstance(d, PeriodicDomain):
            self.periodic = True
            self.pre, self.per = d.pre, d.per
        else:
            self.periodic = False
            if horizon != d.last_point:
                raise ValueError("finite tables span the whole domain")
        self.cells = [(x, y) for x in range(horizon)
                      for y in range(x + 1, horizon + 1)]
        self.tables: Dict[Formula, Dict[Interval, int]] = {}

    def table(self, phi: Formula) -> Dict[Interval, int]:
        got = self.tables.get(phi)
        if got is not None:
            return got
        for node in postorder(phi):
            if node not in self.tables:
                self.tables[node] = self._compute(node)
        return self.tables[phi]

    def _compute(self, f: Formula) -> Dict[Interval, int]:
        if isinstance(f, Atom):
            holds = self.model.holds_atom
            name = f.name
            return {c: (_T if holds(c, name) else _F) for c in self.cells}
        if isinstance(f, TrueConst):
            return {c: _T for c in self.cells}
        if isinstance(f, FalseConst):
            return {c: _F for c in self.cells}
        if isinstance(f, Not):
            sub = self.tables[f.sub]
            return {c: 2 - sub[c] for c in self.cells}
        if isinstance(f, And):
            a, b = self.tables[f.lhs], self.tables[f.rhs]
            return {c: min(a[c], b[c]) for c in self.cells}
        if isinstance(f, Or):
            a, b = self.tables[f.lhs], self.tables[f.rhs]
            return {c: max(a[c], b[c]) for c in self.cells}
        if isinstance(f, Implies):
            a, b = self.tables[f.lhs], self.tables[f.rhs]
            return {c: max(2 - a[c], b[c]) for c in self.cells}
        if isinstance(f, Diamond):
            return self._diamond(f.mod.name, self.tables[f.sub],
                                 modal_depth(f.sub))
        if isinstance(f, Box):
            sub = self.tables[f.sub]
            neg_sub = {c: 2 - sub[c] for c in self.cells}
            dia = self._diamond(f.mod.name, neg_sub, modal_depth(f.sub))
            return {c: 2 - dia[c] for c in self.cells}
        raise TypeError("not a formula: %r" % (f,))

    def _diamond(self, name: str, C: Dict[Interval, int],
                 child_depth: int) -> Dict[Interval, int]:
        h = self.h
        out: Dict[Interval, int] = {}
        if name == "A":
            per_y: Dict[int, int] = {}
            for (x, y) in self.cells:
                if y not in per_y:
                    per_y[y] = self._scan_row(C, y, y, child_depth)
                out[(x, y)] = per_y[y]
        elif name == "iA":
            colany = self._colany(C)
            for (x, y) in self.cells:
                out[(x, y)] = colany[x]
        elif name == "B":
            for x in range(h):
                acc = _F
                out[(x, x + 1)] = acc
                for y in range(x + 2, h + 1):
                    acc = max(acc, C[(x, y - 1)])
                    out[(x, y)] = acc
        elif name == "iB":
            for (x, y) in self.cells:
                out[(x, y)] = self._scan_row(C, x, y, child_depth)
        elif name == "E":
            for y in range(1, h + 1):
                acc = _F
                for x in range(y - 1, -1, -1):
                    out[(x, y)] = acc
                    acc = max(acc, C[(x, y)])
        elif name == "iE":
            for y in range(1, h + 1):
                acc = _F
                for x in range(0, y):
                    out[(x, y)] = acc
                    acc = max(acc, C[(x, y)])
        elif name == "D":
            for length in range(1, h + 1):
                for x in range(0, h - length + 1):
                    y = x + length
                    acc = _F
                    if x + 1 < y - 1:
                        acc = max(acc, C[(x + 1, y - 1)],
                                  out[(x + 1, y)], out[(x, y - 1)])
                    out[(x, y)] = acc
        elif name == "iD":
            for (x, y) in self.cells:
                best = _F
                complete = True
                for xp in range(0, x):
                    v, ok = self._scan_row_bounded(C, xp, y, child_depth)
                    best = max(best, v)
                    complete = complete and ok
                    if best == _T:
                        break
                if best != _T and not complete:
                    best = _U
                out[(x, y)] = best
        elif name == "L":
            per_y: Dict[int, int] = {}
            for (x, y) in self.cells:
                if y not in per_y:
                    per_y[y] = self._scan_later(C, y, child_depth)
                out[(x, y)] = per_y[y]
        elif name == "iL":
            colany = self._colany(C)
            acc = _F
            pref = [_F] * (h + 2)
            for v in range(1, h + 1):
                acc = max(acc, colany[v])
                pref[v] = acc
            for (x, y) in self.cells:
                out[(x, y)] = pref[x - 1] if x >= 2 else _F
        elif name == "O":
            for (x, y) in self.cells:
                best = _F
                complete = True
                for xp in range(x + 1, y):
                    v, ok = self._scan_row_bounded(C, xp, y, child_depth)
                    best = max(best, v)
                    complete = complete and ok
                    if best == _T:
                        break
                if best != _T and not complete:
                    best = _U
                out[(x, y)] = best
        elif name == "iO":
            colpref: Dict[int, List[int]] = {}
            for yp in range(1, h + 1):
                row = [_F] * (yp + 1)
                acc = _F
                for xp in range(0, yp):
                    row[xp] = acc
                    acc = max(acc, C[(xp, yp)])
                colpref[yp] = row
            for (x, y) in self.cells:
                best = _F
                # successors [x', y'] with x' < x < y' < y; x < y' always
                for yp in range(x + 1, y):
                    best = max(best, colpref[yp][x])
                    if best == _T:
                        break
                out[(x, y)] = best
        else:
            raise ValueError("unknown modality %r" % name)
        return out

    def _colany(self, C: Dict[Interval, int]) -> List[int]:
        """For each point v, the join of the child over intervals ending at
        v. Exact: such intervals lie inside the grid."""
        col = [_F] * (self.h + 1)
        for (x, y), v in C.items():
            if v > col[y]:
                col[y] = v
        return col

    def _scan_row(self, C: Dict[Interval, int], x: int, lo: int,
                  child_depth: int) -> int:
        v, ok = self._scan_row_bounded(C, x, lo, child_depth)
        if v != _T and not ok:
            return _U
        return v

    def _scan_row_bounded(self, C: Dict[Interval, int], x: int, lo: int,
                          child_depth: int) -> Tuple[int, bool]:
        """Join of the child over intervals [x, y'] with y' > lo.

        Unbounded to the right; on a periodic domain the scan stops at the
        cap where the child's values start repeating, so a completed scan is
        conclusive. Returns (value, completed)."""
        h = self.h
        if not self.periodic:
            hi, complete = h, True
        else:
            cap = _row_cap(self.pre, self.per, child_depth, x, lo)
            hi, complete = min(h, cap), cap <= h
        best = _F
        for yp in range(lo + 1, hi + 1):
            v = C[(x, yp)]
            if v > best:
                best = v
                if best == _T:
                    return best, complete
        return best, complete

    def _scan_later(self, C: Dict[Interval, int], y: int,
                    child_depth: int) -> int:
        """Join of the child over intervals lying wholly after point y."""
        h = self.h
        if not self.periodic:
            cx, x_complete = h - 1, True
        else:
            capx = _later_cap(self.pre, self.per, child_depth, y)
            cx, x_complete = min(h - 1, capx), capx <= h - 1
        best = _F
        complete = x_complete
        for xp in range(y + 1, cx + 1):
            v, ok = self._scan_row_bounded(C, xp, xp, child_depth)
            best = max(best, v)
            complete = complete and ok
            if best == _T:
                return best
        if best != _T and not complete:
            return _U
        return best


class FiniteEvaluator:
    """Exact truth tables over a finite model, cached per subformula so many
    formulas can be checked against one model cheaply."""

    def __init__(self, model: IntervalModel):
        if not isinstance(model.domain, FiniteDomain):
            raise TypeError("FiniteEvaluator needs a finite model")
        self._engine = _TableEngine(model, model.domain.last_point)

    def table(self, phi: Formula) -> Dict[Interval, bool]:
        raw = self._engine.table(phi)
        return {c: v == _T for c, v in raw.items()}

    def value(self, phi: Formula, i: Interval) -> bool:
        return self._engine.table(phi)[i] == _T


def mc_finite(model: IntervalModel, i: Interval, phi: Formula) -> bool:
    if not isinstance(model.domain, FiniteDomain):
        raise TypeError("mc_finite needs a finite model")
    if not valid_interval(model.domain, i):
        raise ValueError("interval %r outside the domain" % (i,))
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
    subformula. Returns (tables, horizon)."""
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
        # enough budget that the capped scans are provably all determined
        wy = max(c[1] for c in watch)
        need = _scan_frontier(domain.pre, domain.per, depth, wy)
        rounds = max(depth + 2, -((base - need) // domain.per) + 1)
    nodes = postorder(phi)
    prev = None
    offender = (phi, watch[0])
    for k in range(2, rounds + 3):
        h = base + k * domain.per
        engine = _TableEngine(model, h)
        engine.table(phi)
        cur = engine.tables
        if prev is not None:
            stable = True
            for node in nodes:
                tp, tc = prev[node], cur[node]
                for c in watch:
                    vp, vc = tp[c], tc[c]
                    if vp == _U or vc == _U or vp != vc:
                        if stable:
                            offender = (node, c)
                        stable = False
                        break
                if not stable:
                    break
            if stable:
                return cur, h
        prev = cur
    raise NotStabilized(offender[0], offender[1], rounds)


def mc_periodic(model: IntervalModel, i: Interval, phi: Formula,
                max_rounds: Optional[int] = None) -> bool:
    """Truth of phi at interval i over an ultimately periodic model.

    Raises NotStabilized when the evaluation horizons keep disagreeing
    within the round budget (default: modal depth plus two)."""
    if not isinstance(model.domain, PeriodicDomain):
        raise TypeError("mc_periodic needs a periodic model")
    i = tuple(i)
    if not valid_interval(model.domain, i):
        raise ValueError("not an interval: %r" % (i,))
    q = _reduce_query(model.domain, i, modal_depth(phi))
    tables, _ = _stabilized_tables(model, phi, max_rounds, (q,))
    return tables[phi][q] == _T


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
        node: {c: decode[v] for c, v in grid.items()}
        for node, grid in raw.items()
    }
    return tables, h
