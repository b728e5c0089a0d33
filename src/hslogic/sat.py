"""Satisfiability checking.

Two procedures with different scopes:

* sat_bbll decides formulas built from the begin modalities and the later
  modalities over unbounded strongly discrete orders. It searches
  ultimately periodic valuations by prefix/period split up to the bound T
  from the formula's metrics. For each candidate split it encodes truth of
  the formula somewhere in the order as CNF over atom values on canonical
  cells, and hands the encoding to the clause-learning solver. Scans for
  the right-unbounded modalities are cut at the periodicity caps of the
  model checker (checking._row_cap and checking._later_cap, the one copy of
  that rule), and the horizon is sized so every cut is conclusive, which
  makes a per-candidate refutation sound. A split covers every split with
  a shorter or equal prefix and a period dividing its own, so Unsat needs
  only the T - 1 maximal splits (T - per, per), not all T(T-1)/2. Sat
  answers come from the ordered search (by total, then by prefix): first
  over the totals up to T/4, and past a satisfiable maximal split again
  from the next total, skipping covered splits, so the certificate is the
  one the full ordered search gives. The sat_bbll docstring has the
  schedule.

* sat_bounded_finite searches finite orders of growing size for the full
  modality set. It can only ever answer Sat or Unknown.

Every candidate is a _Candidate: a CNF whose first variables are the atom
values on canonical cells, ordered by letter then cell, and one certificate
path. The solver's first model is lexicographically least in that order,
and the witness is the least cell where the formula holds, so results are
reproducible down to the returned valuation. The certificate is re-checked
with the model checker before it is returned, and a failed re-check raises
CertificateError.

The two procedures encode their candidates differently:

* over a finite order the encoding is the model checker's grid engine
  (checking._TableEngine) run over _Cnf's folding gates, with atom
  variables as atom tables: one table of literals per subformula over the
  whole grid, by the recurrences mc_finite evaluates with. The certificate
  re-check therefore shares those recurrences with the encoding, as the
  periodic re-check shares the caps; what differs at run time is the
  algebra, gates and the solver against the three-valued lattice. The
  recurrences are held to truth by the naive evaluator of the tests;
* over a periodic split, _Encoder encodes the begin/later modalities on
  demand. Each call lists the formula's subformulas once, children first,
  with every box read as the negation of a diamond (_encoding_order). Each
  candidate is encoded one subformula at a time in two iterative passes
  over that list: a demand pass from the root down works out the cells
  each subformula is needed at, and a build pass from the leaves up makes
  a table of literals for each subformula over exactly those cells, gates
  node by node and cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .checking import (
    _later_cap, _row_cap, _scan_frontier, _TableEngine, NotStabilized,
    mc_finite, mc_periodic,
)
from .models import (
    FiniteDomain, Interval, IntervalModel, PeriodicDomain, canonical_cells,
    canonical_interval,
)
# Not called here. bench/tracing.py times allen_related by patching this
# name, so a traced benchmark run needs it importable.
from .checking import allen_related  # noqa: F401
from .solver import Solver
from .syntax import (
    And, Atom, Box, Diamond, FalseConst, Formula, Fragment, Implies, Not,
    Or, TrueConst, B, iB, L, iL, dia, fragment_of, letters_of, metrics,
    modal_depth, neg, nesting_depth,
)


class UnsupportedFragmentError(ValueError):
    """The formula uses modalities the procedure does not handle."""


class CertificateError(RuntimeError):
    """A satisfiable encoding gave no witness, or its witness failed the
    independent re-check: the encoder and the model checker disagree."""


@dataclass(frozen=True)
class Sat:
    model: IntervalModel
    witness: Interval


@dataclass(frozen=True)
class Unsat:
    reason: str


@dataclass(frozen=True)
class Unknown:
    reason: str


SatResult = Union[Sat, Unsat, Unknown]

_BBLL = Fragment.of(B, iB, L, iL)

_TRUE = 1
_FALSE = -1


def later_somewhere(phi: Formula) -> Formula:
    """Wrap phi so that truth at [0, 1] means truth at some interval."""
    return dia(L, dia(iL, phi))


def _prop_unsat(phi: Formula) -> bool:
    """Propositional refutation: treat every atom and modal subformula as
    an opaque letter and evaluate the abstraction under all assignments at
    once, as bit masks with bit j the value under assignment j. Sound,
    never complete; skipped above 12 letters."""
    if not isinstance(phi, Formula):
        raise TypeError("not a formula: %r" % (phi,))
    # the boolean skeleton of phi; the walk stops at the letters
    mask: Dict[Formula, int] = {}
    stack = [phi]
    while stack:
        f = stack.pop()
        if f not in mask:
            mask[f] = 0
            t = type(f)
            if t is Not:
                stack.append(f.sub)
            elif t is And or t is Or or t is Implies:
                stack += (f.rhs, f.lhs)
    letters = [f for f in mask if type(f) in (Atom, Diamond, Box)]
    if len(letters) > 12:
        return False
    size = 1 << len(letters)
    full = (1 << size) - 1
    for k, f in enumerate(letters):
        # letter k holds where bit k of the assignment is set: 2^k zeros
        # then 2^k ones, doubled until the runs span every assignment
        m, width = ((1 << (1 << k)) - 1) << (1 << k), 2 << k
        while width < size:
            m, width = m | m << width, width << 1
        mask[f] = m
    # operands nest less deeply than the nodes over them; false and the
    # letters keep the masks they have
    for f in sorted(mask, key=nesting_depth):
        t = type(f)
        if t is Not:
            mask[f] = full ^ mask[f.sub]
        elif t is And:
            mask[f] = mask[f.lhs] & mask[f.rhs]
        elif t is Or:
            mask[f] = mask[f.lhs] | mask[f.rhs]
        elif t is Implies:
            mask[f] = (full ^ mask[f.lhs]) | mask[f.rhs]
        elif t is TrueConst:
            mask[f] = full
    return mask[phi] == 0


class _Cnf:
    """Clause store with a constant-true variable and folding gates.

    Variable 1 is pinned true. define_or, and define_or2/define_and2 for
    two inputs, drop constants, collapse complementary pairs, and cache
    gates by literal set, so the encodings of a diamond and of the matching
    negated box meet in the same variable and contradictions between them
    surface as constants."""

    def __init__(self):
        self.nvars = 1
        self.clauses: List[List[int]] = [[_TRUE]]
        self._gate: Dict[frozenset, int] = {}

    def new_var(self) -> int:
        self.nvars += 1
        return self.nvars

    def define_or(self, lits: List[int]) -> int:
        out: List[int] = []
        seen = set()
        for lit in lits:
            if lit == _TRUE or -lit in seen:
                return _TRUE
            if lit == _FALSE or lit in seen:
                continue
            seen.add(lit)
            out.append(lit)
        if not out:
            return _FALSE
        if len(out) == 1:
            return out[0]
        key = frozenset(out)
        got = self._gate.get(key)
        if got is not None:
            return got
        g = self.new_var()
        self.clauses.append([-g] + out)
        for lit in out:
            self.clauses.append([g, -lit])
        self._gate[key] = g
        return g

    def define_or2(self, a: int, b: int) -> int:
        """define_or([a, b]) without the list: same folding, same gate
        key and the same clauses in the same order."""
        if a == _TRUE or b == _TRUE or a == -b:
            return _TRUE
        if a == _FALSE or a == b:
            return b
        if b == _FALSE:
            return a
        key = frozenset((a, b))
        got = self._gate.get(key)
        if got is not None:
            return got
        g = self.new_var()
        self.clauses += ([-g, a, b], [g, -a], [g, -b])
        self._gate[key] = g
        return g

    def define_and2(self, a: int, b: int) -> int:
        return -self.define_or2(-a, -b)

    def solve(self) -> Optional[Solver]:
        s = Solver()
        for _ in range(self.nvars):
            s.new_var()
        if not s.add_clauses(self.clauses):
            return None
        return s if s.solve() else None


def _encoding_order(phi: Formula) -> List[Tuple[Formula, tuple]]:
    """The unique subformulas of phi with their operands, children left to
    right before parents, as in postorder, except that a box [M] s has the
    one operand <M> neg(s): the encoder gives a box the negated literal of
    that diamond, so the box's twin is made once here, not once per cell.
    Iterative, so nesting depth is no limit."""
    out = []
    seen = set()
    # an entry with operands is a node whose operands are all listed
    stack: List[Tuple[Formula, Optional[tuple]]] = [(phi, None)]
    while stack:
        f, kids = stack.pop()
        if kids is not None:
            out.append((f, kids))
        elif f not in seen:
            seen.add(f)
            if type(f) is Box:
                kids = (Diamond(f.mod, neg(f.sub)),)
            else:
                kids = tuple([getattr(f, n) for n in f._operands])
            stack.append((f, kids))
            stack += [(g, None) for g in reversed(kids)]
    return out


Table = Dict[Interval, int]


class _Candidate:
    """One candidate domain's CNF. Its first variables are the atoms, one per
    letter and canonical cell, by letter then cell; an atom at any cell
    reads the variable of its canonical cell."""

    def __init__(self, domain, letters: List[str]):
        self.domain = domain
        self.cnf = cnf = _Cnf()
        self.atom_var: Dict[Tuple[str, Interval], int] = {
            (letter, cell): cnf.new_var()
            for letter in letters for cell in canonical_cells(domain)}

    def certificate(self, solver: Solver,
                    table: Iterable[Tuple[Interval, int]],
                    phi: Formula) -> Sat:
        """The solver's model with the first cell of table, (cell, literal)
        pairs in ascending cell order, where phi's literal is true,
        re-checked independently before it is returned."""
        val: Dict[str, List[Interval]] = {}
        for (letter, cell), var in self.atom_var.items():
            if solver.model_value(var):
                val.setdefault(letter, []).append(cell)
        model = IntervalModel(self.domain, val)
        witness = None
        for cell, lit in table:
            if solver.model_value(abs(lit)) == (lit > 0):
                witness = cell
                break
        if witness is None:
            raise CertificateError("satisfiable encoding without a witness")
        if not _recheck(phi, model, witness):
            raise CertificateError("witness failed independent re-checking")
        return Sat(model, witness)


def _finite_engine(cand: _Candidate) -> _TableEngine:
    """The model checker's grid engine over a finite candidate, with atom
    variables as atom tables and _Cnf's gates as the algebra: its tables
    are literals."""
    cnf, n = cand.cnf, cand.domain.last_point
    w = n + 1
    atoms: Dict[str, List[int]] = {}
    for (letter, (x, y)), var in cand.atom_var.items():
        atoms.setdefault(letter, [_FALSE] * (n * w))[x * w + y] = var
    return _TableEngine(n, atoms.__getitem__, cnf.define_or, cnf.define_or2,
                        cnf.define_and2)


class _Encoder(_Candidate):
    """CNF truth of subformulas at grid cells over one periodic candidate
    domain, for the begin/later modalities B, iB, L and iL.

    tables() encodes a formula one subformula at a time, in two passes over
    its _encoding_order:

    * the demand pass, from the root down, works out the cells each node is
      needed at: the root's own cells, and for every other node the union
      of what its parents ask of it. A connective, a negation or a box asks
      for its own cells; a diamond asks for the cells its scan or ladder
      reads;
    * the build pass, from the leaves up, fills each node's table (cell to
      literal) through the folding gates of _Cnf, node by node and cell by
      cell in ascending (x, y) order, so the variable numbering is fixed.

    A table covers exactly the node's demanded cells, and for <B> also
    every rung of its ladders. Scans are cut at the model checker's
    periodicity caps:

    * <B> at (x, y) is rung y of row x's ladder, which extends rung y-1 by
      the operand at (x, y-1); a row's ladder runs up to its highest
      demanded y;
    * <iB> at (x, y) is the operand's disjunction over (x, y+1) .. (x, cap);
    * <L> at (x, y) depends on y alone: the disjunction, over the rows x'
      from y+1 up to the later cap, of the operand's disjunction along row
      x' up to that row's cap;
    * <iL> at (x, y) depends on x alone: rung x of a ladder over left
      endpoints, which extends rung x-1 by the operand at every (a, x-1).
    """

    def __init__(self, domain: PeriodicDomain, horizon: int,
                 letters: List[str]):
        super().__init__(domain, letters)
        self.h = horizon
        self.w = horizon + 1
        self.pre, self.per = domain.pre, domain.per

    def tables(self, order: List[Tuple[Formula, tuple]],
               cells: List[Interval],
               keep: Sequence[Formula] = ()) -> Dict[Formula, Table]:
        """The tables of order's root, demanded at cells, and of the nodes
        in keep; order is the _encoding_order of a formula. Each table
        lists its cells in ascending order. Every other table is released
        once the last node reading it is built.

        Inside, cell (x, y) is the key x * w + y with w = horizon + 1:
        keys sort as cells do, and a run of cells along a row is a range."""
        for cell in cells:
            if cell[1] > self.h:
                raise RuntimeError(
                    "cell %r beyond the encoding horizon" % (cell,))
        # Any other demanded cell lies inside a root cell or below a scan
        # cap checked against the horizon, so it needs no check of its own.
        w = self.w
        root = order[-1][0]
        need: Dict[Formula, set] = {f: set() for f, _ in order}
        need[root].update([x * w + y for x, y in cells])
        plan = {}
        for f, kids in reversed(order):
            got = sorted(need.pop(f))
            if type(f) is Diamond:
                plan[f] = self._demand(f, got, need[kids[0]])
                continue
            plan[f] = got
            for g in kids:
                need[g].update(got)
        last = {g: f for f, kids in order for g in kids}
        kept = set(keep)
        kept.add(root)
        cnf = self.cnf
        canon: Dict[int, Interval] = {}
        table: Dict[Formula, Dict[int, int]] = {}
        for f, kids in order:
            got = plan.pop(f)
            t = type(f)
            if t is Atom:
                for k in got:
                    if k not in canon:
                        canon[k] = canonical_interval(self.domain,
                                                      divmod(k, w))
                var, name = self.atom_var, f.name
                tab = {k: var[(name, canon[k])] for k in got}
            elif t is Not or t is Box:
                sub = table[kids[0]]
                tab = {k: -sub[k] for k in got}
            elif t is Diamond:
                tab = self._build(f, got, table[kids[0]])
            elif t is And:
                lhs, rhs, and2 = table[f.lhs], table[f.rhs], cnf.define_and2
                tab = {k: and2(lhs[k], rhs[k]) for k in got}
            elif t is Or:
                lhs, rhs, or2 = table[f.lhs], table[f.rhs], cnf.define_or2
                tab = {k: or2(lhs[k], rhs[k]) for k in got}
            elif t is Implies:
                lhs, rhs, or2 = table[f.lhs], table[f.rhs], cnf.define_or2
                tab = {k: or2(-lhs[k], rhs[k]) for k in got}
            elif t is TrueConst:
                tab = dict.fromkeys(got, _TRUE)
            elif t is FalseConst:
                tab = dict.fromkeys(got, _FALSE)
            else:
                raise TypeError("not a formula: %r" % (f,))
            table[f] = tab
            for g in kids:
                if last[g] is f and g not in kept:
                    table.pop(g, None)
        return {f: {divmod(k, w): lit for k, lit in table[f].items()}
                for f in kept}

    def _demand(self, f: Diamond, cells: List[int], sub_need: set):
        name = f.mod.name
        pre, per, h, w = self.pre, self.per, self.h, self.w
        if name == "B":
            top = {}             # row -> highest demanded y (cells sorted)
            for k in cells:
                top[k // w] = k % w
            for x, y in top.items():
                sub_need.update(range(x * w + x + 1, x * w + y))
            return top
        if name == "iB":
            depth = modal_depth(f.sub)
            scans = []
            for k in cells:
                x, y = divmod(k, w)
                cap = _row_cap(pre, per, depth, x, y)
                if cap > h:
                    raise RuntimeError("scan cap beyond the encoding horizon")
                scans.append((k, x * w + cap + 1))
                sub_need.update(range(k + 1, x * w + cap + 1))
            return scans
        if name == "L":
            depth = modal_depth(f.sub)
            ends = {}            # y -> last row the scan after y visits
            caps = {}            # row -> its cap
            for k in cells:
                y = k % w
                if y in ends:
                    continue
                ends[y] = capx = _later_cap(pre, per, depth, y)
                if capx > h - 1:
                    raise RuntimeError("scan cap beyond the encoding horizon")
                for xp in range(y + 1, capx + 1):
                    if xp not in caps:
                        caps[xp] = cap = _row_cap(pre, per, depth, xp, xp)
                        if cap > h:
                            raise RuntimeError(
                                "scan cap beyond the encoding horizon")
                        row = xp * w
                        sub_need.update(range(row + xp + 1, row + cap + 1))
            return cells, sorted(ends.items()), caps
        if name == "iL":
            top = cells[-1] // w if cells else 0     # highest demanded x
            for a in range(top - 1):
                sub_need.update(range(a * w + a + 1, a * w + top))
            return cells, top
        raise UnsupportedFragmentError(
            "modality %s outside the begin/later fragment" % name)

    def _build(self, f: Diamond, plan, sub: Dict[int, int]):
        name = f.mod.name
        cnf, w = self.cnf, self.w
        if name == "B":
            or2 = cnf.define_or2
            tab = {}
            for x, top in plan.items():
                tab[x * w + x + 1] = acc = _FALSE
                for k in range(x * w + x + 2, x * w + top + 1):
                    tab[k] = acc = or2(acc, sub[k - 1])
            return tab
        define_or = cnf.define_or
        if name == "iB":
            return {k: define_or([sub[j] for j in range(k + 1, end)])
                    for k, end in plan}
        if name == "L":
            cells, ends, caps = plan
            rows: Dict[int, int] = {}
            after: Dict[int, int] = {}
            for y, capx in ends:
                lits = []
                for xp in range(y + 1, capx + 1):
                    lit = rows.get(xp)
                    if lit is None:
                        rows[xp] = lit = define_or(
                            [sub[j] for j in range(xp * w + xp + 1,
                                                   xp * w + caps[xp] + 1)])
                    lits.append(lit)
                after[y] = define_or(lits)
            return {k: after[k % w] for k in cells}
        # iL
        cells, top = plan
        rung = [_FALSE, _FALSE]
        for v in range(2, top + 1):
            rung.append(define_or(
                [rung[-1]] + [sub[a * w + v - 1] for a in range(v - 1)]))
        return {k: rung[k // w] for k in cells}


def _recheck(phi: Formula, model: IntervalModel, witness: Interval) -> bool:
    """Truth of phi at the witness by the model checker, with its default
    periodic round budget, under which every capped scan is conclusive."""
    if isinstance(model.domain, FiniteDomain):
        return mc_finite(model, witness, phi)
    return mc_periodic(model, witness, phi)


def sat_bbll(phi: Formula, max_bound: Optional[int] = None) -> SatResult:
    """Decide phi over unbounded strongly discrete orders.

    Only begin and later modalities are allowed. Returns Sat with an
    ultimately periodic model and a witness interval, or Unsat once every
    prefix/period split up to the periodic bound is refuted. If max_bound
    trims the search below the formula's own bound the failure case is
    reported as Unknown instead.

    A split (pre, per) covers the splits (pre', per') with pre' <= pre and
    per' dividing per: a canonical-cell valuation for (pre', per') reads the
    same under the (pre'+1, per') and (pre', k*per') reductions of
    canonical_interval, so it is also a valuation for (pre, per) that makes
    the same formulas true at the same intervals. A candidate's encoding is
    exact wherever the periodicity caps that cut its scans are (the
    argument at checking._row_cap), so refuting the maximal splits
    (bound - per, per) refutes every split up to the bound.
    The search runs in three steps:

    1. the ordered search (by total, then by prefix) over the totals t with
       4*t <= bound, where cheap candidates answer most satisfiable
       formulas;
    2. the maximal splits, by ascending period, which have the smallest
       horizons first; if all are refuted the answer is Unsat or Unknown;
    3. once a maximal split (bound - per, per) is satisfiable, the ordered
       search from the next total on, skipping the splits a refuted maximal
       split covers and reusing the solved one when it comes up. The
       refuted maximal splits are those with the periods below per, so a
       split is covered exactly when its period is below per: (bound - q, q)
       covers every split of period q.

    Skipped splits are unsatisfiable, so the first satisfiable split of
    step 3 is the first of the full ordered search, and the certificate is
    the one that search gives."""
    frag = fragment_of(phi)
    if not frag <= _BBLL:
        raise UnsupportedFragmentError(
            "sat_bbll handles fragment %s; got %s" % (_BBLL.name, frag.name))
    if _prop_unsat(phi):
        return Unsat("propositional refutation")
    own_bound = metrics(phi).periodic_bound
    bound = own_bound if max_bound is None else max_bound
    goal = later_somewhere(phi)
    order = _encoding_order(goal)
    goal_depth = modal_depth(goal)
    letters = sorted(letters_of(phi))
    solved: Dict[Tuple[int, int], Tuple[_Encoder, Solver, Table]] = {}

    def candidate(pre: int,
                  per: int) -> Optional[Tuple[_Encoder, Solver, Table]]:
        """The encoder, solver and phi's table of a satisfiable split,
        None for a refuted one, whose encoding is then already released."""
        got = solved.get((pre, per))
        if got is None:
            enc = _Encoder(PeriodicDomain(pre, per),
                           _scan_frontier(pre, per, goal_depth, 1), letters)
            tables = enc.tables(order, [(0, 1)], (phi,))
            enc.cnf.clauses.append([tables[goal][(0, 1)]])
            solver = enc.cnf.solve()
            if solver is not None:
                got = (enc, solver, tables[phi])
        return got

    def ordered(totals: range, least_per: int) -> Optional[Sat]:
        for total in totals:
            for pre in range(1, total - least_per + 1):
                got = candidate(pre, total - pre)
                if got is not None:
                    enc, solver, table = got
                    return enc.certificate(solver, table.items(), phi)
        return None

    head = bound // 4
    res = ordered(range(2, head + 1), 1)
    if res is not None:
        return res
    for per in range(1, bound):
        got = candidate(bound - per, per)
        if got is not None:
            solved[(bound - per, per)] = got
            return ordered(range(head + 1, bound + 1), per)
    if max_bound is not None and max_bound < own_bound:
        return Unknown("search truncated below the periodic bound")
    return Unsat("no model within the periodic bound")


def sat_bounded_finite(phi: Formula, max_points: int) -> SatResult:
    """Search finite orders with up to max_points+1 points for a model of
    phi. Full modality set; answers Sat or Unknown, never Unsat."""
    if max_points < 1:
        raise ValueError("need at least one point past the origin")
    letters = sorted(letters_of(phi))
    for n in range(1, max_points + 1):
        cand = _Candidate(FiniteDomain(n), letters)
        table = _finite_engine(cand).table(phi)
        cells = canonical_cells(cand.domain)
        lits = [table[x * (n + 1) + y] for x, y in cells]
        root = cand.cnf.define_or(lits)
        if root == _FALSE:
            continue
        cand.cnf.clauses.append([root])
        solver = cand.cnf.solve()
        if solver is not None:
            return cand.certificate(solver, zip(cells, lits), phi)
    return Unknown("no model with at most %d points past the origin"
                   % max_points)


def check_certificate(phi: Formula, model: IntervalModel,
                      witness: Interval) -> bool:
    """Re-check a Sat certificate from scratch. NotStabilized counts as a
    failed check rather than an error."""
    try:
        return _recheck(phi, model, tuple(witness))
    except (NotStabilized, ValueError):
        return False
