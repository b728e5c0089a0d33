"""Satisfiability checking.

Two procedures with different scopes:

* sat_bbll decides formulas built from the begin modalities and the later
  modalities over unbounded strongly discrete orders: a pre-check
  (_prop_unsat), then ultimately periodic candidates by prefix/period
  split, each encoded by _Encoder with one literal per periodicity class
  of each subformula, and solved. Its docstring has the schedule and why
  it is complete up to the periodic bound.
* sat_bounded_finite searches finite orders of growing size for the full
  modality set, each encoded by the model checker's grid engine
  (_finite_engine). It can only ever answer Sat or Unknown.

Every candidate is a _Candidate: a CNF whose first variables are the atom
values on canonical cells, ordered by letter then cell, and one certificate
path. The solver's first model is lexicographically least in that order,
and the witness is the least cell where the formula holds, so results are
reproducible down to the returned valuation. The certificate is re-checked
with the model checker before it is returned, and a failed re-check raises
CertificateError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .checking import _TableEngine, NotStabilized, mc_finite, mc_periodic
from .models import (
    FiniteDomain, Interval, IntervalModel, PeriodicDomain, canonical_cells,
)
# Not called here. bench/tracing.py patches these names to time or count
# them, so a traced benchmark run needs them importable from this module.
from .checking import allen_related  # noqa: F401
from .models import canonical_interval  # noqa: F401
from .syntax import modal_depth  # noqa: F401
from .solver import Solver
from .syntax import (
    And, Atom, Box, Diamond, FalseConst, Formula, Fragment, Implies, Not,
    Or, TrueConst, B, iB, L, iL, dia, fragment_of, letters_of, metrics,
    neg, nesting_depth, postorder,
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
# the modalities _prop_unsat steps through, transitive on any linear order,
# by their fields, which hash in C
_K4 = {(m.base, m.inverted) for m in _BBLL}
# the most sets _prop_unsat visits. Satisfiability in K4 is PSPACE-complete,
# and box sets carried along different paths can make a formula of n
# diamonds reach 2^n sets.
_WALK_SETS = 256

_TRUE = 1
_FALSE = -1


def later_somewhere(phi: Formula) -> Formula:
    """Wrap phi so that truth at [0, 1] means truth at some interval."""
    return dia(L, dia(iL, phi))


def _prop_unsat(phi: Formula) -> Optional[Unsat]:
    """Refute phi before any candidate is built: Unsat with the reason, or
    None. Sound, never complete.

    The walk visits sets of formulas, each read as the conjunction of its
    members at one interval, starting from {phi}. A set is refuted

    * by its skeleton: every atom and diamond is an opaque letter and a box
      [M] s reads as ~<M> neg(s), its twin. The conjunction is evaluated
      under all assignments at once, as bit masks with bit j the value
      under assignment j, and a set false under every one is refuted. The
      check is skipped above 12 letters;
    * or by a refuted successor. For each top-level conjunct <M> a of the
      set (or ~[M] s, with a = neg(s)), where M is B, iB, L or iL, the
      successor is {a} with b and [M] b for every conjunct [M] b (or
      ~<M> neg(b)) of the set.

    A successor step is the K rule of modal tableaux with the boxes carried
    along, as for K4. It is sound because every HS modality is normal and
    B, iB, L and iL are transitive on any linear order: if the set holds at
    I, some J with I M J has a, every box [M] b of the set gives b at J,
    and since each K with J M K has I M K, also [M] b at J. So J satisfies
    the successor, and a refuted successor refutes the set. K4 knows neither
    that B is well-founded nor that iB and L always have a successor, so
    the well-foundedness shape <B> s & [B] (s -> <B> s) and [L] false are
    left to the candidates.

    A refutation of {phi} by its skeleton is a "propositional refutation",
    any deeper one a "modal refutation". The walk keeps an explicit stack,
    so nesting depth is no limit, and visits each set once: carried boxes
    come back along a chain of steps, and the seen sets end that loop. It
    visits at most _WALK_SETS sets."""
    if not isinstance(phi, Formula):
        raise TypeError("not a formula: %r" % (phi,))
    # sets are tuples in the order the walk builds them, so the sets it
    # visits under the cap do not depend on hashing
    seen = {frozenset((phi,))}
    stack = [(phi,)]
    reason = "propositional refutation"
    while stack:
        members = stack.pop()
        if _skeleton_unsat(members):
            return Unsat(reason)
        reason = "modal refutation"
        # the set's top-level conjuncts: diamonds as (modality, operand),
        # boxes as the formulas a successor carries, by modality
        dias: List[Tuple[tuple, Formula]] = []
        boxes: Dict[tuple, List[Formula]] = {}
        todo = list(members)
        while todo:
            f = todo.pop()
            t = type(f)
            if t is And:
                todo += (f.rhs, f.lhs)
            elif t is Diamond:
                dias.append(((f.mod.base, f.mod.inverted), f.sub))
            elif t is Box:
                boxes.setdefault((f.mod.base, f.mod.inverted),
                                 []).extend((f, f.sub))
            elif t is Not:
                g = f.sub
                if type(g) is Diamond:
                    boxes.setdefault((g.mod.base, g.mod.inverted),
                                     []).extend((f, neg(g.sub)))
                elif type(g) is Box:
                    dias.append(((g.mod.base, g.mod.inverted), neg(g.sub)))
        for mod, a in dias:
            if mod in _K4 and len(seen) < _WALK_SETS:
                succ = tuple(dict.fromkeys([a] + boxes.get(mod, [])))
                key = frozenset(succ)
                if key not in seen:
                    seen.add(key)
                    stack.append(succ)
    return None


def _skeleton_unsat(members: Sequence[Formula]) -> bool:
    """The skeleton check of _prop_unsat: is the conjunction of members
    false under every assignment to its letters?"""
    # the boolean skeleton; the walk stops at the letters
    mask: Dict[Formula, int] = {}
    letters: Dict[object, int] = {}
    stack = list(members)
    while stack:
        f = stack.pop()
        if f not in mask:
            mask[f] = 0
            t = type(f)
            if t is Not:
                stack.append(f.sub)
            elif t is And or t is Or or t is Implies:
                stack += (f.rhs, f.lhs)
            elif t is Atom or t is Diamond or t is Box:
                letters[_letter(f)] = 0
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
        letters[f] = m
    # operands nest less deeply than the nodes over them; false keeps its
    # mask, and a box reads the complement of its twin's letter
    for f in sorted(mask, key=nesting_depth):
        t = type(f)
        if t is Not:
            mask[f] = full ^ mask[f.sub]
        elif t is Atom or t is Diamond:
            mask[f] = letters[_letter(f)]
        elif t is Box:
            mask[f] = full ^ letters[_letter(f)]
        elif t is And:
            mask[f] = mask[f.lhs] & mask[f.rhs]
        elif t is Or:
            mask[f] = mask[f.lhs] | mask[f.rhs]
        elif t is Implies:
            mask[f] = (full ^ mask[f.lhs]) | mask[f.rhs]
        elif t is TrueConst:
            mask[f] = full
    both = full
    for f in members:
        both &= mask[f]
    return both == 0


def _letter(f: Formula):
    """The skeleton letter of an atom, itself, or of a diamond <M> a or a
    box [M] s, read as ~<M> neg(s): (M, b, negated) for a = b or a = ~b, so
    that the twin <M> neg(s) is never built."""
    if type(f) is Atom:
        return f
    a, negated = f.sub, type(f) is Box
    if negated and type(a) is Not:      # neg(~b) is b
        a, negated = a.sub, False
    if not negated and type(a) is Not:
        a, negated = a.sub, True
    return (f.mod.base, f.mod.inverted, a, negated)


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
    are literals. The certificate re-check, mc_finite, runs the same
    recurrences in the three-valued lattice."""
    cnf, n = cand.cnf, cand.domain.last_point
    w = n + 1
    atoms: Dict[str, List[int]] = {}
    for (letter, (x, y)), var in cand.atom_var.items():
        atoms.setdefault(letter, [_FALSE] * (n * w))[x * w + y] = var
    return _TableEngine(n, atoms.__getitem__, cnf.define_or, cnf.define_or2,
                        cnf.define_and2)


# a node's table: row x lists its literals at (x, x + 1), ... (_Encoder)
Rows = List[List[int]]
Bounds = Tuple[int, int, int]
Cells = List[Tuple[Interval, int]]


def _thresholds(order: List[Formula], pre: int,
                per: int) -> Dict[Formula, Bounds]:
    """The thresholds (A, L, D) of every node of order, a postorder, over
    the split (pre, per), folded by the lift rules of _Encoder."""
    out: Dict[Formula, Bounds] = {}
    for f in order:
        t = type(f)
        if t is Atom:
            b = (pre, 1, pre)
        elif t is Not:
            b = out[f.sub]
        elif t is And or t is Or or t is Implies:
            b = tuple(map(max, out[f.lhs], out[f.rhs]))
        elif t is Diamond or t is Box:
            a, l, d = out[f.sub]
            b = {"B": (a + per, l + per, d), "iB": (a, l, d), "L": (d, 1, d),
                 "iL": (0, 1, max(a + per, d + 2 * per + l - 1))
                 }.get(f.mod.name)
            if b is None:
                raise UnsupportedFragmentError(
                    "modality %s outside the begin/later fragment"
                    % f.mod.name)
        elif t is TrueConst or t is FalseConst:
            b = (0, 1, 0)
        else:
            raise TypeError("not a formula: %r" % (f,))
        out[f] = b
    return out


def _reduce(bounds: Bounds, per: int, x: int, y: int) -> Interval:
    """The fixed point cell (x, y) lowers to under thresholds (A, L, D):
    diagonal shifts while x - per >= D, then right shifts while
    y - per >= A and y - per - x >= L."""
    a, l, d = bounds
    if x - per >= d:
        k = (x - d) // per * per
        x, y = x - k, y - k
    m = max(a, x + l)
    if y - per >= m:
        y -= (y - m) // per * per
    return x, y


def _cells(tab: Rows) -> Cells:
    """A table's (fixed point, literal) pairs in ascending cell order."""
    return [((x, y), lit) for x, row in enumerate(tab)
            for y, lit in enumerate(row, x + 1)]


class _Encoder(_Candidate):
    """CNF truth of every subformula of a formula over one periodic
    candidate domain, for the begin/later modalities B, iB, L and iL, with
    one literal per periodicity class.

    Each node has thresholds A (absolute right), L (length) and D
    (diagonal), folded over the postorder by _thresholds, and its truth
    repeats under two shifts that lower a cell: (x, y) has the value of
    (x - per, y - per) when x - per >= D, and of (x, y - per) when
    y - per >= A and y - per - x >= L. A cell neither shift lowers is a
    fixed point: x < D + per and x < y < max(A, x + L) + per. A node's
    table (self.tables) holds one literal per fixed point: row x, for
    x < D + per, lists the literals at (x, x + 1) .. (x, max(A, x + L) +
    per - 1). Every read of an operand goes through the operand's reduction
    (_reduce for a cell, _row for a run along a row). Tables are filled in
    postorder, row by row and cell by cell, through the folding gates of
    _Cnf, so the variable numbering is fixed.

    The lift rules, for an operand s with thresholds (A, L, D):

    * an atom: (pre, 1, pre), the shifts of models.canonical_interval, so
      its fixed points are the canonical cells; a constant: (0, 1, 0);
    * a negation or a connective holds with its operands at the same cell,
      so it repeats where all of them do: the componentwise max;
    * <B> s joins s over (x, y'), x < y' < y: (A + per, L + per, D). A
      diagonal shift moves every successor along, each still past D. A
      right shift drops y - per <= y' < y, each past A + per and x + L +
      per, so the value of (x, y' - per), a successor still. A row is a
      ladder: rung y is rung y - 1 or, when s at (x, y - 1) is new to the
      ladder, rung y - 1 joined with it;
    * <iB> s joins s over (x, y'), y' > y: unchanged. A diagonal shift
      moves the successors along; a right shift adds y - per < y' <= y,
      each past A and x + L, so the value of (x, y' + per), a successor
      already. Past max(y + 1, A, x + L) + per - 1 each value along the row
      repeats one before it, so the scan stops there;
    * <L> s joins s over the rows x' > y, so it depends on y alone:
      (D, 1, D). Lowering y by per adds the rows y - per < x' <= y, each
      past D and so a diagonal shift of a row after y. The scan joins the
      rows up to max(y + 1, D) + per - 1, each as its whole row of classes;
    * <iL> s joins s over the cells (x', y'), y' < x, so it depends on x
      alone: (0, 1, max(A + per, D + 2 per + L - 1)). A diagonal shift
      drops the cells with x - per <= y' < x. One with x' >= D + per has
      the value of its diagonal shift, one with x' < D + per that of
      (x', y' - per), as y' - per >= x - 2 per >= A and y' - per - x' >=
      x - 3 per - D + 1 >= L; both keep y' < x - per. The rungs of one
      ladder over x take in the values at column x - 1 new to it.

    A box is [M] s = ~<M> ~s, as _TableEngine._compute writes it. A rung
    is by induction the join of the literals it has taken in, so a covered
    one would change nothing; the covered sets are never iterated, so the
    gate numbering does not depend on the hash seed. Gates are full two-way
    definitions after the atom variables, so the lex-least model and the
    witness are those of unsaturated ladders.
    """

    def __init__(self, domain: PeriodicDomain, letters: List[str],
                 order: List[Formula]):
        super().__init__(domain, letters)
        self.per = per = domain.per
        self.bounds = _thresholds(order, domain.pre, per)
        self.tables: Dict[Formula, Rows] = {}
        cnf, tables = self.cnf, self.tables
        for f in order:
            a, l, d = self.bounds[f]
            his = [max(a, x + l) + per - 1 for x in range(d + per)]
            t = type(f)
            if t is Atom:
                var, name = self.atom_var, f.name
                tab = [[var[(name, (x, y))] for y in range(x + 1, hi + 1)]
                       for x, hi in enumerate(his)]
            elif t is Not:
                tab = [[-lit for lit in row] for row in tables[f.sub]]
            elif t is And or t is Or or t is Implies:
                gate = cnf.define_and2 if t is And else cnf.define_or2
                lhs, rhs = tables[f.lhs], tables[f.rhs]
                if t is Implies:
                    lhs = [[-lit for lit in row] for row in lhs]
                tab = [list(map(gate, self._row(lhs, x, hi),
                                self._row(rhs, x, hi)))
                       for x, hi in enumerate(his)]
            elif t is Diamond:
                tab = self._diamond(f, tables[f.sub], his)
            elif t is Box:
                sub = [[-lit for lit in row] for row in tables[f.sub]]
                tab = [[-lit for lit in row]
                       for row in self._diamond(f, sub, his)]
            else:
                const = _TRUE if t is TrueConst else _FALSE
                tab = [[const] * (hi - x) for x, hi in enumerate(his)]
            tables[f] = tab

    def _row(self, tab: Rows, x: int, hi: int) -> List[int]:
        """A table's literals at (x, x + 1) .. (x, hi): row x lowered by
        diagonal shifts, then continued by repeating its last per entries."""
        per, n = self.per, hi - x
        if x >= len(tab):
            x -= ((x - len(tab)) // per + 1) * per
        row = tab[x]
        if n > len(row):
            row = row + row[-per:] * -((len(row) - n) // per)
        return row[:n]

    def _diamond(self, f: Union[Diamond, Box], sub: Rows,
                 his: List[int]) -> Rows:
        """The rows of <M> over sub, f being <M> s or [M] s and sub the
        rows of s (of ~s for a box); row x ends at his[x]."""
        name, per, cnf = f.mod.name, self.per, self.cnf
        tab = []
        if name == "B":
            for x, hi in enumerate(his):
                row = [_FALSE]
                covered = set()     # the literals row[-1] joins
                for lit in self._row(sub, x, hi - 1):
                    row.append(row[-1] if lit in covered
                               else cnf.define_or2(row[-1], lit))
                    covered.add(lit)
                tab.append(row)
        elif name == "iB":
            for x, hi in enumerate(his):
                m = hi - per + 1    # max(A, x + L)
                s = self._row(sub, x, hi + per)
                tab.append([cnf.define_or(s[y - x:max(y + 1, m) + per - 1 - x])
                            for y in range(x + 1, hi + 1)])
        elif name == "L":
            d = self.bounds[f.sub][2]
            joins: Dict[int, int] = {}      # row of sub -> its join
            after = [_FALSE]                # y -> the join of the rows past y
            for y in range(1, his[-1] + 1):
                lits = []
                for xp in range(y + 1, max(y + 1, d) + per):
                    r = xp - max(0, (xp - d) // per) * per
                    if r not in joins:
                        joins[r] = cnf.define_or(sub[r])
                    lits.append(joins[r])
                after.append(cnf.define_or(lits))
            tab = [after[x + 1:hi + 1] for x, hi in enumerate(his)]
        else:
            # iL, the fragment being checked by _thresholds
            bounds = self.bounds[f.sub]
            rung = [_FALSE, _FALSE]
            covered = set()     # the literals rung[-1] is the disjunction of
            for v in range(2, len(his)):
                new = []
                for a in range(v - 1):
                    x, y = _reduce(bounds, per, a, v - 1)
                    lit = sub[x][y - x - 1]
                    if lit not in covered:
                        covered.add(lit)
                        new.append(lit)
                rung.append(cnf.define_or([rung[-1]] + new) if new
                            else rung[-1])
            tab = [[rung[x]] * (hi - x) for x, hi in enumerate(his)]
        return tab


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
    the same formulas true at the same intervals. A candidate's CNF is
    satisfiable exactly under the valuations where phi holds somewhere:
    each subformula's classes take every value it takes (the lift rules at
    _Encoder), and the goal is the disjunction of phi over its classes. So
    refuting the maximal splits (bound - per, per) refutes every split up
    to the bound, and the least cell where phi holds, a fixed point since
    both shifts only lower a cell, is the witness.
    The search runs in three steps, after a pre-check:

    0. a phi that _prop_unsat refutes builds no candidate, and a
       candidate whose goal literal folds to false in _Cnf's gates is
       refuted without a solver;
    1. the ordered search (by total, then by prefix) over the totals t with
       4*t <= bound, where cheap candidates answer most satisfiable
       formulas;
    2. the maximal splits, by ascending period, which have the smallest
       tables first; if all are refuted the answer is Unsat or Unknown;
    3. once a maximal split (bound - per, per) is satisfiable, the ordered
       search from the next total on, skipping the splits a refuted maximal
       split covers and reusing the solved one when it comes up. The
       refuted maximal splits are those with the periods below per, so a
       split is covered exactly when its period is below per: (bound - q, q)
       covers every split of period q.

    Skipped splits are unsatisfiable, so the first satisfiable split of
    step 3 is the first of the full ordered search, and the certificate is
    the one that search gives. A negative max_bound is a ValueError."""
    if max_bound is not None and max_bound < 0:
        raise ValueError("the periodic bound must be at least 0, got %d"
                         % max_bound)
    frag = fragment_of(phi)
    if not frag <= _BBLL:
        raise UnsupportedFragmentError(
            "sat_bbll handles fragment %s; got %s" % (_BBLL.name, frag.name))
    refuted = _prop_unsat(phi)
    if refuted is not None:
        return refuted
    own_bound = metrics(phi).periodic_bound
    bound = own_bound if max_bound is None else max_bound
    order = postorder(phi)
    letters = sorted(letters_of(phi))
    solved: Dict[Tuple[int, int], Tuple[_Encoder, Solver, Cells]] = {}

    def candidate(pre: int,
                  per: int) -> Optional[Tuple[_Encoder, Solver, Cells]]:
        """The encoder, solver and phi's classes of a satisfiable split, None
        for a refuted one."""
        got = solved.get((pre, per))
        if got is None:
            enc = _Encoder(PeriodicDomain(pre, per), letters, order)
            cells = _cells(enc.tables[phi])
            root = enc.cnf.define_or([lit for _, lit in cells])
            if root == _FALSE:
                # refuted by the folding gates alone: no solver to build
                return None
            enc.cnf.clauses.append([root])
            solver = enc.cnf.solve()
            if solver is not None:
                got = (enc, solver, cells)
        return got

    def ordered(totals: range, least_per: int) -> Optional[Sat]:
        for total in totals:
            for pre in range(1, total - least_per + 1):
                got = candidate(pre, total - pre)
                if got is not None:
                    enc, solver, cells = got
                    return enc.certificate(solver, cells, phi)
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
