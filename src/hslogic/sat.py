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
path. Its goal is the disjunction of phi's literals over the candidate's
classes or cells, one clause with no gate variable, which _Cnf.add_goal
lists last cell first and keeps in ascending cell order for the solver.
The solver probes them in that order before its search: a literal whose
unit propagation conflicts is false in every model and becomes a level-0
unit, and the first one that does not conflict ends the probing. The
clause is watched on the two literals probed last, so a failed probe does
not make the solver rescan it (_Cnf docstring). A candidate whose goal
fails on every literal is refuted with no decision. The probes remove no
model, so the solver's first model is still lexicographically least in
atom order, and the witness is the least cell where the formula holds:
results are reproducible down to the returned valuation. The certificate
is re-checked with the model checker before it is returned, and a failed
re-check raises CertificateError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .checking import (
    _TableEngine, NotStabilized, _fill, _fold_thresholds, mc_finite,
    mc_periodic,
)
from .models import (
    Bounds, FiniteDomain, Interval, IntervalModel, PeriodicDomain,
    canonical_cells, later_stop, read_row, reduce_cell, row_stop,
)
# Not called here. bench/tracing.py patches these names to time or count
# them, so a traced benchmark run needs them importable from this module.
from .checking import allen_related  # noqa: F401
from .models import canonical_interval  # noqa: F401
from .syntax import modal_depth  # noqa: F401
from .solver import Solver
from .syntax import (
    And, Atom, Box, Diamond, Formula, Fragment, Implies, Not,
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
                letters[_skeleton_letter(f)] = 0
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
            mask[f] = letters[_skeleton_letter(f)]
        elif t is Box:
            mask[f] = full ^ letters[_skeleton_letter(f)]
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


def _skeleton_letter(f: Formula):
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


def _fold_or(lits: Iterable[int]) -> List[int]:
    """The literals of a disjunction as _Cnf writes it: the distinct ones
    in order, _FALSE dropped; [_TRUE] when one is _TRUE or two are
    complementary, and [] when none is left."""
    out: List[int] = []
    seen = set()
    for lit in lits:
        if lit == _TRUE or -lit in seen:
            return [_TRUE]
        if lit != _FALSE and lit not in seen:
            seen.add(lit)
            out.append(lit)
    return out


class _Cnf:
    """Clause store with a constant-true variable and folding gates.

    Variable 1 is pinned true. define_or, and define_or2/define_and2 for
    two inputs, drop constants, collapse complementary pairs, and cache
    gates by literal set, so the encodings of a diamond and of the matching
    negated box meet in the same variable and contradictions between them
    surface as constants. A gate of two inputs a, b, however made, is keyed
    by the pair (min(a, b), max(a, b)), one of more by the frozenset of its
    inputs.

    The clause lists go to the solver as they are. Its watch scheme
    watches the first two literals of each and reorders the literals
    inside them during solve, so the order they are made in is chosen for
    the goal probes (solver module docstring):

    * add_goal requires the disjunction of the goal's literals, phi's
      literal on each class or cell in ascending cell order, folded as
      define_or folds its inputs, as one clause with no gate. It keeps the
      literals in goal, which solve hands to the solver to probe in that
      order, least cell first. The clause lists them last cell first, so
      it is watched on the two literals probed last: a failed probe
      falsifies a literal it does not watch, and the clause is scanned
      once per candidate instead of once per probe.
    * A gate's long clause lists its inputs before its negated output,
      [a, b, -g] for g = a | b. The level-0 unit a failed probe leaves is
      mostly a gate's output, and it then wakes no watch of that gate's
      long clause."""

    def __init__(self):
        self.nvars = 1
        self.clauses: List[List[int]] = [[_TRUE]]
        self._gate: Dict[Union[Tuple[int, int], frozenset], int] = {}
        self.goal: List[int] = []

    def new_var(self) -> int:
        self.nvars += 1
        return self.nvars

    def define_or(self, lits: List[int]) -> int:
        out = _fold_or(lits)
        if not out:
            return _FALSE
        if len(out) == 1:
            return out[0]
        if len(out) == 2:
            return self.define_or2(out[0], out[1])
        key = frozenset(out)
        got = self._gate.get(key)
        if got is not None:
            return got
        g = self.new_var()
        self.clauses.append(out + [-g])
        for lit in out:
            self.clauses.append([-lit, g])
        self._gate[key] = g
        return g

    def define_or2(self, a: int, b: int) -> int:
        """define_or([a, b]) without the list: same folding, same gate
        key and the same clauses in the same order; define_or hands its
        two-input gates here."""
        if a == _TRUE or b == _TRUE or a == -b:
            return _TRUE
        if a == _FALSE or a == b:
            return b
        if b == _FALSE:
            return a
        key = (a, b) if a < b else (b, a)
        got = self._gate.get(key)
        if got is not None:
            return got
        self.nvars = g = self.nvars + 1
        self.clauses += ([a, b, -g], [-a, g], [-b, g])
        self._gate[key] = g
        return g

    def define_and2(self, a: int, b: int) -> int:
        return -self.define_or2(-a, -b)

    def add_goal(self, lits: List[int]) -> bool:
        """Require one of lits to hold; False, with nothing added, when
        their disjunction folds to false."""
        out = _fold_or(lits)
        if not out:
            return False
        out.reverse()
        self.clauses.append(out)
        self.goal = lits
        return True

    def solve(self) -> Optional[Solver]:
        s = Solver()
        for _ in range(self.nvars):
            s.new_var()
        if not s.add_clauses(self.clauses):
            return None
        s.probe_first(self.goal)
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
Cells = List[Tuple[Interval, int]]


def _cells(tab: Rows) -> Cells:
    """A table's (fixed point, literal) pairs in ascending cell order."""
    return [((x, y), lit) for x, row in enumerate(tab)
            for y, lit in enumerate(row, x + 1)]


class _Encoder(_Candidate):
    """CNF truth of every subformula of a formula over one periodic
    candidate domain, for the begin/later modalities B, iB, L and iL, with
    one literal per periodicity class.

    Each node has thresholds (A, L, D), folded over the postorder by
    checking._fold_thresholds, the model checker's rule, past which its
    truth repeats under the two shifts stated above models.reduce_cell. A
    node's table (self.tables) holds one literal per fixed point: row x,
    for x < D + per, lists the literals at (x, x + 1) .. (x,
    models.row_stop(b, per, x, x)). Every read of an operand goes through
    the operand's thresholds (models.reduce_cell for a cell,
    models.read_row for a run along a row). The encoder is a back-end of
    checking._fill, which reads the nodes in postorder: it supplies the
    atom and constant rows, negation, _Cnf's and/or gates applied cell by
    cell, and the diamonds. Tables are filled row by row and cell by cell
    through the folding gates of _Cnf, so the variable numbering is fixed.

    The tables, for an operand s with thresholds (A, L, D), whose lift
    rules are argued at checking._lift:

    * an atom's fixed points are the canonical cells, as its thresholds
      are (pre, 1, pre);
    * <B> s, (A + per, L + per, D): a row is a ladder. Rung y is rung
      y - 1 or, when s at (x, y - 1) is new to the ladder, rung y - 1
      joined with it;
    * <iB> s, unchanged: the scan stops at models.row_stop;
    * <L> s, <A> <A> s, (D, 1, D): it joins s over the rows x' > y, up to
      models.later_stop, each as its whole row of classes;
    * <iL> s, <iA> <iA> s, (0, 1, D + 2 per + L - 1): it joins s over
      the cells (x', y'), y' < x, so it depends on x alone. The rungs of
      one ladder over x take in the values at column x - 1 new to it.

    Any other modality is an UnsupportedFragmentError.

    A box is [M] s = ~<M> ~s, as checking._fill reads it. A rung
    is by induction the join of the literals it has taken in, so a covered
    one would change nothing; the covered sets are never iterated, so the
    gate numbering does not depend on the hash seed. Gates are full two-way
    definitions after the atom variables, so the lex-least model and the
    witness are those of unsaturated ladders.
    """

    def __init__(self, domain: PeriodicDomain, letters: List[str],
                 order: List[Formula]):
        super().__init__(domain, letters)
        self.per = domain.per
        self.bounds = _fold_thresholds(order, domain.pre, self.per)
        self.and2, self.or2 = self.cnf.define_and2, self.cnf.define_or2
        self.tables: Dict[Formula, Rows] = _fill(order, {}, self)

    def _ends(self, b: Bounds) -> List[int]:
        """Where each row of a table with thresholds b ends."""
        return [row_stop(b, self.per, x, x) for x in range(b[2] + self.per)]

    def atom(self, name: str) -> Rows:
        pre, var = self.domain.pre, self.atom_var
        return [[var[(name, (x, y))] for y in range(x + 1, hi + 1)]
                for x, hi in enumerate(self._ends((pre, 1, pre)))]

    def constant(self, v: int) -> Rows:
        return [[v] * (hi - x) for x, hi in enumerate(self._ends((0, 1, 0)))]

    def negation(self, rows: Rows) -> Rows:
        return [[-lit for lit in row] for row in rows]

    def pointwise(self, f: Formula, op, lhs: Rows, rhs: Rows) -> Rows:
        per = self.per
        return [list(map(op, read_row(lhs, per, x, hi),
                         read_row(rhs, per, x, hi)))
                for x, hi in enumerate(self._ends(self.bounds[f]))]

    def diamond(self, f: Union[Diamond, Box], sub: Rows) -> Rows:
        """The rows of <M> over sub, f being <M> s or [M] s and sub the
        rows of s (of ~s for a box)."""
        name, per, cnf = f.mod.name, self.per, self.cnf
        his, b = self._ends(self.bounds[f]), self.bounds[f.sub]
        tab = []
        if name == "B":
            for x, hi in enumerate(his):
                row = [_FALSE]
                covered = set()     # the literals row[-1] joins
                for lit in read_row(sub, per, x, hi - 1):
                    row.append(row[-1] if lit in covered
                               else cnf.define_or2(row[-1], lit))
                    covered.add(lit)
                tab.append(row)
        elif name == "iB":
            for x, hi in enumerate(his):
                s = read_row(sub, per, x, hi + per)
                tab.append([cnf.define_or(s[y - x:row_stop(b, per, x, y) - x])
                            for y in range(x + 1, hi + 1)])
        elif name == "L":
            joins: Dict[int, int] = {}      # row of sub -> its join
            after = [_FALSE]                # y -> the join of the rows past y
            for y in range(1, his[-1] + 1):
                lits = []
                for xp in range(y + 1, later_stop(b, per, y) + 1):
                    r = reduce_cell(b, per, xp, xp + 1)[0]
                    if r not in joins:
                        joins[r] = cnf.define_or(sub[r])
                    lits.append(joins[r])
                after.append(cnf.define_or(lits))
            tab = [after[x + 1:hi + 1] for x, hi in enumerate(his)]
        elif name == "iL":
            rung = [_FALSE, _FALSE]
            covered = set()     # the literals rung[-1] is the disjunction of
            for v in range(2, len(his)):
                new = []
                for a in range(v - 1):
                    x, y = reduce_cell(b, per, a, v - 1)
                    lit = sub[x][y - x - 1]
                    if lit not in covered:
                        covered.add(lit)
                        new.append(lit)
                rung.append(cnf.define_or([rung[-1]] + new) if new
                            else rung[-1])
            tab = [[rung[x]] * (hi - x) for x, hi in enumerate(his)]
        else:
            raise UnsupportedFragmentError(
                "modality %s outside the begin/later fragment" % name)
        return tab


def _recheck(phi: Formula, model: IntervalModel, witness: Interval) -> bool:
    """Truth of phi at the witness by the model checker: mc_finite, or
    mc_periodic at the horizons it derives, under which every capped scan
    is conclusive."""
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

    0. a phi that _prop_unsat refutes builds no candidate, a candidate
       whose goal folds to false, phi's literal being constant false on
       every class, is refuted without a solver, and one where every
       class of phi fails its probe (unit propagation from phi's literal
       on that class conflicts) is refuted by the solver with no
       decision. This last refutes every candidate of the
       well-foundedness shape <B> s & [B] (s -> <B> s);
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
            if not enc.cnf.add_goal([lit for _, lit in cells]):
                # phi folded to false on every class: no solver to build
                return None
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
    order = postorder(phi)
    for n in range(1, max_points + 1):
        cand = _Candidate(FiniteDomain(n), letters)
        table = _finite_engine(cand).fill(order)[phi]
        cells = canonical_cells(cand.domain)
        lits = [table[x * (n + 1) + y] for x, y in cells]
        if not cand.cnf.add_goal(lits):
            continue
        solver = cand.cnf.solve()
        if solver is not None:
            return cand.certificate(solver, zip(cells, lits), phi)
    return Unknown("no model with at most %d points past the origin"
                   % max_points)


def check_certificate(phi: Formula, model: IntervalModel,
                      witness: Interval) -> bool:
    """Re-check a Sat certificate from scratch. NotStabilized, the checker's
    fault of running out of horizons, counts as a failed check rather than
    an error."""
    try:
        return _recheck(phi, model, tuple(witness))
    except (NotStabilized, ValueError):
        return False
