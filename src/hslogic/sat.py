"""Satisfiability checking.

Two procedures with different scopes:

* sat_bbll decides formulas built from the begin modalities and the later
  modalities over unbounded strongly discrete orders: a pre-check, a
  signed K4 tableau (_prop_unsat), then ultimately periodic candidates by
  prefix/period split, each encoded by _Encoder with one literal per
  periodicity class of each subformula, and solved. Its docstring has the
  schedule and why it is complete up to the periodic bound.
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
from .syntax import letters_of, modal_depth  # noqa: F401
from .solver import Solver
from .syntax import (
    FALSE, TRUE, And, Atom, Box, Diamond, Formula, Fragment, Implies, Not,
    Or, B, iB, L, iL, _MOD_BIT, _letters, _skeleton_letter, dia,
    fragment_of, metrics, postorder,
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
# the modalities of _BBLL as a bit set, as formula nodes record theirs
_BBLL_MODS = sum(_MOD_BIT[m] for m in _BBLL)
# the modalities _prop_unsat steps through, transitive on any linear order,
# by their fields, which hash in C
_K4 = {(m.base, m.inverted) for m in _BBLL}
# the most nodes _prop_unsat visits, branches included. Satisfiability in K4
# is PSPACE-complete, and box sets carried along different paths can make a
# formula of n diamonds reach 2^n nodes.
_WALK_SETS = 256

_TRUE = 1
_FALSE = -1

# the two answers of _prop_unsat, shared
_PROPOSITIONAL = Unsat("propositional refutation")
_MODAL = Unsat("modal refutation")


def later_somewhere(phi: Formula) -> Formula:
    """Wrap phi so that truth at [0, 1] means truth at some interval."""
    return dia(L, dia(iL, phi))


# a signed formula: (f, True) says f holds, (f, False) that ~f holds
Signed = Tuple[Formula, bool]


def _prop_unsat(phi: Formula) -> Optional[Unsat]:
    """Refute phi before any candidate is built: Unsat with the reason, or
    None. Sound, never complete.

    The walk is a K4 tableau over signed formulas, in Smullyan's uniform
    notation (First-Order Logic, 1968) with the K4 step of Goré's "Tableau
    methods for modal and temporal logics" (1999). A node is a tuple of
    signed formulas, read as their conjunction at one interval, and the
    root is (phi, True). Expanding a node (_expand) reads ~ into the sign,
    so the walk builds no formula, and:

    * adds the parts of each α member: a & b, ~(a | b), ~(a -> b);
    * keeps each β member, a | b, a -> b and ~(a & b), with two parts,
      one of which holds. A β member with a part already true is
      satisfied, and one with a part already false forces its other part;
    * reads every atom, diamond and box as a skeleton letter, a box [M] s
      being the negation of its twin <M> neg(s) (_skeleton_letter), and
      closes when a letter, a compound member or a constant occurs both
      ways, true and false being constants of either sign.

    A node still open with a β member left splits into two branches, the
    node with the one part and the node with the other. A node with none
    left takes the K step of modal tableaux with the boxes carried along,
    as for K4: for each diamond <M> a (or ~[M] s, with a = ~s), where M is
    B, iB, L or iL, its successor is a with b and [M] b for every box
    [M] b (or ~<M> b, with ~b) of the node. A node is refuted when it
    closes, when both of its branches are refuted, or when one of its
    successors is.

    The K step is sound because every HS modality is normal and B, iB, L
    and iL are transitive on any linear order: if the node holds at I,
    some J with I M J has a, every box [M] b of the node gives b at J, and
    since each K with J M K has I M K, also [M] b at J. So J satisfies the
    successor, and a refuted successor refutes the node. Both branches are
    at the node's interval, and one of them holds there. K4 knows neither
    that B is well-founded nor that iB and L always have a successor, so
    the well-foundedness shape <B> s & [B] (s -> <B> s) and [L] false are
    left to the candidates. Without the K step, and within _WALK_SETS
    nodes, the tableau decides the boolean skeleton exactly, atoms,
    diamonds and boxes being opaque letters.

    A refutation with no K step is a "propositional refutation", any other
    a "modal refutation". Each node is visited once: a node met again while
    it is being decided, as carried boxes come back along a chain of steps,
    counts as not refuted. At most _WALK_SETS nodes are visited, so
    recursion is no deeper than that, and expansion keeps its own stack,
    so nesting depth is no limit. A root that closes by itself is answered
    before any node is keyed."""
    if not isinstance(phi, Formula):
        raise TypeError("not a formula: %r" % (phi,))
    root = ((phi, True),)
    node = _expand(root)
    if node is None:
        return _PROPOSITIONAL
    got = _refute(root, node, {frozenset(root): None})
    return _MODAL if got == 2 else _PROPOSITIONAL if got else None


def _refute(members: Tuple[Signed, ...], node, memo: Dict[frozenset,
            Optional[int]]) -> int:
    """How the open node members, expanded to node, is refuted: 0 when it
    is not, 1 when each branch below it closes with no K step, 2 when a K
    step is taken. memo maps the members of each visited node, as a set,
    to its answer, None while it is being decided. It is only looked up,
    and nodes are tuples in the order the walk builds them, so the nodes
    visited under the cap do not depend on hashing."""
    split, dias, boxes = node
    if split is None:
        kids = [(a,) + tuple(boxes.get(mod, ())) for mod, a in dias
                if mod in _K4]
    else:
        kids = [members + (part,) for part in split]
    worst = 1
    for kid in kids:
        key = frozenset(kid)
        if key not in memo and len(memo) < _WALK_SETS:
            memo[key] = None
            expanded = _expand(kid)
            memo[key] = (1 if expanded is None
                         else _refute(kid, expanded, memo))
        got = memo.get(key)
        if split is None:
            if got:
                return 2
        elif not got:
            return 0
        elif got > worst:
            worst = got
    return 0 if split is None else worst


def _signed(f: Formula, sign: bool) -> Tuple[Formula, object, bool]:
    """The signed formula (f, sign) with its ~ read into the sign, and the
    key and sign a node records it under: an atom, a diamond or a box by
    its skeleton letter, a box with the sign of its twin, anything else by
    itself."""
    while type(f) is Not:
        f, sign = f.sub, not sign
    t = type(f)
    if t is Diamond:
        return f, _skeleton_letter(f), sign
    if t is Box:
        return f, _skeleton_letter(f), not sign
    return f, f, sign


def _holds(signs: Dict[object, bool], part: Signed) -> Optional[bool]:
    """Whether a node's recorded signs make part true, false, or neither."""
    _, key, sign = _signed(*part)
    got = signs.get(key)
    return None if got is None else got is sign


def _expand(members: Sequence[Signed]):
    """Expand a node of _prop_unsat: None when it closes, else its first β
    member still open, as its two parts, or None; its diamonds as
    (modality, signed operand); and the signed formulas its successors
    carry, by modality."""
    # key -> sign for each letter, compound member and constant
    signs: Dict[object, bool] = {TRUE: True, FALSE: False}
    dias: List[Tuple[tuple, Signed]] = []
    boxes: Dict[tuple, List[Signed]] = {}
    betas: List[Tuple[Signed, Signed]] = []
    todo = list(members)
    while True:
        while todo:
            f, key, sign = _signed(*todo.pop())
            got = signs.get(key)
            if got is not None:
                if got is sign:
                    continue
                return None
            signs[key] = sign
            t = type(f)
            if t is And:
                if sign:
                    todo += ((f.rhs, True), (f.lhs, True))
                else:
                    betas.append(((f.lhs, False), (f.rhs, False)))
            elif t is Or:
                if sign:
                    betas.append(((f.lhs, True), (f.rhs, True)))
                else:
                    todo += ((f.rhs, False), (f.lhs, False))
            elif t is Implies:
                if sign:
                    betas.append(((f.lhs, False), (f.rhs, True)))
                else:
                    todo += ((f.rhs, False), (f.lhs, True))
            elif t is not Atom:
                # a diamond or a box, sign telling whether its twin diamond
                # holds: <M> a and ~[M] s hold a successor, [M] b and ~<M> b
                # are carried into the successors
                mod = (f.mod.base, f.mod.inverted)
                if sign:
                    dias.append((mod, (f.sub, t is Diamond)))
                else:
                    boxes.setdefault(mod, []).extend(
                        ((f, t is Box), (f.sub, t is Box)))
        # the β members, now that no other member is left to read
        left = []
        for parts in betas:
            a, b = _holds(signs, parts[0]), _holds(signs, parts[1])
            if a is False:
                todo.append(parts[1])
            elif b is False:
                todo.append(parts[0])
            elif not (a or b):
                left.append(parts)
        betas = left
        if not todo:
            break
    return (betas[0] if betas else None), dias, boxes


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
        """-define_or2(-a, -b) without the negations: same folding, same
        gate key and the same clauses in the same order."""
        if a == _FALSE or b == _FALSE or a == -b:
            return _FALSE
        if a == _TRUE or a == b:
            return b
        if b == _TRUE:
            return a
        key = (-a, -b) if a > b else (-b, -a)
        got = self._gate.get(key)
        if got is not None:
            return -got
        self.nvars = g = self.nvars + 1
        self.clauses += ([-a, -b, -g], [a, g], [b, g])
        self._gate[key] = g
        return -g

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
        self._row_ends: Dict[Bounds, List[int]] = {}
        self.tables: Dict[Formula, Rows] = _fill(order, {}, self)

    def _ends(self, b: Bounds) -> List[int]:
        """Where each row of a table with thresholds b ends, listed once
        per thresholds; callers only read the list."""
        ends = self._row_ends.get(b)
        if ends is None:
            per = self.per
            ends = self._row_ends[b] = [row_stop(b, per, x, x)
                                        for x in range(b[2] + per)]
        return ends

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
    prefix/period split up to the periodic bound is refuted. max_bound
    only truncates: the search stops at the lesser of it and the formula's
    own bound, so one at or above the own bound changes nothing, and one
    below it reports the failure case as Unknown instead.

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

    0. a phi whose tableau in _prop_unsat closes, on every branch and
       with K steps or without, builds no candidate, whatever max_bound
       is; a candidate whose goal folds to false, phi's literal being
       constant false on every class, is refuted without a solver, and
       one where every class of phi fails its probe (unit propagation
       from phi's literal on that class conflicts) is refuted by the
       solver with no decision. This last refutes every candidate of the
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
    # fragment_of raises the TypeError for what is no formula
    if not isinstance(phi, Formula) or phi._mods & ~_BBLL_MODS:
        raise UnsupportedFragmentError("sat_bbll handles fragment %s; got %s"
                                       % (_BBLL.name, fragment_of(phi).name))
    refuted = _prop_unsat(phi)
    if refuted is not None:
        return refuted
    own_bound = metrics(phi).periodic_bound
    bound = own_bound if max_bound is None else min(max_bound, own_bound)
    order = postorder(phi)
    letters = sorted(_letters(order))
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
    order = postorder(phi)
    letters = sorted(_letters(order))
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
