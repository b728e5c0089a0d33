"""Satisfiability checking.

Two procedures with different scopes:

* sat_bbll decides formulas built from the begin modalities and the later
  modalities over unbounded strongly discrete orders: a pre-check
  (_prop_unsat), then ultimately periodic candidates by prefix/period
  split, each encoded by _Encoder and solved. Its docstring has the
  schedule and why it is complete up to the periodic bound.
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
    modal_depth, neg, nesting_depth, postorder,
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
    # the boolean skeleton; the walk stops at the letters, and a box walks
    # on to its twin
    mask: Dict[Formula, int] = {}
    twin: Dict[Formula, Formula] = {}
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
            elif t is Box:
                twin[f] = g = Diamond(f.mod, neg(f.sub))
                stack.append(g)
    letters = [f for f in mask if type(f) in (Atom, Diamond)]
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
    # letters keep the masks they have, and a box reads its twin's
    for f in sorted(mask, key=nesting_depth):
        t = type(f)
        if t is Not:
            mask[f] = full ^ mask[f.sub]
        elif t is Box:
            mask[f] = full ^ mask[twin[f]]
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
    are literals. The certificate re-check, mc_finite, runs the same
    recurrences in the three-valued lattice."""
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

    An encoder is built from a split, the letters and a goal's postorder.
    Its window is 0..h, h = _scan_frontier(pre, per, d, 1) for the goal's
    modal depth d: every capped scan reachable from the goal's cell [0, 1]
    ends inside it. tables() encodes the goal at [0, 1] one subformula at a
    time, in two passes over the order:

    * the demand pass, from the root down, works out the cells each node is
      needed at: [0, 1] for the root, and for every other node the union
      of what its parents ask of it. A connective or a negation asks for
      its own cells; a diamond or a box asks for the cells its scan or
      ladder reads;
    * the build pass, from the leaves up, fills each node's table (cell to
      literal) through the folding gates of _Cnf, node by node and cell by
      cell in ascending (x, y) order, so the variable numbering is fixed.
      A box is [M] s = ~<M> ~s, as _TableEngine._compute writes it: the
      diamond's build over the operand's negated literals, negated.

    A table covers exactly the node's demanded cells, and for <B> and [B]
    also every rung of their ladders. Scans are cut at the model checker's
    periodicity caps:

    * <B> at (x, y) is rung y of row x's ladder, which extends rung y-1 by
      the operand at (x, y-1) when that literal is new to the ladder, and
      is rung y-1 otherwise; a row's ladder runs up to its highest
      demanded y;
    * <iB> at (x, y) is the operand's disjunction over (x, y+1) .. (x, cap);
    * <L> at (x, y) depends on y alone: the disjunction, over the rows x'
      from y+1 up to the later cap, of the operand's disjunction along row
      x' up to that row's cap;
    * <iL> at (x, y) depends on x alone: rung x of a ladder over left
      endpoints, which extends rung x-1 by the operands at the (a, x-1)
      that are new to the ladder, and is rung x-1 when none is.

    The ladders saturate: by induction each rung is the disjunction of the
    operand literals it has taken in, so a literal it covers already would
    change nothing. An atom reads the variable of its canonical cell, so a
    row holds only O(pre + 2 per) distinct atom literals, and a ladder stops
    making gates soon after. The covered literals are kept in sets used for
    membership only, never iterated, so the gate numbering does not depend
    on the hash seed. Every gate is a full two-way definition and the atom
    variables come first, so the solver's lex-least model and the witness
    are those of the unsaturated ladders.
    """

    def __init__(self, domain: PeriodicDomain, letters: List[str],
                 order: List[Formula]):
        super().__init__(domain, letters)
        self.order = order
        self.pre, self.per = domain.pre, domain.per
        self.h = _scan_frontier(self.pre, self.per, modal_depth(order[-1]), 1)
        self.w = self.h + 1

    def tables(self, keep: Sequence[Formula] = ()) -> Dict[Formula, Table]:
        """The tables of the root, at [0, 1], and of the nodes in keep.
        Each table lists its cells in ascending order. Every other table is
        released once the last node reading it is built.

        Inside, cell (x, y) is the key x * w + y with w = h + 1: keys sort
        as cells do, and a run of cells along a row is a range."""
        # Every demanded cell lies inside [0, 1] or below a scan cap
        # checked against the horizon, so it needs no check of its own.
        w, order = self.w, self.order
        root = order[-1]
        need: Dict[Formula, set] = {f: set() for f in order}
        need[root].add(1)       # [0, 1], the key 0 * w + 1
        plan = {}
        for f in reversed(order):
            got = sorted(need.pop(f))
            t = type(f)
            if t is Diamond or t is Box:
                plan[f] = self._demand(f, got, need[f.sub])
                continue
            plan[f] = got
            for n in f._operands:
                need[getattr(f, n)].update(got)
        last = {getattr(f, n): f for f in order for n in f._operands}
        kept = set(keep)
        kept.add(root)
        cnf = self.cnf
        canon: Dict[int, Interval] = {}
        table: Dict[Formula, Dict[int, int]] = {}
        for f in order:
            got = plan.pop(f)
            t = type(f)
            if t is Atom:
                for k in got:
                    if k not in canon:
                        canon[k] = canonical_interval(self.domain,
                                                      divmod(k, w))
                var, name = self.atom_var, f.name
                tab = {k: var[(name, canon[k])] for k in got}
            elif t is Not:
                sub = table[f.sub]
                tab = {k: -sub[k] for k in got}
            elif t is Diamond:
                tab = self._build(f, got, table[f.sub])
            elif t is Box:
                sub = {k: -lit for k, lit in table[f.sub].items()}
                tab = {k: -lit for k, lit in self._build(f, got, sub).items()}
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
            for n in f._operands:
                g = getattr(f, n)
                if last[g] is f and g not in kept:
                    table.pop(g, None)
        return {f: {divmod(k, w): lit for k, lit in table[f].items()}
                for f in kept}

    def _demand(self, f: Union[Diamond, Box], cells: List[int], sub_need: set):
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

    def _build(self, f: Union[Diamond, Box], plan, sub: Dict[int, int]):
        name = f.mod.name
        cnf, w = self.cnf, self.w
        if name == "B":
            or2 = cnf.define_or2
            tab = {}
            for x, top in plan.items():
                tab[x * w + x + 1] = acc = _FALSE
                covered = set()     # the literals acc is the disjunction of
                for k in range(x * w + x + 2, x * w + top + 1):
                    lit = sub[k - 1]
                    if lit not in covered:
                        covered.add(lit)
                        acc = or2(acc, lit)
                    tab[k] = acc
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
        covered = set()         # the literals rung[-1] is the disjunction of
        for v in range(2, top + 1):
            new = [lit for lit in dict.fromkeys(sub[a * w + v - 1]
                                                for a in range(v - 1))
                   if lit not in covered]
            covered.update(new)
            rung.append(define_or([rung[-1]] + new) if new else rung[-1])
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
    The search runs in three steps, after a pre-check:

    0. a phi that _prop_unsat refutes builds no candidate, and a
       candidate whose goal literal folds to false in _Cnf's gates is
       refuted without a solver;
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
    goal = later_somewhere(phi)
    order = postorder(goal)
    letters = sorted(letters_of(phi))
    solved: Dict[Tuple[int, int], Tuple[_Encoder, Solver, Table]] = {}

    def candidate(pre: int,
                  per: int) -> Optional[Tuple[_Encoder, Solver, Table]]:
        """The encoder, solver and phi's table of a satisfiable split,
        None for a refuted one, whose encoding is then already released."""
        got = solved.get((pre, per))
        if got is None:
            enc = _Encoder(PeriodicDomain(pre, per), letters, order)
            tables = enc.tables((phi,))
            root = tables[goal][(0, 1)]
            if root == _FALSE:
                # refuted by the folding gates alone: no solver to build
                return None
            enc.cnf.clauses.append([root])
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
