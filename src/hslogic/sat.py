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

Both build their candidates with one encoder, which differs between the two
kinds of domain only in how it encodes a diamond, and both return a model
and witness interval through one certificate path that re-checks them with
the model checker; a failed re-check raises CertificateError. Atom variables
are allocated first, ordered by letter then cell, and the solver's first
model is lexicographically least, so results are reproducible down to the
returned valuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .checking import (
    _later_cap, _row_cap, _scan_frontier, NotStabilized, mc_finite,
    mc_periodic,
)
from .models import (
    FiniteDomain, Interval, IntervalModel, PeriodicDomain, allen_related,
    canonical_cells, canonical_interval,
)
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
        for c in self.clauses:
            if not s.add_clause(c):
                return None
        return s if s.solve() else None


class _Encoder:
    """CNF truth of subformulas at grid cells over one candidate domain.

    The atom variables come first, by letter then canonical cell, and an
    atom at any cell reads the variable of its canonical cell. How a
    diamond is encoded is fixed per domain when the encoder is made: over a
    finite order it is the disjunction of the child over the exact
    allen_related successors, for any of the twelve modalities; over a
    periodic domain only B, iB, L and iL are encoded, with row ladders and
    with scans cut at the model checker's periodicity caps."""

    def __init__(self, domain, horizon: int, letters: List[str]):
        self.cnf = cnf = _Cnf()
        self.domain = domain
        self.h = horizon
        cells = canonical_cells(domain)
        self.atom_var: Dict[Tuple[str, Interval], int] = {
            (letter, cell): cnf.new_var()
            for letter in letters for cell in cells}
        self.memo: Dict[Tuple[Formula, Interval], int] = {}
        # The plain function, called with self: a bound method kept on the
        # instance would be a reference cycle, and every refuted candidate's
        # memo and clauses would then wait for the cyclic collector.
        if isinstance(domain, FiniteDomain):
            self._diamond = _Encoder._finite_diamond
        else:
            self.pre, self.per = domain.pre, domain.per
            self._shared: Dict[Tuple[Formula, int], int] = {}
            # top rung built per B ladder (f, x) and per iL ladder f
            self._top: Dict[object, int] = {}
            self._diamond = _Encoder._periodic_diamond

    def lit(self, f: Formula, cell: Interval) -> int:
        key = (f, cell)
        got = self.memo.get(key)
        if got is not None:
            return got
        v = self._build(f, cell)
        self.memo[key] = v
        return v

    def _build(self, f: Formula, cell: Interval) -> int:
        if cell[1] > self.h:
            raise RuntimeError("cell %r beyond the encoding horizon" % (cell,))
        t = type(f)
        if t is Not:
            return -self.lit(f.sub, cell)
        if t is Diamond:
            return self._diamond(self, f, cell)
        if t is And:
            return self.cnf.define_and2(self.lit(f.lhs, cell),
                                        self.lit(f.rhs, cell))
        if t is Or:
            return self.cnf.define_or2(self.lit(f.lhs, cell),
                                       self.lit(f.rhs, cell))
        if t is Implies:
            return self.cnf.define_or2(-self.lit(f.lhs, cell),
                                       self.lit(f.rhs, cell))
        if t is Atom:
            c = canonical_interval(self.domain, cell)
            return self.atom_var[(f.name, c)]
        if t is TrueConst:
            return _TRUE
        if t is FalseConst:
            return _FALSE
        if t is Box:
            return -self.lit(Diamond(f.mod, neg(f.sub)), cell)
        raise TypeError("not a formula: %r" % (f,))

    def _finite_diamond(self, f: Diamond, cell: Interval) -> int:
        succ = allen_related(self.domain, cell, f.mod)
        return self.cnf.define_or([self.lit(f.sub, c) for c in succ])

    def _periodic_diamond(self, f: Diamond, cell: Interval) -> int:
        name = f.mod.name
        sub = f.sub
        x, y = cell
        if name == "B":
            # shared ladder along the row: value at (x, y) extends (x, y-1).
            # Rungs (x, x+1)..(x, top) are in memo, top in _top; lit() only
            # gets here for y > top, so the ladder resumes at top + 1.
            top = self._top.get((f, x))
            if top is None:
                top, acc = x + 1, _FALSE
                self.memo[(f, (x, top))] = acc
            else:
                acc = self.memo[(f, (x, top))]
            for y2 in range(top + 1, y + 1):
                acc = self.cnf.define_or2(acc, self.lit(sub, (x, y2 - 1)))
                self.memo[(f, (x, y2))] = acc
            self._top[(f, x)] = y
            return acc
        if name == "iB":
            cap = _row_cap(self.pre, self.per, modal_depth(sub), x, y)
            if cap > self.h:
                raise RuntimeError("scan cap beyond the encoding horizon")
            return self.cnf.define_or(
                [self.lit(sub, (x, yp)) for yp in range(y + 1, cap + 1)])
        if name == "L":
            got = self._shared.get((f, y))
            if got is not None:
                return got
            depth = modal_depth(sub)
            capx = _later_cap(self.pre, self.per, depth, y)
            if capx > self.h - 1:
                raise RuntimeError("scan cap beyond the encoding horizon")
            rows = []
            for xp in range(y + 1, capx + 1):
                cap = _row_cap(self.pre, self.per, depth, xp, xp)
                if cap > self.h:
                    raise RuntimeError("scan cap beyond the encoding horizon")
                rows.append(self.cnf.define_or(
                    [self.lit(sub, (xp, yp))
                     for yp in range(xp + 1, cap + 1)]))
            val = self.cnf.define_or(rows)
            self._shared[(f, y)] = val
            return val
        if name == "iL":
            # depends on the left endpoint only; ladder over it. Rungs
            # 2..top are in _shared under (f, v), top in _top under f, and
            # a call past top resumes the ladder at top + 1.
            top = self._top.get(f, 1)
            if x <= top:
                return self._shared[(f, x)] if x >= 2 else _FALSE
            acc = self._shared[(f, top)] if top >= 2 else _FALSE
            for v in range(top + 1, x + 1):
                ended = [self.lit(sub, (x2, v - 1)) for x2 in range(0, v - 1)]
                acc = self.cnf.define_or([acc] + ended)
                self._shared[(f, v)] = acc
            self._top[f] = x
            return acc
        raise UnsupportedFragmentError(
            "modality %s outside the begin/later fragment" % name)


def _certificate(enc: _Encoder, solver: Solver, phi: Formula) -> Sat:
    """The solver's model with the least memoised cell where phi's literal
    is true, re-checked independently before it is returned."""
    val: Dict[str, List[Interval]] = {}
    for (letter, cell), var in enc.atom_var.items():
        if solver.model_value(var):
            val.setdefault(letter, []).append(cell)
    model = IntervalModel(enc.domain, val)
    witness = None
    for cell in sorted(c for (f, c) in enc.memo if f is phi):
        lit = enc.memo[(phi, cell)]
        if solver.model_value(abs(lit)) == (lit > 0):
            witness = cell
            break
    if witness is None:
        raise CertificateError("satisfiable encoding without a witness")
    if not _recheck(phi, model, witness):
        raise CertificateError("witness failed independent re-checking")
    return Sat(model, witness)


def _recheck(phi: Formula, model: IntervalModel, witness: Interval) -> bool:
    """Truth of phi at the witness by the model checker, with a periodic
    round budget large enough for every capped scan to be conclusive."""
    domain = model.domain
    if isinstance(domain, FiniteDomain):
        return mc_finite(model, witness, phi)
    depth = modal_depth(phi)
    need = _scan_frontier(domain.pre, domain.per, depth, witness[1])
    rounds = max((need - domain.pre) // domain.per + 2, depth + 2)
    return mc_periodic(model, witness, phi, max_rounds=rounds)


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
    goal_depth = modal_depth(goal)
    letters = sorted(letters_of(phi))
    solved: Dict[Tuple[int, int], Tuple[_Encoder, Solver]] = {}

    def candidate(pre: int, per: int) -> Optional[Tuple[_Encoder, Solver]]:
        """The encoder and solver of a satisfiable split, None for a
        refuted one, whose encoding is then already released."""
        got = solved.get((pre, per))
        if got is None:
            enc = _Encoder(PeriodicDomain(pre, per),
                           _scan_frontier(pre, per, goal_depth, 1), letters)
            enc.cnf.clauses.append([enc.lit(goal, (0, 1))])
            solver = enc.cnf.solve()
            if solver is not None:
                got = (enc, solver)
        return got

    def ordered(totals: range, least_per: int) -> Optional[Sat]:
        for total in totals:
            for pre in range(1, total - least_per + 1):
                got = candidate(pre, total - pre)
                if got is not None:
                    return _certificate(got[0], got[1], phi)
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
        domain = FiniteDomain(n)
        enc = _Encoder(domain, n, letters)
        root = enc.cnf.define_or(
            [enc.lit(phi, c) for c in canonical_cells(domain)])
        if root == _FALSE:
            continue
        enc.cnf.clauses.append([root])
        solver = enc.cnf.solve()
        if solver is not None:
            return _certificate(enc, solver, phi)
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
