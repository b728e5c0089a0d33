"""Satisfiability checking.

Two procedures with different scopes:

* sat_bbll decides formulas built from the begin modalities and the later
  modalities over unbounded strongly discrete orders. It enumerates
  ultimately periodic valuations by prefix/period size up to the bound from
  the formula's metrics, encodes truth of the formula somewhere in the order
  as CNF over atom values on canonical cells, and hands the encoding to the
  clause-learning solver. Scans for the right-unbounded modalities are cut
  at the same periodicity caps the model checker uses, and the horizon is
  sized so every cut is conclusive, which makes a per-candidate refutation
  sound. A positive answer carries a model and a witness interval that are
  re-checked independently before being returned.

* sat_bounded_finite searches finite orders of growing size for the full
  modality set. It can only ever answer Sat or Unknown.

Atom variables are allocated first, ordered by letter then cell, and the
solver's first model is lexicographically least, so results are reproducible
down to the returned valuation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .checking import _scan_frontier, NotStabilized, mc_finite, mc_periodic
from .models import (
    FiniteDomain, Interval, IntervalModel, PeriodicDomain, allen_related,
    canonical_cells, canonical_interval, finite_model, periodic_model,
)
from .solver import Solver
from .syntax import (
    And, Atom, Box, Diamond, FalseConst, Formula, Fragment, Implies, Not,
    Or, TrueConst, B, iB, L, iL, dia, fragment_of, letters_of, metrics,
    modal_depth, neg,
)


class UnsupportedFragmentError(ValueError):
    """The formula uses modalities the procedure does not handle."""


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
    """Propositional refutation: treat every temporal subformula as an
    opaque letter and brute-force the abstraction. Sound, never complete."""
    keys: Dict[Formula, int] = {}

    def collect(f: Formula):
        if isinstance(f, (Atom, Diamond, Box)):
            if f not in keys:
                keys[f] = len(keys)
            return
        if isinstance(f, Not):
            collect(f.sub)
        elif isinstance(f, (And, Or, Implies)):
            collect(f.lhs)
            collect(f.rhs)

    collect(phi)
    if len(keys) > 12:
        return False

    def ev(f: Formula, env) -> bool:
        if isinstance(f, (Atom, Diamond, Box)):
            return env[keys[f]]
        if isinstance(f, TrueConst):
            return True
        if isinstance(f, FalseConst):
            return False
        if isinstance(f, Not):
            return not ev(f.sub, env)
        if isinstance(f, And):
            return ev(f.lhs, env) and ev(f.rhs, env)
        if isinstance(f, Or):
            return ev(f.lhs, env) or ev(f.rhs, env)
        if isinstance(f, Implies):
            return not ev(f.lhs, env) or ev(f.rhs, env)
        raise TypeError("not a formula: %r" % (f,))

    return not any(ev(phi, env)
                   for env in itertools.product([False, True],
                                                repeat=len(keys)))


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


def _lit_value(solver: Solver, lit: int) -> bool:
    v = solver.model_value(abs(lit))
    return v if lit > 0 else not v


class _PeriodicEncoder:
    """CNF truth of subformulas at grid cells over a candidate domain,
    mirroring the model checker's capped scans literal by literal."""

    def __init__(self, cnf: _Cnf, domain: PeriodicDomain, horizon: int,
                 atom_var: Dict[Tuple[str, Interval], int]):
        self.cnf = cnf
        self.domain = domain
        self.pre, self.per = domain.pre, domain.per
        self.h = horizon
        self.atom_var = atom_var
        self.memo: Dict[Tuple[Formula, Interval], int] = {}
        self._shared: Dict[Tuple[Formula, int], int] = {}
        # top rung built per B ladder (f, x) and per iL ladder f
        self._top: Dict[object, int] = {}

    def _theta(self, child_depth: int) -> int:
        return self.pre + 2 * child_depth * self.per

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
            return self._diamond(f, cell)
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

    def _diamond(self, f: Diamond, cell: Interval) -> int:
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
            theta = self._theta(modal_depth(sub))
            cap = max(theta, x + self.per + 1, y + 1) + self.per - 1
            if cap > self.h:
                raise RuntimeError("scan cap beyond the encoding horizon")
            return self.cnf.define_or(
                [self.lit(sub, (x, yp)) for yp in range(y + 1, cap + 1)])
        if name == "L":
            got = self._shared.get((f, y))
            if got is not None:
                return got
            theta = self._theta(modal_depth(sub))
            capx = max(theta, y + 1) + self.per - 1
            if capx > self.h - 1:
                raise RuntimeError("scan cap beyond the encoding horizon")
            rows = []
            for xp in range(y + 1, capx + 1):
                cap = max(theta, xp + self.per + 1) + self.per - 1
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


class _FiniteEncoder:
    """Exact CNF truth over one finite order; all twelve modalities."""

    def __init__(self, cnf: _Cnf, domain: FiniteDomain,
                 atom_var: Dict[Tuple[str, Interval], int]):
        self.cnf = cnf
        self.domain = domain
        self.atom_var = atom_var
        self.memo: Dict[Tuple[Formula, Interval], int] = {}

    def lit(self, f: Formula, cell: Interval) -> int:
        key = (f, cell)
        got = self.memo.get(key)
        if got is not None:
            return got
        v = self._build(f, cell)
        self.memo[key] = v
        return v

    def _build(self, f: Formula, cell: Interval) -> int:
        t = type(f)
        if t is Not:
            return -self.lit(f.sub, cell)
        if t is Diamond:
            succ = allen_related(self.domain, cell, f.mod)
            return self.cnf.define_or(
                [self.lit(f.sub, c) for c in succ])
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
            return self.atom_var[(f.name, cell)]
        if t is TrueConst:
            return _TRUE
        if t is FalseConst:
            return _FALSE
        if t is Box:
            return -self.lit(Diamond(f.mod, neg(f.sub)), cell)
        raise TypeError("not a formula: %r" % (f,))


def _valuation_from(solver: Solver,
                    atom_var: Dict[Tuple[str, Interval], int]):
    val: Dict[str, List[Interval]] = {}
    for (letter, cell), var in atom_var.items():
        if solver.model_value(var):
            val.setdefault(letter, []).append(cell)
    return val


def _verify_rounds(domain: PeriodicDomain, phi: Formula, wy: int) -> int:
    depth = modal_depth(phi)
    need = _scan_frontier(domain.pre, domain.per, depth, wy)
    k = (need - domain.pre) // domain.per + 2
    return max(k, depth + 2)


def sat_bbll(phi: Formula, max_bound: Optional[int] = None) -> SatResult:
    """Decide phi over unbounded strongly discrete orders.

    Only begin and later modalities are allowed. Returns Sat with an
    ultimately periodic model and a witness interval, or Unsat once every
    prefix/period split up to the periodic bound is refuted. If max_bound
    trims the search below the formula's own bound the failure case is
    reported as Unknown instead."""
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
    for total in range(2, bound + 1):
        for pre in range(1, total):
            per = total - pre
            domain = PeriodicDomain(pre, per)
            horizon = _scan_frontier(pre, per, goal_depth, 1)
            cnf = _Cnf()
            atom_var = {}
            for letter in letters:
                for cell in canonical_cells(domain):
                    atom_var[(letter, cell)] = cnf.new_var()
            enc = _PeriodicEncoder(cnf, domain, horizon, atom_var)
            root = enc.lit(goal, (0, 1))
            cnf.clauses.append([root])
            solver = cnf.solve()
            if solver is None:
                continue
            model = periodic_model(pre, per, _valuation_from(solver, atom_var))
            witness = None
            for cell in sorted(c for (f, c) in enc.memo if f == phi):
                if _lit_value(solver, enc.memo[(phi, cell)]):
                    witness = cell
                    break
            if witness is None:
                raise RuntimeError("satisfiable encoding without a witness")
            rounds = _verify_rounds(domain, phi, witness[1])
            if not mc_periodic(model, witness, phi, max_rounds=rounds):
                raise RuntimeError("witness failed independent re-checking")
            return Sat(model, witness)
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
        cells = canonical_cells(domain)
        cnf = _Cnf()
        atom_var = {}
        for letter in letters:
            for cell in cells:
                atom_var[(letter, cell)] = cnf.new_var()
        enc = _FiniteEncoder(cnf, domain, atom_var)
        root = cnf.define_or([enc.lit(phi, c) for c in cells])
        if root == _FALSE:
            continue
        cnf.clauses.append([root])
        solver = cnf.solve()
        if solver is None:
            continue
        model = finite_model(n, _valuation_from(solver, atom_var))
        witness = None
        for c in cells:
            if _lit_value(solver, enc.lit(phi, c)):
                witness = c
                break
        if witness is None:
            raise RuntimeError("satisfiable encoding without a witness")
        if not mc_finite(model, witness, phi):
            raise RuntimeError("witness failed independent re-checking")
        return Sat(model, witness)
    return Unknown("no model with at most %d points past the origin"
                   % max_points)


def check_certificate(phi: Formula, model: IntervalModel,
                      witness: Interval) -> bool:
    """Re-check a Sat certificate from scratch. NotStabilized counts as a
    failed check rather than an error."""
    witness = tuple(witness)
    try:
        if isinstance(model.domain, FiniteDomain):
            return mc_finite(model, witness, phi)
        rounds = _verify_rounds(model.domain, phi, witness[1])
        return mc_periodic(model, witness, phi, max_rounds=rounds)
    except NotStabilized:
        return False
    except ValueError:
        return False
