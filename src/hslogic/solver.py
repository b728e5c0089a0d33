"""A small CDCL satisfiability solver.

Clause learning with first-unique-implication-point conflicts, watched
literals, and non-chronological backjumping, but deliberately no restarts
and no dynamic variable ordering: decisions always pick the lowest-numbered
unassigned variable and try false first. With that policy the first model
found is the lexicographically least satisfying assignment over the
variable order, which the satisfiability engine relies on to make witness
enumeration deterministic.

Per-literal state lives in plain lists of length 2n+1 indexed by the
literal itself, after Een & Sorensson, "An Extensible SAT-solver" (SAT
2003): literal l sits at index l and -l at index 2n+1-l through Python's
negative indexing, so no lookup needs abs(). `vals[l]` is True, False or
None (unassigned) and always equals `not vals[-l]` when set; `watches[l]`
lists the clauses watching l; `level[l]` and `reason[l]` are written for
the literal that became true. new_var only counts; the lists are rebuilt
for the new size the next time add_clause, add_clauses, solve, value or
model_value runs. Decisions scan upward from a cursor below which every
variable is assigned, and backjumping lowers it to the least variable it
unassigns, the decision variable of the first level undone, so the scan
no longer restarts at variable 1. That variable is the least one undone
only because decisions are made in variable order. Neither change touches
the decision policy or the propagation order: the search, and so the
lex-least model, are step for step those of per-variable arrays and a
full scan.

add_clauses stores the clause lists it is handed, not copies, whenever
add_clause would store them whole, and the watch scheme then reorders the
literals inside them: a caller that reads its clauses after solve() sees
the same clauses with their literals moved. Unit propagation skips the
search for a replacement watch in a two-literal clause, which has none.

Before that search, solve() probes the literals handed to probe_first, in
their order, at level 0 (failed-literal probing, after Freeman,
"Improvements to propositional satisfiability search algorithms", 1995).
A probe assumes its literal at a fresh level and runs unit propagation
alone. If that conflicts, every model makes the literal false, so the
probe is undone and the negated literal is added as a level-0 unit. The
first probe that does not conflict is undone too, implications and all,
and ends the probing. A probe is undone in place, as backjumping to level
0 would undo it; the decision cursor needs no lowering, as it is still at
variable 1. Literals already assigned are passed over, and one already
true ends the probing. Each new unit follows from the clauses, so the
instance keeps exactly its models, and the search that follows is
the fixed-order search over those models: its first model is still the
lex-least one. The satisfiability engine hands over the goal's
literals, so a candidate whose goal fails on every literal is refuted
with no decision at all.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional


def _regrow(arr: list, old: int, fresh: list) -> list:
    """Re-lay a literal-indexed list over old variables for more variables,
    whose literals get the entries of fresh (two per new variable)."""
    return arr[:old + 1] + fresh + arr[old + 1:]


class Solver:
    """CDCL solver over variables 1..nvars.

    Counters, all plain ints that only ever grow:

    * conflicts: conflicting clauses met by solve(), the final one at
      decision level 0 of an unsatisfiable instance included;
    * decisions: decision literals solve() put on the trail;
    * propagations: assigned literals whose watch lists unit propagation
      processed, whether they were decided, implied or added as units.

    A probe (probe_first) is an assumption, not a decision: it leaves
    decisions as it is. A failed probe counts one conflict, and the
    literals a probe propagates count in propagations, as any others.
    """

    def __init__(self):
        self.nvars = 0
        self.clauses: List[List[int]] = []
        self._size = 0           # variables the literal-indexed lists cover
        self.vals: List[Optional[bool]] = [None]
        self.watches: List[List[int]] = [[]]
        self.level: List[int] = [0]
        self.reason: List[int] = [-1]
        self.seen: List[bool] = [False]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.cursor = 1          # every variable below it is assigned
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self._probes: List[int] = []

    def new_var(self) -> int:
        self.nvars += 1
        return self.nvars

    def _grow(self):
        old, new = self._size, self.nvars
        k = 2 * (new - old)
        self.vals = _regrow(self.vals, old, [None] * k)
        self.watches = _regrow(self.watches, old, [[] for _ in range(k)])
        self.level = _regrow(self.level, old, [0] * k)
        self.reason = _regrow(self.reason, old, [-1] * k)
        self.seen = _regrow(self.seen, old, [False] * k)
        self._size = new

    def _bad_literal(self, lit: int) -> ValueError:
        return ValueError("literal %r outside variables 1..%d"
                          % (lit, self.nvars))

    def value(self, lit: int) -> Optional[bool]:
        if not 0 < abs(lit) <= self.nvars:
            raise self._bad_literal(lit)
        if self._size != self.nvars:
            self._grow()
        return self.vals[lit]

    def add_clause(self, lits) -> bool:
        """Add a clause over the literals +-1..+-nvars (ValueError for any
        other number); returns False if the instance is already
        unsatisfiable. Must be called before solve()."""
        if not self.ok:
            return False
        if self._size != self.nvars:
            self._grow()
        vals = self.vals
        level = self.level
        n = self.nvars
        out = []
        kept = set()
        for lit in lits:
            if not -n <= lit <= n or lit == 0:
                raise self._bad_literal(lit)
            if lit in kept:
                continue
            if -lit in kept:
                return True  # tautology
            v = vals[lit]
            if v is True and level[lit] == 0:
                return True
            if v is False and level[-lit] == 0:
                continue
            kept.add(lit)
            out.append(lit)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            if not self._enqueue(out[0], -1):
                self.ok = False
                return False
            if self._propagate() is not None:
                self.ok = False
                return False
            return True
        ci = len(self.clauses)
        self.clauses.append(out)
        self.watches[out[0]].append(ci)
        self.watches[out[1]].append(ci)
        return True

    def add_clauses(self, clauses) -> bool:
        """Add clauses in order, leaving the same clause list, watch lists
        and trail as one add_clause call per clause; returns False once the
        instance is unsatisfiable.

        For clauses with no repeated and no complementary literals, each
        its own list object, only: add_clause's checks for those are
        skipped. The satisfiability encoder's gates fold both away before a
        clause is made. A clause of two or more literals over the
        variables, none of them assigned, is stored and watched as the
        list it is, not a copy, and the solver then reorders the literals
        inside it. The clauses between two units are checked for that at
        once, and clause by clause only when some literal of theirs fails
        it. Units, and clauses the range or level-0 checks catch, go
        through add_clause."""
        if not self.ok:
            return False
        if self._size != self.nvars:
            self._grow()
        # the literals a clause may hold and still skip add_clause: those of
        # the variables 1..nvars that are not assigned
        n = self.nvars
        free = set(range(-n, n + 1))
        free.discard(0)
        for lit in self.trail:
            free.discard(lit)
            free.discard(-lit)
        run = []        # the clauses of two or more literals since the last unit
        for c in clauses:
            if len(c) > 1:
                run.append(c)
                continue
            if run and not self._add_run(run, free):
                return False
            run = []
            if not self._add_checked(c, free):
                return False
        return self._add_run(run, free)

    def _add_run(self, run: List[List[int]], free: set) -> bool:
        """add_clauses for a run of clauses of two or more literals; free
        holds the literals of the unassigned variables."""
        store = self.clauses
        if free.issuperset(chain.from_iterable(run)):
            watches = self.watches
            ci = len(store)
            store += run
            for c in run:
                watches[c[0]].append(ci)
                watches[c[1]].append(ci)
                ci += 1
            return True
        if len(run) == 1:
            return self._add_checked(run[0], free)
        # clause by clause: the ones that pass are still stored as they are
        return all(self._add_run([c], free) for c in run)

    def _add_checked(self, lits, free: set) -> bool:
        """add_clause(lits), then take what it assigned out of free."""
        trail = self.trail
        known = len(trail)
        if not self.add_clause(lits):
            return False
        for lit in trail[known:]:
            free.discard(lit)
            free.discard(-lit)
        return True

    def probe_first(self, lits) -> None:
        """Have solve() probe lits, in order, before its search (module
        docstring); ValueError for a literal outside +-1..+-nvars."""
        n = self.nvars
        for lit in lits:
            if not -n <= lit <= n or lit == 0:
                raise self._bad_literal(lit)
        self._probes = list(lits)

    def _probe(self) -> bool:
        """Probe self._probes at level 0 until one does not conflict;
        returns False on a conflict at level 0."""
        vals = self.vals
        level = self.level
        reason = self.reason
        trail = self.trail
        for lit in self._probes:
            v = vals[lit]
            if v is False:
                continue
            if v is True:
                break
            # assume lit at level 1, propagate, and undo it all in place
            mark = len(trail)
            self.trail_lim.append(mark)
            vals[lit] = True
            vals[-lit] = False
            level[lit] = 1
            reason[lit] = -1
            trail.append(lit)
            failed = self._propagate() is not None
            for t in trail[mark:]:
                vals[t] = None
                vals[-t] = None
            del trail[mark:]
            self.trail_lim.pop()
            self.qhead = mark
            if not failed:
                break
            self.conflicts += 1
            vals[-lit] = True
            vals[lit] = False
            level[-lit] = 0
            reason[-lit] = -1
            trail.append(-lit)
            if self._propagate() is not None:
                return False
        return True

    def _enqueue(self, lit: int, reason: int) -> bool:
        vals = self.vals
        v = vals[lit]
        if v is not None:
            return v
        vals[lit] = True
        vals[-lit] = False
        self.level[lit] = len(self.trail_lim)
        self.reason[lit] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None."""
        trail = self.trail
        vals = self.vals
        watches = self.watches
        clauses = self.clauses
        level = self.level
        reason = self.reason
        lvl = len(self.trail_lim)
        start = qhead = self.qhead
        while qhead < len(trail):
            falsified = -trail[qhead]
            qhead += 1
            ws = watches[falsified]
            new_ws = []
            i = 0
            n = len(ws)
            while i < n:
                ci = ws[i]
                i += 1
                cl = clauses[ci]
                first = cl[0]
                if first == falsified:
                    first = cl[1]
                    cl[0] = first
                    cl[1] = falsified
                # now cl[1] == falsified
                if vals[first] is True:
                    new_ws.append(ci)
                    continue
                # look for a replacement watch; a two-literal clause has none
                if len(cl) > 2:
                    for k in range(2, len(cl)):
                        other = cl[k]
                        if vals[other] is not False:
                            cl[1] = other
                            cl[k] = falsified
                            watches[other].append(ci)
                            break
                    else:
                        k = 0       # none found
                    if k:
                        continue
                # the clause is unit or conflicting
                new_ws.append(ci)
                if vals[first] is False:
                    # conflict: keep remaining watches before reporting
                    new_ws.extend(ws[i:])
                    watches[falsified] = new_ws
                    self.propagations += qhead - start
                    self.qhead = len(trail)
                    return ci
                vals[first] = True
                vals[-first] = False
                level[first] = lvl
                reason[first] = ci
                trail.append(first)
            watches[falsified] = new_ws
        self.propagations += qhead - start
        self.qhead = qhead
        return None

    def _analyze(self, confl: int):
        """First-UIP conflict analysis; returns (learnt, backjump level)
        with the asserting literal first. seen is indexed by the true
        literal of each variable and left all False on return."""
        learnt = [0]
        seen = self.seen
        level = self.level
        trail = self.trail
        counter = 0
        p = 0  # implied literal whose reason is being expanded
        idx = len(trail) - 1
        cur_level = len(self.trail_lim)
        cl = self.clauses[confl]
        while True:
            for q in cl:
                if q == p:
                    continue
                t = -q
                if not seen[t] and level[t] > 0:
                    seen[t] = True
                    if level[t] == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx]]:
                idx -= 1
            p = trail[idx]
            seen[p] = False
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            cl = self.clauses[self.reason[p]]
        learnt[0] = -p
        for q in learnt[1:]:
            seen[-q] = False
        if len(learnt) == 1:
            return learnt, 0
        back = max(level[-q] for q in learnt[1:])
        # put a literal of the backjump level in the second watch slot
        for k in range(1, len(learnt)):
            if level[-learnt[k]] == back:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
        return learnt, back

    def _cancel_until(self, lvl: int):
        """Undo every level above lvl. The first literal undone is the
        decision of level lvl + 1, made on the least variable unassigned
        then, so no variable below it is undone and the cursor comes down
        to it at most."""
        trail = self.trail
        if len(self.trail_lim) > lvl:
            bound = self.trail_lim[lvl]
            del self.trail_lim[lvl:]
            self.cursor = min(self.cursor, abs(trail[bound]))
            vals = self.vals
            for lit in trail[bound:]:
                vals[lit] = None
                vals[-lit] = None
            del trail[bound:]
        self.qhead = len(trail)

    def _next_decision(self) -> int:
        vals = self.vals
        v = self.cursor
        n = self.nvars
        while v <= n and vals[v] is not None:
            v += 1
        self.cursor = v
        return v if v <= n else 0

    def solve(self) -> bool:
        if not self.ok:
            return False
        if self._size != self.nvars:
            self._grow()
        if self._propagate() is not None or not self._probe():
            self.conflicts += 1
            self.ok = False
            return False
        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                if not self.trail_lim:
                    self.ok = False
                    return False
                learnt, back = self._analyze(confl)
                self._cancel_until(back)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], -1)
                else:
                    ci = len(self.clauses)
                    self.clauses.append(learnt)
                    self.watches[learnt[0]].append(ci)
                    self.watches[learnt[1]].append(ci)
                    self._enqueue(learnt[0], ci)
            else:
                v = self._next_decision()
                if v == 0:
                    return True
                self.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(-v, -1)  # try false first

    def model_value(self, var: int) -> bool:
        if not 0 < var <= self.nvars:
            raise IndexError("no variable %r" % (var,))
        if self._size != self.nvars:
            self._grow()
        v = self.vals[var]
        if v is None:
            raise RuntimeError("no model available")
        return v
