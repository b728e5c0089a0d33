"""CDCL core: correctness against brute force, lexicographic-least models."""

import itertools
import random

import pytest

from hslogic.solver import Solver


def brute_force(num_vars, clauses):
    """All satisfying assignments as tuples of bools, lexicographically
    ordered with False < True."""
    out = []
    for bits in itertools.product((False, True), repeat=num_vars):
        ok = True
        for cl in clauses:
            if not any(bits[abs(l) - 1] == (l > 0) for l in cl):
                ok = False
                break
        if ok:
            out.append(bits)
    return out


def run_solver(num_vars, clauses):
    s = Solver()
    for _ in range(num_vars):
        s.new_var()
    for cl in clauses:
        if not s.add_clause(list(cl)):
            return None
    if not s.solve():
        return None
    return tuple(s.model_value(v) for v in range(1, num_vars + 1))


def rand_instance(rng):
    num_vars = rng.randrange(1, 8)
    num_clauses = rng.randrange(0, 18)
    clauses = []
    for _ in range(num_clauses):
        width = rng.randrange(1, 4)
        cl = [rng.choice([-1, 1]) * rng.randrange(1, num_vars + 1)
              for _ in range(width)]
        clauses.append(cl)
    return num_vars, clauses


def test_against_brute_force_and_lex_least():
    rng = random.Random(401)
    sat_seen = unsat_seen = 0
    for _ in range(1500):
        num_vars, clauses = rand_instance(rng)
        want = brute_force(num_vars, clauses)
        got = run_solver(num_vars, clauses)
        if not want:
            assert got is None, (num_vars, clauses)
            unsat_seen += 1
        else:
            assert got == want[0], (num_vars, clauses, got, want[0])
            sat_seen += 1
    assert sat_seen > 300 and unsat_seen > 300


def test_duplicate_and_tautological_clauses():
    s = Solver()
    for _ in range(2):
        s.new_var()
    assert s.add_clause([1, 1, 2])
    assert s.add_clause([1, -1])  # tautology, dropped
    assert s.add_clause([-1])
    assert s.solve()
    assert s.model_value(1) is False


def test_empty_clause_is_conflict():
    s = Solver()
    s.new_var()
    assert not s.add_clause([])


def test_unit_propagation_chain():
    s = Solver()
    for _ in range(4):
        s.new_var()
    for cl in ([1], [-1, 2], [-2, 3], [-3, 4]):
        assert s.add_clause(cl)
    assert s.solve()
    assert all(s.model_value(v) for v in (1, 2, 3, 4))


def test_contradictory_units():
    s = Solver()
    s.new_var()
    ok = s.add_clause([1])
    ok = ok and s.add_clause([-1])
    assert not (ok and s.solve())


def lex_least_masks(num_vars, clauses):
    """The lexicographically least model (False < True, variable 1 most
    significant) by counting through all assignments as bit masks, or
    None. Variable v is bit num_vars - v of the counter."""
    masks = []
    for cl in clauses:
        pos = neg = 0
        for lit in cl:
            bit = 1 << (num_vars - abs(lit))
            if lit > 0:
                pos |= bit
            else:
                neg |= bit
        masks.append((pos, neg))
    full = (1 << num_vars) - 1
    for a in range(1 << num_vars):
        na = full ^ a
        if all(a & pos or na & neg for pos, neg in masks):
            return tuple(bool(a >> (num_vars - v) & 1)
                         for v in range(1, num_vars + 1))
    return None


def test_wide_clauses_against_brute_force_and_lex_least():
    rng = random.Random(4012)
    sat_seen = unsat_seen = conflicts = 0
    for _ in range(600):
        num_vars = rng.randrange(1, 13)
        clauses = []
        for _ in range(rng.randrange(2 * num_vars, 6 * num_vars + 1)):
            # units are rare: they settle small instances before any search
            width = rng.choice((1,) + (2, 3, 3, 3, 3, 4, 5, 6) * 4)
            clauses.append([rng.choice([-1, 1]) * rng.randrange(1, num_vars + 1)
                            for _ in range(width)])
        want = lex_least_masks(num_vars, clauses)
        s = Solver()
        for _ in range(num_vars):
            s.new_var()
        got = None
        if all(s.add_clause(cl) for cl in clauses) and s.solve():
            got = tuple(s.model_value(v) for v in range(1, num_vars + 1))
        assert got == want, (num_vars, clauses)
        conflicts += s.conflicts
        if want is None:
            unsat_seen += 1
        else:
            sat_seen += 1
    assert sat_seen > 100 and unsat_seen > 100 and conflicts > 100


def test_new_var_after_add_clause():
    # variables added between clauses, after level-0 units, must see the
    # earlier assignments and watches intact
    rng = random.Random(77)
    for _ in range(300):
        s = Solver()
        num_vars = 0
        clauses = []
        ok = True
        for _ in range(rng.randrange(1, 14)):
            for _ in range(rng.randrange(0, 3)):
                if num_vars < 10:
                    num_vars = s.new_var()
            if num_vars == 0:
                continue
            cl = [rng.choice([-1, 1]) * rng.randrange(1, num_vars + 1)
                  for _ in range(rng.randrange(1, 4))]
            clauses.append(cl)
            ok = s.add_clause(cl) and ok
        if num_vars == 0:
            continue
        for v in range(1, num_vars + 1):
            assert s.value(v) in (None, True, False)
            if s.value(v) is not None:
                assert s.value(-v) is (not s.value(v))
        want = lex_least_masks(num_vars, clauses)
        got = None
        if ok and s.solve():
            got = tuple(s.model_value(v) for v in range(1, num_vars + 1))
        assert got == want, (num_vars, clauses)


def test_level_zero_unit_survives_new_var():
    s = Solver()
    s.new_var()
    assert s.add_clause([1])
    v = s.new_var()
    assert s.value(1) is True and s.value(-1) is False
    assert s.value(v) is None
    assert s.add_clause([-1, -v])
    assert s.value(-v) is True
    assert s.solve()
    assert s.model_value(1) is True and s.model_value(v) is False


def test_fresh_variable_has_no_value():
    s = Solver()
    v = s.new_var()
    assert s.value(v) is None
    assert s.value(-v) is None


def test_model_value_before_solve_raises():
    s = Solver()
    s.new_var()
    assert s.add_clause([1, -1])
    with pytest.raises(RuntimeError):
        s.model_value(1)


def test_counters_on_unit_propagation_chain():
    # the instance of test_unit_propagation_chain: every clause turns unit
    # at level 0 while it is added, so solve() decides and conflicts nowhere
    s = Solver()
    for _ in range(4):
        s.new_var()
    for cl in ([1], [-1, 2], [-2, 3], [-3, 4]):
        assert s.add_clause(cl)
    assert s.solve()
    assert (s.decisions, s.conflicts, s.propagations) == (0, 0, 4)


def test_counters_on_one_conflict():
    # decide -1, which implies 2 through [1, 2] and falsifies [1, -2];
    # learn the unit 1, then decide -2. Propagated: -1, 1 and -2.
    s = Solver()
    for _ in range(2):
        s.new_var()
    assert s.add_clause([1, 2])
    assert s.add_clause([1, -2])
    assert s.solve()
    assert (s.model_value(1), s.model_value(2)) == (True, False)
    assert (s.decisions, s.conflicts, s.propagations) == (2, 1, 3)


def test_literals_outside_the_variables_are_rejected():
    # with literal-indexed lists, 3 would otherwise read the slot of -2
    s = Solver()
    for _ in range(2):
        s.new_var()
    for bad in ([3], [1, -3], [0]):
        with pytest.raises(ValueError):
            s.add_clause(bad)
    with pytest.raises(ValueError):
        s.value(3)
    with pytest.raises(IndexError):
        s.model_value(3)
    for bad in ([3, 1], [1, -3], [0, 2]):
        with pytest.raises(ValueError):
            s.add_clauses([[1, 2], bad])


def test_bulk_load_matches_one_add_clause_per_clause():
    # clauses without repeated or complementary literals, as the encoder
    # makes them; units among them assign literals of later clauses at
    # level 0, and some instances become unsatisfiable while loading
    rng = random.Random(402)
    stopped = kept = 0
    for _ in range(1500):
        num_vars = rng.randrange(1, 9)
        clauses = []
        for _ in range(rng.randrange(0, 20)):
            width = min(num_vars, rng.choice([1, 1, 2, 3, 4]))
            picked = rng.sample(range(1, num_vars + 1), width)
            clauses.append([v * rng.choice([-1, 1]) for v in picked])
        one, bulk = Solver(), Solver()
        for s in (one, bulk):
            for _ in range(num_vars):
                s.new_var()
        # per stored clause, the index of the input add_clause stored whole
        # (no literal dropped), or None for one it shortened
        whole = []
        ok = True
        for k, c in enumerate(clauses):
            before = len(one.clauses)
            ok = one.add_clause(list(c))
            if len(one.clauses) > before:
                whole.append(k if one.clauses[-1] == c else None)
            if not ok:
                break
        handed = [list(c) for c in clauses]
        assert bulk.add_clauses(handed) == ok
        stopped += not ok
        # with no clause at all, add_clause never re-laid the lists
        one.value(1)
        assert (bulk.clauses, bulk.watches, bulk.trail, bulk.ok) == \
            (one.clauses, one.watches, one.trail, one.ok)
        # a clause stored whole is the caller's own list, not a copy
        for stored, k in zip(bulk.clauses, whole):
            if k is None:
                assert all(stored is not h for h in handed)
            else:
                assert stored is handed[k]
                kept += 1
        assert bulk.solve() == one.solve()
        assert (bulk.clauses, bulk.trail) == (one.clauses, one.trail)
    assert stopped > 100 and kept > 1000


def test_probes_keep_the_lex_least_model():
    # the probes are the literals of one of the instance's clauses, as the
    # satisfiability engine hands over its goal clause, or random literals,
    # which need not fail and need not hold in any model. A failed probe
    # may only add its negation, and a surviving one must leave no
    # implication behind, or the first model is no longer the lex-least one.
    rng = random.Random(4014)
    sat_seen = unsat_seen = conflicts = probed_false = 0
    for _ in range(700):
        num_vars = rng.randrange(2, 11)
        clauses = []
        for _ in range(rng.randrange(2 * num_vars, 5 * num_vars + 1)):
            width = rng.choice((2, 2, 3, 3, 3, 4))
            clauses.append([rng.choice([-1, 1]) * rng.randrange(1, num_vars + 1)
                            for _ in range(width)])
        want = lex_least_masks(num_vars, clauses)
        picked = [rng.choice([-1, 1]) * rng.randrange(1, num_vars + 1)
                  for _ in range(rng.randrange(1, 5))]
        for probes in (rng.choice(clauses), picked):
            s = Solver()
            for _ in range(num_vars):
                s.new_var()
            got = None
            if all(s.add_clause(cl) for cl in clauses):
                s.probe_first(probes)
                if s.solve():
                    got = tuple(s.model_value(v)
                                for v in range(1, num_vars + 1))
            assert got == want, (num_vars, clauses, probes)
            conflicts += s.conflicts
            if want is not None:
                probed_false += any(want[abs(p) - 1] != (p > 0)
                                    for p in probes)
        if want is None:
            unsat_seen += 1
        else:
            sat_seen += 1
    assert sat_seen > 150 and unsat_seen > 150
    assert conflicts > 500 and probed_false > 200


def test_probes_are_assumptions_not_decisions():
    # [1, 2] and [1, -2]: the probe -1 implies 2 and falsifies [1, -2]
    # before 2 is propagated, so it fails and 1 is a unit; the probe -2
    # then survives and is undone, and the search decides 2 false.
    # Propagated: -1, 1, -2 (probe) and -2 (decision).
    s = Solver()
    for _ in range(2):
        s.new_var()
    assert s.add_clause([1, 2])
    assert s.add_clause([1, -2])
    s.probe_first([-1, -2])
    assert s.solve()
    assert (s.model_value(1), s.model_value(2)) == (True, False)
    assert (s.decisions, s.conflicts, s.propagations) == (1, 1, 4)
    with pytest.raises(ValueError):
        s.probe_first([3])


def test_failing_every_probe_refutes_without_a_decision():
    # the goal clause [1, 2], where 1 implies both 3 and ~3, and 2 both 4
    # and ~4: the probe 1 fails, its negation makes 2 a unit of the goal
    # clause, and that unit conflicts at level 0
    s = Solver()
    for _ in range(4):
        s.new_var()
    for cl in ([1, 2], [-1, 3], [-1, -3], [-2, 4], [-2, -4]):
        assert s.add_clause(cl)
    s.probe_first([1, 2])
    assert not s.solve()
    assert (s.decisions, s.conflicts) == (0, 2)


def test_backjumps_lower_the_cursor_to_the_least_undone_variable(monkeypatch):
    # _cancel_until lowers the decision cursor to the variable of the first
    # literal it undoes, the decision of the first level undone. That is
    # the least variable it undoes only while decisions take the least
    # unassigned variable, so check it against the minimum over every
    # undone literal after each backjump, with probes before the search.
    cancel = Solver._cancel_until
    seen = {"jumps": 0, "lowered": 0}

    def checked(s, lvl):
        want = s.cursor
        if len(s.trail_lim) > lvl:
            undone = s.trail[s.trail_lim[lvl]:]
            want = min([want] + [abs(lit) for lit in undone])
            seen["jumps"] += 1
            seen["lowered"] += want < s.cursor
        cancel(s, lvl)
        assert s.cursor == want

    monkeypatch.setattr(Solver, "_cancel_until", checked)
    rng = random.Random(4015)
    for _ in range(300):
        # random 3-CNF near the satisfiability threshold, where the search
        # backjumps most
        num_vars = rng.randrange(10, 26)
        clauses = [[rng.choice([-1, 1]) * rng.randrange(1, num_vars + 1)
                    for _ in range(3)]
                   for _ in range(int(num_vars * rng.uniform(3.8, 4.8)))]
        s = Solver()
        for _ in range(num_vars):
            s.new_var()
        if s.add_clauses(clauses):
            s.probe_first(rng.choice(clauses))
            s.solve()
    assert seen["jumps"] > 1000 and seen["lowered"] > 500


def test_probing_leaves_only_level_0_behind():
    # after the probes, whether one survived, all failed or one failed at
    # level 0, the solver is where a search starts: no open level, nothing
    # left to propagate, the cursor at variable 1, and each assigned
    # variable on the trail at level 0
    rng = random.Random(4016)
    survived = refuted = failed = 0
    for _ in range(600):
        num_vars = rng.randrange(2, 13)
        clauses = [[rng.choice([-1, 1]) * rng.randrange(1, num_vars + 1)
                    for _ in range(rng.choice((2, 2, 3, 3, 4)))]
                   for _ in range(rng.randrange(num_vars, 5 * num_vars))]
        s = Solver()
        for _ in range(num_vars):
            s.new_var()
        if not s.add_clauses(clauses):
            continue
        s.probe_first(rng.choice(clauses) if rng.random() < 0.5 else
                      [rng.choice([-1, 1]) * rng.randrange(1, num_vars + 1)
                       for _ in range(rng.randrange(1, 6))])
        ok = s._probe()
        survived += ok
        refuted += not ok
        failed += s.conflicts
        assert s.trail_lim == []
        assert s.qhead == len(s.trail)
        assert s.cursor == 1
        on_trail = {abs(lit) for lit in s.trail}
        assert len(on_trail) == len(s.trail)
        for lit in s.trail:
            assert s.vals[lit] is True and s.vals[-lit] is False
            assert s.level[lit] == 0
        for v in range(1, num_vars + 1):
            if v not in on_trail:
                assert s.vals[v] is None and s.vals[-v] is None
    assert survived > 200 and refuted > 20 and failed > 200
