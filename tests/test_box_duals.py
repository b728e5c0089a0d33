"""The grid engine's boxes: [M] s read as the dual pass of <M> over s's own
table must equal ~<M> ~s, the negation of the diamond over the negated
table, cell for cell, for all twelve modalities. Three settings: the
three-valued lattice on finite windows, the lattice on periodic windows
with thresholds, where scans stop at their caps and a window that ends
first pads with undetermined, and sat._Cnf's gates, where the clauses and
the variable count must be the same too."""

import random

from hslogic.checking import _F, _T, _U, _TableEngine, _join
from hslogic.models import row_stop
from hslogic.sat import _Cnf
from hslogic.syntax import ALL_MODALITIES, Atom, Box

p = Atom("p")
BOXES = [Box(m, p) for m in ALL_MODALITIES]


def _box_by_negations(engine, f, C):
    return engine.negation(engine.diamond(f, engine.negation(C)))


def _rand_table(rng, h, values):
    # the slots y <= x get values too: no pass may read them
    return [rng.choice(values) for _ in range(h * (h + 1))]


def test_finite_boxes_are_the_negated_diamonds_of_the_negations():
    rng = random.Random(3501)
    for h in range(1, 9):
        engine = _TableEngine(h, None, _join, max, min)
        for _ in range(5):
            C = _rand_table(rng, h, (_F, _U, _T))
            for f in BOXES:
                assert engine.box(f, C) == _box_by_negations(engine, f, C), \
                    (f.mod.name, h, C)


def test_periodic_boxes_are_the_negated_diamonds_of_the_negations():
    # C is two-valued, so an undetermined cell of a box comes from a scan
    # the window cut short; the horizons fall short of row 0's cap, at it
    # and past it
    rng = random.Random(3502)
    capped = padded = 0
    for per in range(1, 4):
        for _ in range(12):
            d, l = rng.randrange(0, 5), rng.randint(1, 4)
            b = (rng.randint(0, d + l - 1), l, d)     # A <= D + L - 1
            cap0 = row_stop(b, per, 0, 0)
            for h in sorted({1, max(1, cap0 - per), cap0, cap0 + per + 2,
                             rng.randrange(1, cap0 + 8)}):
                engine = _TableEngine(h, None, _join, max, min,
                                      (per, {p: b}))
                C = _rand_table(rng, h, (_F, _T))
                for f in BOXES:
                    got = engine.box(f, C)
                    assert got == _box_by_negations(engine, f, C), \
                        (f.mod.name, per, b, h, C)
                    padded += _U in got
                capped += cap0 < h
    assert capped and padded


def test_cnf_boxes_make_the_gates_of_the_negated_diamonds():
    rng = random.Random(3503)
    atoms = 6
    lits = [1, -1] + [v for a in range(2, atoms + 2) for v in (a, -a)]
    gates = 0
    for h in range(1, 8):
        for _ in range(4):
            C = _rand_table(rng, h, lits)
            for f in BOXES:
                dual, negated = _Cnf(), _Cnf()
                tables = []
                for cnf, read in ((dual, _TableEngine.box),
                                  (negated, _box_by_negations)):
                    cnf.nvars = atoms + 1
                    engine = _TableEngine(h, None, cnf.define_or,
                                          cnf.define_or2, cnf.define_and2)
                    tables.append(read(engine, f, C))
                assert tables[0] == tables[1], (f.mod.name, h, C)
                assert (dual.nvars, dual.clauses) == \
                    (negated.nvars, negated.clauses), (f.mod.name, h, C)
                gates += dual.nvars - atoms - 1
    assert gates > 500
