"""The SAT encoders against truth, literal by literal.

A random model's atoms are fixed with unit clauses, the encoding of a
formula is solved, and every (subformula, cell) literal in the encoder's
tables must take the value the reference gives at that cell.

On finite models the encoding is the model checker's grid engine run over
_Cnf's gates, so mc_finite and the encoder share their recurrences; the
reference there is the naive evaluator of tests/oracle.py, which shares
nothing with either but the model. On periodic models the encoder keeps one
literal per periodicity class of each subformula, under thresholds it
derives itself, and mc_periodic evaluates every cell over growing windows
cut at its own fitted caps: the two share the model and nothing else. The
thresholds themselves are held to mc_periodic and to the independent
three-valued oracle, cell by cell, in
test_thresholds_keep_truth_under_both_shifts.
"""

import itertools
import random

from hslogic import sat
from hslogic.checking import mc_periodic
from hslogic.models import FiniteDomain, PeriodicDomain, canonical_cells
from hslogic.parser import parse_formula
from hslogic.syntax import (
    B, iB, L, iL, Diamond, letters_of, modal_depth,
)

from . import oracle
from .gen import all_mods, rand_finite_model, rand_formula, rand_periodic_model

LETTERS = ("p", "q")


def _class_tables(domain, phi):
    """sat_bbll's encoding of phi over a periodic domain: the encoder, phi's
    postorder and every node's table, as fixed point cell to literal."""
    order = sat.postorder(phi)
    enc = sat._Encoder(domain, sorted(letters_of(phi)), order)
    return enc, order, {f: dict(sat._cells(enc.tables[f])) for f in order}


def _literal(enc, f, cell):
    """f's literal at any cell, read through f's reduction."""
    x, y = sat._reduce(enc.bounds[f], enc.per, *cell)
    return enc.tables[f][x][y - x - 1]


def _encoded_values(model, phi):
    """(subformula, cell, value) for every literal in the encoder's tables
    for phi over the model's domain, solved with the model's atoms fixed.

    phi is encoded at every cell of a finite domain, as sat_bounded_finite
    encodes it, and at every periodicity class of each subformula on a
    periodic one, as sat_bbll encodes it. This, _class_tables and _literal
    are the only places the tests touch the encoders' private names."""
    domain = model.domain
    letters = sorted(letters_of(phi))
    if isinstance(domain, FiniteDomain):
        enc = sat._Candidate(domain, letters)
        engine = sat._finite_engine(enc)
        engine.table(phi)
        w = engine.w
        tables = {f: {(x, y): table[x * w + y]
                      for x, y in canonical_cells(domain)}
                  for f, table in engine.tables.items()}
    else:
        enc, _, tables = _class_tables(domain, phi)
    for (letter, cell), var in enc.atom_var.items():
        enc.cnf.clauses.append(
            [var if model.holds_atom(cell, letter) else -var])
    solver = enc.cnf.solve()
    assert solver is not None
    return [(f, cell, solver.model_value(abs(lit)) == (lit > 0))
            for f, table in tables.items() for cell, lit in table.items()]


def test_finite_encoder_agrees_with_the_oracle():
    rng = random.Random(20121009)
    mods = all_mods()
    checked = 0
    for _ in range(400):
        model = rand_finite_model(rng, rng.randint(1, 6), LETTERS)
        phi = rand_formula(rng, LETTERS, mods, 4)
        for f, cell, value in _encoded_values(model, phi):
            assert value == oracle.mc_naive(model, cell, f), (f, cell)
            checked += 1
    assert checked > 20000


def test_periodic_encoder_agrees_with_mc_periodic():
    rng = random.Random(20121010)
    mods = [B, iB, L, iL]
    checked = 0
    for _ in range(200):
        model = rand_periodic_model(rng, rng.randint(1, 2), rng.randint(1, 2),
                                    LETTERS)
        phi = rand_formula(rng, LETTERS, mods, 3)
        assert modal_depth(phi) <= 3
        for f, cell, value in _encoded_values(model, phi):
            assert value == mc_periodic(model, cell, f), (f, cell)
            checked += 1
    assert checked > 4000


# The oracle's horizon in the threshold test: cells past it are checked
# against mc_periodic alone.
ORACLE_HORIZON = 16


def test_thresholds_keep_truth_under_both_shifts():
    # A node's truth at a cell is its truth at the fixed point _reduce
    # lowers the cell to under the node's thresholds: by mc_periodic, and by
    # the independent three-valued oracle wherever it decides both cells.
    # Cells are drawn up to two periods past each node's fixed points, so
    # both shifts are taken, once and more than once; sparse models make
    # rows that differ from their neighbours in few cells.
    rng = random.Random(20121013)
    checked = decided = 0
    for _ in range(200):
        pre, per = rng.randint(1, 3), rng.randint(1, 3)
        model = rand_periodic_model(rng, pre, per, LETTERS,
                                    rng.choice((0.15, 0.4)))
        phi = rand_formula(rng, LETTERS, [B, iB, L, iL], 4)
        order = sat.postorder(phi)
        bounds = sat._thresholds(order, pre, per)
        ev = oracle.mc3_evaluator(model, ORACLE_HORIZON)
        for f in order:
            a, l, d = bounds[f]
            for _ in range(8):
                x = rng.randint(0, d + 2 * per)
                cell = (x, rng.randint(x + 1, max(a, x + l) + 2 * per))
                fixed = sat._reduce(bounds[f], per, *cell)
                if fixed == cell:
                    continue
                assert mc_periodic(model, cell, f) == \
                    mc_periodic(model, fixed, f), (f, cell, fixed)
                checked += 1
                if cell[1] <= ORACLE_HORIZON:
                    want = ev(cell, f), ev(fixed, f)
                    if None not in want:
                        assert want[0] == want[1], (f, cell, fixed)
                        decided += 1
    assert checked > 6000 and decided > 5000


def _ladders(enc, f):
    """(rung literals, operand literals read) per ladder of the table of a
    <B> or <iL> node: one ladder per row of <B>, one over all of <iL>."""
    rows = enc.tables[f]
    if f.mod == B:
        return [(set(row),
                 {_literal(enc, f.sub, (x, y))
                  for y in range(x + 1, x + len(row))})
                for x, row in enumerate(rows)]
    top = len(rows) - 1
    return [({row[0] for row in rows},
             {_literal(enc, f.sub, (a, b))
              for b in range(1, top) for a in range(b)})]


def test_ladders_grow_only_by_new_operand_literals():
    # A rung extends the one before it only by an operand literal that rung
    # does not cover yet, so a ladder holds at most one literal (the empty
    # rung) more than the distinct operand literals it reads, however long
    # it is. On a periodic split a row reads few distinct atom literals, so
    # the ladders stop growing early.
    checked = 0
    for text in ("<B> p", "<B> (p -> <B> p)", "<iL> <B> p"):
        for pre, per in itertools.product(range(1, 6), repeat=2):
            enc, order, _ = _class_tables(PeriodicDomain(pre, per),
                                          parse_formula(text))
            for f in order:
                if type(f) is not Diamond or f.mod not in (B, iL):
                    continue
                for rungs, reads in _ladders(enc, f):
                    assert len(rungs) <= len(reads) + 1, (text, pre, per, f)
                    checked += 1
    assert checked > 400


# Long ladders: B over B, iL over B, and the four well-foundedness shapes of
# the benchmark's sat_unsat queries, at periods up to 3, where a row's ladder
# comes to cover every literal it can read only after many rungs. Every
# class of every node is checked, on five models per formula.
LONG_LADDERS = [
    ("<B> <B> p", 1, 3),
    ("[B] <B> ~q", 2, 2),
    ("<iL> <B> p", 3, 2),
    ("<iL> [B] (p | q)", 1, 2),
    ("<B> p & [B] (p -> <B> p)", 2, 2),
    ("<B> ~p & [B] (~p -> <B> ~p)", 1, 3),
    ("<B> (p & q) & [B] ((p & q) -> <B> (p & q))", 3, 2),
    ("<B> (p | q) & [B] ((p | q) -> <B> (p | q))", 1, 1),
]


def test_long_ladders_agree_with_mc_periodic():
    rng = random.Random(20121012)
    checked = 0
    for text, pre, per in LONG_LADDERS:
        phi = parse_formula(text)
        for _ in range(5):
            model = rand_periodic_model(rng, pre, per, LETTERS)
            for f, cell, value in _encoded_values(model, phi):
                assert value == mc_periodic(model, cell, f), (text, f, cell)
                checked += 1
    assert checked > 3000


# a box at the root, boxes under boxes, and boxes over negations, which the
# encoder reads as negated diamonds
BOXED_FINITE = [
    "[A] p",
    "[D] [iE] ~p",
    "~[O] ([B] q -> [iA] ~[L] p)",
    "[iD] (p | [E] ~[E] q) & [iO] ~~p",
]
BOXED_PERIODIC = [
    "[B] p",
    "[iB] [B] ~p",
    "~[iL] [B] ~p",
    "[L] ~~p",
    "~[L] [iL] p",
]


def test_boxes_agree_on_both_domains():
    rng = random.Random(20121011)
    checked = 0
    for text in BOXED_FINITE:
        phi = parse_formula(text)
        for _ in range(8):
            model = rand_finite_model(rng, rng.randint(1, 6), LETTERS)
            for f, cell, value in _encoded_values(model, phi):
                assert value == oracle.mc_naive(model, cell, f), (f, cell)
                checked += 1
    for text in BOXED_PERIODIC:
        phi = parse_formula(text)
        for _ in range(12):
            model = rand_periodic_model(rng, rng.randint(1, 2),
                                        rng.randint(1, 2), LETTERS)
            for f, cell, value in _encoded_values(model, phi):
                assert value == mc_periodic(model, cell, f), (f, cell)
                checked += 1
    assert checked > 4000


def test_a_box_and_its_diamond_meet_in_one_variable():
    # [M] s is encoded as the negated build of <M> ~s, and _Cnf keys its
    # gates by literal set, so the two tables hold complementary literals
    # wherever both are encoded
    checked = 0
    for name in ("B", "iB", "L", "iL"):
        phi = parse_formula("[%s] (p | <B> q) & <%s> ~(p | <B> q)"
                            % (name, name))
        for pre, per in ((1, 1), (2, 1), (1, 2), (2, 2)):
            _, _, tables = _class_tables(PeriodicDomain(pre, per), phi)
            box, dia = tables[phi.lhs], tables[phi.rhs]
            shared = box.keys() & dia.keys()
            assert shared, (name, pre, per)
            for cell in shared:
                assert box[cell] == -dia[cell], (name, pre, per, cell)
                checked += 1
    assert checked > 100


def test_well_foundedness_candidate_size():
    # the (1, 7) candidate of sat_unsat's well-foundedness shape, goal
    # included, with one entry per periodicity class of each subformula:
    # no more variables or clauses than a window of cells ever made
    phi = parse_formula("<B> ~p & [B] (~p -> <B> ~p)")
    enc, _, tables = _class_tables(PeriodicDomain(1, 7), phi)
    enc.cnf.define_or(list(tables[phi].values()))
    assert sum(len(table) for table in tables.values()) <= 700
    assert enc.cnf.nvars <= 437 and len(enc.cnf.clauses) <= 1243
