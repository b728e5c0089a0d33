"""The SAT encoders against truth, literal by literal.

A random model's atoms are fixed with unit clauses, the encoding of a
formula is solved, and every (subformula, cell) literal in the encoder's
tables must take the value the reference gives at that cell.

On finite models the encoding is the model checker's grid engine run over
_Cnf's gates, so mc_finite and the encoder share their recurrences; the
reference there is the naive evaluator of tests/oracle.py, which shares
nothing with either but the model. On periodic models the encoder keeps one
literal per periodicity class of each subformula, and mc_periodic evaluates
every cell over growing windows: the two share the model and the
thresholds past which truth repeats (checking._fold_thresholds), not the
recurrences. The thresholds themselves are held, over all twelve
modalities, to the grid engine on windows far past the cells and to the
independent three-valued oracle in test_thresholds_keep_truth_under_both_shifts
and test_lift_rules_on_single_cell_models.
"""

import itertools
import random

from hslogic import sat
from hslogic.checking import _U, _fold_thresholds, _model_engine, mc_periodic
from hslogic.models import (
    FiniteDomain, PeriodicDomain, canonical_cells, periodic_model,
    reduce_cell,
)
from hslogic.parser import parse_formula
from hslogic.syntax import (
    B, iB, L, iL, Atom, Diamond, letters_of, modal_depth,
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
    x, y = reduce_cell(enc.bounds[f], enc.per, *cell)
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
# against the grid engine alone.
ORACLE_HORIZON = 16


def _shift_cells(b, per):
    """The cells one and two shifts past the fixed points of thresholds b,
    where a threshold one too small first shows: the first and second cell
    a right shift lowers on each row x <= D + 2 per, and the rows D + per
    and D + 2 per, which a diagonal shift lowers, up to two periods past
    their fixed points."""
    a, l, d = b
    out = [(x, max(a, x + l) + k * per)
           for x in range(d + 2 * per + 1) for k in (1, 2)]
    for x in (d + per, d + 2 * per):
        out += [(x, y) for y in range(x + 1, max(a, x + l) + 2 * per + 1)]
    return out


def _shift_pairs(order, pre, per):
    """Each node's (cell, fixed point) pairs over its _shift_cells, and a
    horizon far enough past them for the grid engine to decide most."""
    bounds = _fold_thresholds(order, pre, per)
    pairs = {f: [(cell, reduce_cell(bounds[f], per, *cell))
                 for cell in _shift_cells(bounds[f], per)] for f in order}
    a, l, d = map(max, zip(*bounds.values()))
    top = max(cell[1] for cells in pairs.values() for cell, _ in cells)
    return bounds, pairs, top + 2 * (a + l + d + per)


def _engine_agrees(model, bounds, pairs, h):
    """How many pairs the grid engine decides on the window 0..h, each
    asserted to hold one value at the cell and at its fixed point."""
    engine = _model_engine(model, h, bounds)
    for f in pairs:
        engine.table(f)
    w, checked = engine.w, 0
    for f, cells in pairs.items():
        table = engine.tables[f]
        for cell, fixed in cells:
            got = table[cell[0] * w + cell[1]], table[fixed[0] * w + fixed[1]]
            if _U not in got:
                assert got[0] == got[1], (f, cell, fixed)
                checked += 1
    return checked


def test_thresholds_keep_truth_under_both_shifts():
    # A node's truth at a cell is its truth at the fixed point reduce_cell
    # lowers the cell to under the node's thresholds (_fold_thresholds),
    # over all twelve modalities: by the grid engine on a window far past
    # both cells, which reads the node's operand and the operand's
    # thresholds but never the node's own, and, for eight cells per node,
    # by the independent three-valued oracle wherever it decides both
    # cells. Sparse models make rows that differ from their neighbours in
    # few cells.
    rng = random.Random(20121013)
    checked = decided = 0
    for _ in range(400):
        pre, per = rng.randint(1, 3), rng.randint(1, 3)
        model = rand_periodic_model(rng, pre, per, LETTERS,
                                    rng.choice((0.15, 0.4)))
        phi = rand_formula(rng, LETTERS, all_mods(), 3)
        bounds, pairs, h = _shift_pairs(sat.postorder(phi), pre, per)
        checked += _engine_agrees(model, bounds, pairs, h)
        ev = oracle.mc3_evaluator(model, ORACLE_HORIZON)
        for f, cells in pairs.items():
            near = [c for c in cells if c[0][1] <= ORACLE_HORIZON]
            for cell, fixed in rng.sample(near, min(8, len(near))):
                want = ev(cell, f), ev(fixed, f)
                if None not in want:
                    assert want[0] == want[1], (f, cell, fixed)
                    decided += 1
    assert checked > 30000 and decided > 10000


def test_lift_rules_on_single_cell_models():
    # <M> p and <M> <N> p for the six diamonds checking._lift writes out,
    # on every valuation that makes p true at one canonical cell, for
    # prefixes and periods up to 3. A lone true cell is where a shift that
    # adds or drops one successor shows, so each lift term lowered by one
    # fails here, in a scratch mutation run, but for the slack stated at
    # _lift. Random formulas miss some of these cells.
    p = Atom("p")
    mods = [m for m in all_mods() if m.name in ("A", "iA", "B", "iB", "E",
                                               "iE")]
    order = [p] + [Diamond(m, p) for m in mods] + \
        [Diamond(m, Diamond(n, p)) for m in mods for n in mods]
    checked = 0
    for pre in (1, 2, 3):
        for per in (1, 2, 3):
            bounds, pairs, h = _shift_pairs(order, pre, per)
            for cell in canonical_cells(PeriodicDomain(pre, per)):
                model = periodic_model(pre, per, {"p": [cell]})
                checked += _engine_agrees(model, bounds, pairs, h)
    assert checked > 100000


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
    # included as sat_bbll adds it, with one entry per periodicity class of
    # each subformula: the goal is one clause and makes no variable
    phi = parse_formula("<B> ~p & [B] (~p -> <B> ~p)")
    enc, _, tables = _class_tables(PeriodicDomain(1, 7), phi)
    assert enc.cnf.add_goal(list(tables[phi].values()))
    assert sum(len(table) for table in tables.values()) <= 700
    assert enc.cnf.nvars <= 417 and len(enc.cnf.clauses) <= 1082
