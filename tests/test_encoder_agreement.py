"""The SAT encoders against truth, literal by literal.

A random model's atoms are fixed with unit clauses, the encoding of a
formula is solved, and every (subformula, cell) literal in the encoder's
tables must take the value the reference gives at that cell.

On finite models the encoding is the model checker's grid engine run over
_Cnf's gates, so mc_finite and the encoder share their recurrences; the
reference there is the naive evaluator of tests/oracle.py, which shares
nothing with either but the model. On periodic models the encoder cuts its
right-unbounded scans at the checker's own periodicity caps, so a fault in
the cap rule would show up on both sides alike; the checker's side is held
to truth by the all-modality differential against the independent oracle in
tests/test_known_faults.py, so agreement with mc_periodic here pins truth as
well.
"""

import itertools
import random

from hslogic import sat
from hslogic.checking import mc_periodic
from hslogic.models import FiniteDomain, PeriodicDomain, canonical_cells
from hslogic.parser import parse_formula
from hslogic.syntax import (
    B, iB, L, iL, Box, Diamond, letters_of, modal_depth,
)

from . import oracle
from .gen import all_mods, rand_finite_model, rand_formula, rand_periodic_model

LETTERS = ("p", "q")


def _goal_tables(domain, phi):
    """sat_bbll's encoding of phi's goal over a periodic domain: the
    encoder, the goal's postorder and the table of every node."""
    goal = sat.later_somewhere(phi)
    order = sat.postorder(goal)
    enc = sat._Encoder(domain, sorted(letters_of(phi)), order)
    return enc, order, enc.tables(order)


def _encoded_values(model, phi):
    """(subformula, cell, value) for every literal in the encoder's tables
    for phi over the model's domain, solved with the model's atoms fixed.

    phi is encoded at every cell of a finite domain, as sat_bounded_finite
    encodes it, and as sat_bbll's goal at [0, 1] on a periodic one. This is
    and _goal_tables are the only places the tests touch the encoders'
    private names."""
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
        enc, _, tables = _goal_tables(domain, phi)
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
    for _ in range(60):
        model = rand_periodic_model(rng, rng.randint(1, 2), rng.randint(1, 2),
                                    LETTERS)
        phi = rand_formula(rng, LETTERS, mods, 3)
        assert modal_depth(phi) <= 3
        for f, cell, value in _encoded_values(model, phi):
            assert value == mc_periodic(model, cell, f), (f, cell)
            checked += 1
    assert checked > 4000


def _ladders(f, tab, sub):
    """(rung literals, operand literals read) per ladder of the table of a
    <B> or <iL> node: one ladder per row of <B>, one over all of <iL>."""
    if f.mod == B:
        rows = {}
        for (x, y), lit in tab.items():
            rows.setdefault(x, {})[y] = lit
        return [(set(row.values()),
                 {sub[(x, y)] for y in range(x + 1, max(row))})
                for x, row in rows.items()]
    top = max(x for x, _ in tab)
    return [(set(tab.values()),
             {sub[(a, b)] for b in range(1, top) for a in range(b)})]


def test_ladders_grow_only_by_new_operand_literals():
    # A rung extends the one before it only by an operand literal that rung
    # does not cover yet, so a ladder holds at most one literal (the empty
    # rung) more than the distinct operand literals it reads, however long
    # it is. On a periodic split a row reads few distinct atom literals, so
    # the ladders stop growing early.
    checked = 0
    for text in ("<B> p", "<B> (p -> <B> p)", "<iL> <B> p"):
        for pre, per in itertools.product(range(1, 4), repeat=2):
            _, order, tables = _goal_tables(PeriodicDomain(pre, per),
                                            parse_formula(text))
            for f in order:
                if type(f) is not Diamond or f.mod not in (B, iL):
                    continue
                for rungs, reads in _ladders(f, tables[f], tables[f.sub]):
                    assert len(rungs) <= len(reads) + 1, (text, pre, per, f)
                    checked += 1
    assert checked > 400


# Long ladders: B over B, iL over B, and the four well-foundedness shapes of
# the benchmark's sat_unsat queries, at periods up to 3, where a row's ladder
# comes to cover every literal it can read only after many rungs. Only the
# <B>, <iL>, [B] and [iL] entries are checked: they are the ladders (a box
# negates its diamond's ladder over the negated operand), and every other
# node is gated alike on both sides of a saturated rung.
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
        model = rand_periodic_model(rng, pre, per, LETTERS)
        for f, cell, value in _encoded_values(model, phi):
            if type(f) in (Diamond, Box) and f.mod in (B, iL):
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
        for _ in range(3):
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
        for pre, per in ((1, 1), (2, 1), (1, 2)):
            _, _, tables = _goal_tables(PeriodicDomain(pre, per), phi)
            box, dia = tables[phi.lhs], tables[phi.rhs]
            shared = box.keys() & dia.keys()
            assert shared, (name, pre, per)
            for cell in shared:
                assert box[cell] == -dia[cell], (name, pre, per, cell)
                checked += 1
    assert checked > 100
