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

import random

from hslogic import sat
from hslogic.checking import _scan_frontier, mc_periodic
from hslogic.models import FiniteDomain, canonical_cells
from hslogic.parser import parse_formula
from hslogic.syntax import B, iB, L, iL, letters_of, modal_depth

from . import oracle
from .gen import all_mods, rand_finite_model, rand_formula, rand_periodic_model

LETTERS = ("p", "q")


def _encoded_values(model, phi):
    """(subformula, cell, value) for every literal in the encoder's tables
    for phi over the model's domain, solved with the model's atoms fixed.

    phi is encoded at every cell of a finite domain, as sat_bounded_finite
    encodes it, and as sat_bbll's goal at [0, 1] on a periodic one. This is
    the only place the test touches the encoders' private names."""
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
        goal = sat.later_somewhere(phi)
        horizon = _scan_frontier(domain.pre, domain.per, modal_depth(goal), 1)
        enc = sat._Encoder(domain, horizon, letters)
        order = sat._encoding_order(goal)
        tables = enc.tables(order, [(0, 1)], [f for f, _ in order])
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
