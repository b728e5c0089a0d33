"""Fragment bisimulations and undefinability certificates."""

import random

import pytest

from hslogic.bisim import (
    _moves, certify_undefinability, is_f_bisimulation,
    largest_f_bisimulation, later_witness, meets_witness,
)
from hslogic.checking import mc_finite
from hslogic.models import canonical_cells, finite_model
from hslogic.syntax import ALL_MODALITIES, A, B, iB, L, iL, Fragment

from . import oracle
from .gen import rand_finite_model, rand_formula

BB = Fragment.of(B, iB)
BBLL = Fragment.of(B, iB, L, iL)


def test_shipped_witnesses_certify():
    assert later_witness().certify()
    assert meets_witness().certify()


def test_later_witness_shape():
    w = later_witness()
    assert w.mod == L and w.fragment == BB
    assert w.interval_a == (0, 1) and w.interval_b == (0, 1)


def test_later_witness_variant_on_larger_domain():
    # p sits high up on one side only; every begin-family successor of
    # [0,1] starts at 0 and never sees it, so the pair stays bisimilar
    # while the later diamond separates the two sides
    ma = finite_model(4, {"p": [(3, 4)]})
    mb = finite_model(4, {})
    rel = largest_f_bisimulation(BB, ma, mb)
    assert ((0, 1), (0, 1)) in rel
    assert certify_undefinability(L, BB, ma, mb, (0, 1), (0, 1), "p")


def test_largest_is_bisimulation_and_maximal():
    rng = random.Random(601)
    for _ in range(25):
        last = rng.randrange(1, 5)
        ma = rand_finite_model(rng, last, ["p"])
        mb = rand_finite_model(rng, last, ["p"])
        for frag in (BB, BBLL, Fragment.of(A)):
            rel = largest_f_bisimulation(frag, ma, mb)
            assert is_f_bisimulation(rel, frag, ma, mb)
            cells_a = oracle.intervals_upto(last)
            outside = [(i, j) for i in cells_a for j in cells_a
                       if (i, j) not in rel]
            for extra in outside[:4]:
                assert not is_f_bisimulation(rel | {extra}, frag, ma, mb)


def test_pairs_outside_the_domains_are_rejected():
    m = finite_model(3, {})
    for pair in [((0, 5), (0, 1)), ((0, 1), (3, 4)), ((2, 2), (0, 1))]:
        with pytest.raises(ValueError):
            is_f_bisimulation({pair}, BB, m, m)


def test_identity_always_included_on_same_model():
    rng = random.Random(602)
    m = rand_finite_model(rng, 4, ["p", "q"])
    rel = largest_f_bisimulation(BBLL, m, m)
    for i in oracle.intervals_upto(4):
        assert (i, i) in rel


def test_truth_preservation_across_pairs():
    rng = random.Random(603)
    for _ in range(10):
        last = rng.randrange(1, 5)
        ma = rand_finite_model(rng, last, ["p"])
        mb = rand_finite_model(rng, last, ["p"])
        rel = largest_f_bisimulation(BB, ma, mb)
        formulas = [rand_formula(rng, ["p"], [B, iB], 3) for _ in range(12)]
        for (ia, ib) in rel:
            for phi in formulas:
                assert mc_finite(ma, ia, phi) == mc_finite(mb, ib, phi), \
                    (ia, ib, phi)


def test_certify_fails_when_formula_agrees():
    # both models carry p high up: the later diamond no longer separates
    ma = finite_model(3, {"p": [(2, 3)]})
    mb = finite_model(3, {"p": [(2, 3)]})
    assert not certify_undefinability(L, BB, ma, mb, (0, 1), (0, 1), "p")


def test_certify_fails_when_not_bisimilar():
    ma = finite_model(3, {"p": [(0, 1), (2, 3)]})
    mb = finite_model(3, {})
    assert not certify_undefinability(L, BB, ma, mb, (0, 1), (0, 1), "p")


def test_moves_list_the_oracle_successors_on_every_small_domain():
    # one engine pass per modality over sets of cells gives each cell's
    # successors, in (x, y) order, as the relations' definitions do
    everything = Fragment.of(*ALL_MODALITIES)
    mods = everything.sorted_modalities()
    for last in range(1, 7):
        model = finite_model(last, {})
        cells = canonical_cells(model.domain)
        moves = _moves(model, everything)
        assert list(moves) == cells
        for i in cells:
            assert moves[i] == [[j for j in cells if oracle.related(i, j, m)]
                                for m in mods], (last, i)
