"""The refined largest bisimulation against the oracle's pairwise fixpoint,
and the input checks of undefinability certificates."""

import random

import pytest

from hslogic.bisim import (
    certify_undefinability, is_f_bisimulation, largest_f_bisimulation,
    later_witness,
)
from hslogic.models import finite_model
from hslogic.syntax import (
    A, iA, B, iB, D, E, iE, L, iL, O, iO, ALL_MODALITIES, Fragment,
)

from . import oracle
from .gen import rand_finite_model

FRAGMENTS = (
    Fragment.of(B, iB),
    Fragment.of(B, iB, L, iL),
    Fragment.of(A),
    Fragment.of(A, iA, E, iE),
    Fragment.of(D),
    Fragment.of(O, iO),
    Fragment.of(*ALL_MODALITIES),
)


def test_refinement_matches_the_pairwise_fixpoint():
    rng = random.Random(1401)
    for _ in range(300):
        letters = ["p", "q"][:rng.randrange(0, 3)]
        ma = rand_finite_model(rng, rng.randrange(1, 6), letters,
                               rng.choice((0.2, 0.4, 0.7)))
        mb = rand_finite_model(rng, rng.randrange(1, 6), letters,
                               rng.choice((0.2, 0.4, 0.7)))
        frag = rng.choice(FRAGMENTS)
        rel = largest_f_bisimulation(frag, ma, mb)
        assert rel == oracle.largest_bisimulation_naive(frag, ma, mb), \
            (frag.name, ma.valuation, mb.valuation)
        assert is_f_bisimulation(rel, frag, ma, mb)


def test_letters_of_one_model_only_count_on_both_sides():
    # q is nowhere true on the second model, so no cell carrying q is
    # related to anything there
    ma = finite_model(2, {"q": [(0, 1)]})
    mb = finite_model(2, {})
    for frag in FRAGMENTS:
        rel = largest_f_bisimulation(frag, ma, mb)
        assert all(i != (0, 1) for i, _ in rel)
        assert rel == oracle.largest_bisimulation_naive(frag, ma, mb)


@pytest.mark.parametrize("ia, ib", [
    ((0, 9), (0, 1)), ((2, 1), (0, 1)), ((0, 1), (1, 1)), ((-1, 1), (0, 1)),
])
def test_certify_rejects_intervals_outside_the_domains(ia, ib):
    w = later_witness()
    with pytest.raises(ValueError, match="is not an interval"):
        certify_undefinability(L, w.fragment, w.model_a, w.model_b,
                               ia, ib, "p")
    with pytest.raises(ValueError, match="is not an interval"):
        w._replace(interval_a=ia, interval_b=ib).certify()


@pytest.mark.parametrize("letter", ["P!", "true", "", "1p"])
def test_certify_rejects_non_letters(letter):
    w = later_witness()
    with pytest.raises(ValueError, match="is not a letter"):
        certify_undefinability(L, w.fragment, w.model_a, w.model_b,
                               (0, 1), (0, 1), letter)
    with pytest.raises(ValueError, match="is not a letter"):
        w._replace(letter=letter).certify()


def test_certify_of_a_letter_neither_model_has_is_plain_false():
    w = later_witness()
    assert not w._replace(letter="r").certify()
    assert not w._replace(mod=iL).certify()
    assert not w._replace(mod=iA).certify()
