"""Domains, canonical cells, valuations, the .ism format, reversal."""

import random

import pytest

from hslogic.checking import allen_related
from hslogic.models import (
    FiniteDomain, IntervalModel, ModelFormatError, PeriodicDomain,
    canonical_cells, canonical_interval, finite_model,
    load_model, periodic_model, reverse_interval, reverse_model,
    save_model, valid_interval,
)
from hslogic.syntax import ALL_MODALITIES, A, iB, L, iD, O

from . import oracle
from .gen import rand_finite_model, rand_periodic_model


def test_canonical_frozen_examples():
    assert canonical_interval(PeriodicDomain(2, 3), (7, 10)) == (4, 7)
    assert canonical_interval(PeriodicDomain(1, 1), (0, 9)) == (0, 1)
    assert canonical_interval(PeriodicDomain(2, 3), (1, 4)) == (1, 4)


def test_canonical_matches_naive_and_idempotent():
    for pre in range(1, 5):
        for per in range(1, 5):
            d = PeriodicDomain(pre, per)
            cells = canonical_cells(d)
            images = set()
            for x in range(0, 14):
                for y in range(x + 1, 15):
                    c = canonical_interval(d, (x, y))
                    assert c == oracle.canon_naive(pre, per, x, y)
                    assert canonical_interval(d, c) == c
                    images.add(c)
            # the cells are exactly the images, in (x, y) order, and each
            # is its own image
            assert cells == sorted(images)
            assert all(canonical_interval(d, c) == c for c in cells)


def test_canonical_preserves_atom_truth():
    rng = random.Random(201)
    for _ in range(40):
        pre = rng.randrange(1, 4)
        per = rng.randrange(1, 4)
        model = rand_periodic_model(rng, pre, per, ["p"])
        d = model.domain
        for x in range(0, 10):
            for y in range(x + 1, 11):
                c = canonical_interval(d, (x, y))
                assert model.holds_atom((x, y), "p") == \
                    model.holds_atom(c, "p")


def test_valid_interval():
    assert valid_interval(FiniteDomain(3), (0, 3))
    assert not valid_interval(FiniteDomain(3), (0, 4))
    assert not valid_interval(FiniteDomain(3), (2, 2))
    assert valid_interval(PeriodicDomain(1, 1), (0, 99))
    assert not valid_interval(PeriodicDomain(1, 1), (5, 3))


def test_allen_related_finite_matches_oracle():
    for last in range(1, 6):
        cells = oracle.intervals_upto(last)
        d = FiniteDomain(last)
        for i in cells:
            for mod in ALL_MODALITIES:
                got = allen_related(d, i, mod)
                want = sorted(j for j in cells if oracle.related(i, j, mod))
                assert got == want, (last, i, mod.name)


def test_allen_related_periodic_requires_horizon():
    # the five relations with infinitely many successors; a window is
    # asked of FiniteDomain(h)
    d = PeriodicDomain(1, 2)
    for mod in (A, iB, L, iD, O):
        with pytest.raises(ValueError):
            allen_related(d, (0, 1), mod)


def test_allen_related_rejects_intervals_outside_a_finite_domain():
    d = FiniteDomain(3)
    for i in [(0, 5), (3, 4), (2, 2), (2, 1), (-1, 2)]:
        for mod in ALL_MODALITIES:
            with pytest.raises(ValueError):
                allen_related(d, i, mod)


def test_allen_related_periodic_with_horizon_matches_oracle():
    # the window 0..9 of every relation, and on the periodic domain the
    # seven whose successors end by i's right endpoint
    d = PeriodicDomain(1, 2)
    h = 9
    cells = oracle.intervals_upto(h)
    bounded = 0
    for i in [(0, 1), (1, 3), (2, 5)]:
        for mod in ALL_MODALITIES:
            got = allen_related(FiniteDomain(h), i, mod)
            want = sorted(j for j in cells if oracle.related(i, j, mod))
            assert got == want, (i, mod.name)
            if mod not in (A, iB, L, iD, O):
                assert allen_related(d, i, mod) == want, (i, mod.name)
                bounded += 1
    assert bounded == 3 * 7


def test_model_round_trip():
    rng = random.Random(202)
    for _ in range(30):
        m = rand_finite_model(rng, rng.randrange(1, 6), ["p", "q"])
        assert load_model(save_model(m)) == m
        pm = rand_periodic_model(rng, rng.randrange(1, 4),
                                 rng.randrange(1, 4), ["p"])
        assert load_model(save_model(pm)) == pm


def test_periodic_model_canonicalizes_input_cells():
    m = periodic_model(1, 1, {"p": [(7, 8)]})
    assert m.holds_atom((1, 2), "p")
    assert m.holds_atom((4, 5), "p")
    assert not m.holds_atom((0, 1), "p")


def test_format_errors():
    with pytest.raises(ModelFormatError):
        load_model("")
    with pytest.raises(ModelFormatError) as e:
        load_model("order finite 3\nval p 3 2\n")
    assert e.value.line == 2
    with pytest.raises(ModelFormatError):
        load_model("order finite 3\nval p 0 9\n")
    with pytest.raises(ModelFormatError):
        load_model("order bogus 3\n")
    with pytest.raises(ModelFormatError):
        load_model("order periodic pre=0 per=1\n")


def test_reverse_involution():
    rng = random.Random(203)
    for _ in range(40):
        last = rng.randrange(1, 7)
        m = rand_finite_model(rng, last, ["p", "q"])
        assert reverse_model(reverse_model(m)) == m
        i = (0, last)
        assert reverse_interval(last, reverse_interval(last, i)) == i


def test_reverse_interval_shape():
    assert reverse_interval(5, (1, 3)) == (2, 4)
    assert reverse_interval(5, (0, 5)) == (0, 5)
