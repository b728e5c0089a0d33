"""Closed-form periodicity reductions against the step-by-step loops they
replaced, and the row reader against the reduction."""

import random

from hslogic.checking import _fold_thresholds, _reduce_query
from hslogic.models import (
    PeriodicDomain, canonical_cells, canonical_interval, read_row,
    reduce_cell, row_stop,
)
from hslogic.parser import parse_formula
from hslogic.syntax import postorder

CELLS = [(x, y) for x in range(61) for y in range(x + 1, 61)]


def stepwise_reduce(a, l, d, per, x, y):
    """Lower (x, y) one period at a time under thresholds (A, L, D):
    diagonal shifts while x - per >= D, then right shifts while
    y - per >= A and y - per - x >= L."""
    while x - per >= d:
        x -= per
        y -= per
    while y - per >= a and y - per - x >= l:
        y -= per
    return (x, y)


def stepwise_canonical(pre, per, x, y):
    return stepwise_reduce(pre, 1, pre, per, x, y)


# formulas whose thresholds grow in each of the three terms
QUERIES = ["p", "<A> p", "<iE> <B> p", "<D> <E> p", "[iL] (p | <O> q)"]


def query_thresholds(text, pre, per):
    phi = parse_formula(text)
    return _fold_thresholds(postorder(phi), pre, per)[phi]


def _triples(rng, n, top):
    return [(rng.randint(0, top), rng.randint(1, top), rng.randint(0, top))
            for _ in range(n)]


def test_canonical_interval_matches_the_stepwise_loop():
    for pre in range(1, 5):
        for per in range(1, 5):
            domain = PeriodicDomain(pre, per)
            for x, y in CELLS:
                assert canonical_interval(domain, (x, y)) == \
                    stepwise_canonical(pre, per, x, y), (pre, per, x, y)


def test_reduce_query_matches_the_stepwise_loop():
    # the thresholds of a few queries, then thresholds drawn at random
    rng = random.Random(1901)
    for pre in range(1, 5):
        for per in range(1, 5):
            domain = PeriodicDomain(pre, per)
            for text in QUERIES:
                b = query_thresholds(text, pre, per)
                for x, y in CELLS:
                    assert _reduce_query(domain, (x, y), b) == \
                        stepwise_reduce(*b, per, x, y), (pre, per, text, x, y)
            for b in _triples(rng, 10, 12):
                for x, y in CELLS:
                    assert reduce_cell(b, per, x, y) == \
                        stepwise_reduce(*b, per, x, y), (b, per, x, y)


def test_far_endpoints_reduce_at_once():
    domain = PeriodicDomain(3, 7)
    for x, y in ((10 ** 5 + 4, 10 ** 5 + 9), (10 ** 5, 3 * 10 ** 5 + 1)):
        assert canonical_interval(domain, (x, y)) == \
            stepwise_canonical(3, 7, x, y)
        b = query_thresholds("<D> <E> p", 3, 7)
        assert _reduce_query(domain, (x, y), b) == \
            stepwise_reduce(*b, 7, x, y)
    c = canonical_interval(domain, (10 ** 12 + 5, 10 ** 15 + 2))
    assert c in canonical_cells(domain)
    # periods near 10^11 keep the loop to about 10^4 steps at 10^15
    rng = random.Random(1902)
    for b in _triples(rng, 20, 10 ** 12):
        per = rng.randint(10 ** 11, 2 * 10 ** 11)
        x = rng.randint(0, 10 ** 15)
        y = rng.randint(x + 1, 10 ** 15 + 1)
        assert reduce_cell(b, per, x, y) == stepwise_reduce(*b, per, x, y), \
            (b, per, x, y)


def test_row_reader_reads_the_reduced_cell():
    # a table kept as its rows of fixed points, each entry naming its cell:
    # read_row's entry at (x, y) is the one stored at the reduced cell
    rng = random.Random(1903)
    for b in _triples(rng, 60, 8):
        per = rng.randint(1, 4)
        rows = [[(x, y) for y in range(x + 1, row_stop(b, per, x, x) + 1)]
                for x in range(b[2] + per)]
        for _ in range(20):
            x = rng.randint(0, b[2] + 3 * per)
            hi = rng.randint(x + 1, row_stop(b, per, x, x) + 3 * per)
            want = [reduce_cell(b, per, x, y) for y in range(x + 1, hi + 1)]
            assert read_row(rows, per, x, hi) == want, (b, per, x, hi)
