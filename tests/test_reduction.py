"""Closed-form periodicity reductions against the step-by-step loops they
replaced."""

from hslogic.checking import _reduce_query
from hslogic.models import (
    PeriodicDomain, canonical_cells, canonical_interval,
)

CELLS = [(x, y) for x in range(61) for y in range(x + 1, 61)]


def stepwise_canonical(pre, per, x, y):
    while x >= pre + per:
        x -= per
        y -= per
    while y >= pre + per and y - per > x:
        y -= per
    return (x, y)


def stepwise_reduce(pre, per, depth, x, y):
    t = pre + 2 * depth * per
    while x >= t + per:
        x -= per
        y -= per
    while y >= max(t, x + (2 * depth + 1) * per + 1) + per:
        y -= per
    return (x, y)


def test_canonical_interval_matches_the_stepwise_loop():
    for pre in range(1, 5):
        for per in range(1, 5):
            domain = PeriodicDomain(pre, per)
            for x, y in CELLS:
                assert canonical_interval(domain, (x, y)) == \
                    stepwise_canonical(pre, per, x, y), (pre, per, x, y)


def test_reduce_query_matches_the_stepwise_loop():
    for pre in range(1, 5):
        for per in range(1, 5):
            domain = PeriodicDomain(pre, per)
            for depth in range(4):
                for x, y in CELLS:
                    assert _reduce_query(domain, (x, y), depth) == \
                        stepwise_reduce(pre, per, depth, x, y), \
                        (pre, per, depth, x, y)


def test_far_endpoints_reduce_at_once():
    domain = PeriodicDomain(3, 7)
    for x, y in ((10 ** 5 + 4, 10 ** 5 + 9), (10 ** 5, 3 * 10 ** 5 + 1)):
        assert canonical_interval(domain, (x, y)) == \
            stepwise_canonical(3, 7, x, y)
        assert _reduce_query(domain, (x, y), 2) == \
            stepwise_reduce(3, 7, 2, x, y)
    c = canonical_interval(domain, (10 ** 12 + 5, 10 ** 15 + 2))
    assert c in canonical_cells(domain)
