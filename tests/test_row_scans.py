"""The engine's iB, iD and O tables, cell by cell against per-cell scans.

The engine fills an iB row with running joins. The reference here scans
each cell on its own: the join of the child over (x, y'), y' > y, cut at
the stop _row_cap writes out for the child's thresholds on a periodic grid
and joined with undetermined where the stop lies past the horizon. O is
the exact E join over that scan, and iD that scan over the exact iE join,
with the thresholds iE lifts the child's to (checking._COMPOSED, _lift),
each written out per cell too.
"""

import random

from hslogic.checking import (
    _F, _T, _U, _TableEngine, _join, _lift, allen_related,
)
from hslogic.models import FiniteDomain
from hslogic.syntax import MODALITIES_BY_NAME

from . import oracle

_VALUES = (_F, _U, _T)


def _row_cap(b, per, x, lo):
    """The largest right endpoint y' a scan over [x, y'], y' > lo, visits
    for a child with thresholds b = (A, L, D): one period past lo and past
    the absolute-right and length thresholds, in closed form."""
    a, l, _ = b
    return max(a, x + l, lo + 1) + per - 1


def _ref_ib(C, h, b, per):
    w = h + 1
    out = [_F] * (h * w)
    for x in range(h):
        for y in range(x + 1, h + 1):
            hi, exact = h, True
            if per is not None:
                cap = _row_cap(b, per, x, y)
                hi, exact = min(h, cap), cap <= h
            v = max((C[x * w + u] for u in range(y + 1, hi + 1)), default=_F)
            out[x * w + y] = v if exact else max(v, _U)
    return out


def _ref_column(C, h, later):
    """E (later=True: x' > x) or iE (x' < x) over C, per cell."""
    w = h + 1
    out = [_F] * (h * w)
    for x in range(h):
        for y in range(x + 1, h + 1):
            xs = range(x + 1, y) if later else range(x)
            out[x * w + y] = max((C[u * w + y] for u in xs), default=_F)
    return out


def _reference(name, C, h, b, per):
    if name == "iD":
        lifted = None if per is None else _lift("iE", b, per)
        return _ref_ib(_ref_column(C, h, later=False), h, lifted, per)
    ib = _ref_ib(C, h, b, per)
    if name == "O":
        return _ref_column(ib, h, later=True)
    return ib


def _rand_table(rng, h):
    # the slots y <= x get values too: no diamond may read them
    return [rng.choice(_VALUES) for _ in range(h * (h + 1))]


def _check(rng, h, b, per):
    C = _rand_table(rng, h)
    w = h + 1
    cells = [x * w + y for x in range(h) for y in range(x + 1, h + 1)]
    engine = _TableEngine(h, None, _join, max, min,
                          None if per is None else (per, {}))
    for name in ("iB", "iD", "O"):
        got = engine._diamond(name, C, b)
        want = _reference(name, C, h, b, per)
        assert [got[k] for k in cells] == [want[k] for k in cells], \
            (name, h, b, per)


def test_periodic_rows_match_per_cell_scans():
    # an atom's thresholds (pre, 1, pre), and triples with a larger length
    # or absolute-right term, as the lift rules of B and E make them
    rng = random.Random(1501)
    for pre in range(1, 4):
        for per in range(1, 4):
            for b in ((pre, 1, pre), (pre + per, 1 + per, pre),
                      (pre + 2 * per, 1 + 2 * per, pre + per)):
                cap0 = _row_cap(b, per, 0, 0)
                # short of row 0's threshold, at it, at its cap and past it
                t0 = cap0 - per + 1
                horizons = {1, 2, t0 - 1, t0, cap0, cap0 + 1,
                            cap0 + per + 2, rng.randrange(1, cap0 + 8)}
                for h in sorted(horizons):
                    _check(rng, h, b, per)


def test_finite_rows_are_suffix_joins():
    rng = random.Random(1502)
    for h in range(1, 10):
        for _ in range(3):
            _check(rng, h, None, None)


def test_undetermined_edge_is_reached():
    # a row whose stop lies past the horizon joins in undetermined even
    # over a child false everywhere, and only where a scan is cut short
    h, pre, per = 8, 1, 2
    b = (pre, 1, pre)
    C = [_F] * (h * (h + 1))
    got = _TableEngine(h, None, _join, max, min, (per, {}))._diamond(
        "iB", C, b)
    w = h + 1
    for x in range(h):
        for y in range(x + 1, h + 1):
            cut = _row_cap(b, per, x, y) > h
            assert got[x * w + y] == (_U if cut else _F), (x, y)


def test_allen_related_matches_oracle_for_rows():
    mods = [MODALITIES_BY_NAME[name] for name in ("iB", "iD", "O")]
    for last in range(1, 7):
        cells = oracle.intervals_upto(last)
        for i in cells:
            for mod in mods:
                got = allen_related(FiniteDomain(last), i, mod)
                want = [j for j in cells if oracle.related(i, j, mod)]
                assert got == want, (last, i, mod.name)
    for h in (5, 11):
        cells = oracle.intervals_upto(h)
        for i in [(0, 1), (1, 4), (2, 5)]:
            for mod in mods:
                got = allen_related(FiniteDomain(h), i, mod)
                want = [j for j in cells if oracle.related(i, j, mod)]
                assert got == want, (h, i, mod.name)
