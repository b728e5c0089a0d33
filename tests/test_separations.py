"""Undefinability certificates for the separations of the fragment atlas.

A separation target is one of the eight modalities A iA B iB E iE L iL
against a fragment that is maximal, by definable closure, among the atlas
fragments that cannot define it. Twelve of the sixteen targets have a
witness on a finite order; the other four are listed as open.
"""

import pytest

from hslogic.atlas import definable_closure, enumerate_fragments
from hslogic.bisim import UndefinabilityWitness, largest_f_bisimulation
from hslogic.models import canonical_cells, finite_model
from hslogic.parser import parse_fragment
from hslogic.syntax import A, iA, B, iB, E, iE, L, iL, MODALITIES_BY_NAME

TARGET_MODS = (A, iA, B, iB, E, iE, L, iL)

# (modality, fragment, last point, cells where p holds in model a, interval)
# Model b is the empty model on the same domain, and the interval is the
# same on both sides. Found by a search over one-letter models with last
# point at most 3.
WITNESSES = (
    ("A", "iA B iB L", 2, [(1, 2)], (0, 1)),
    ("A", "iA E iE L", 2, [(0, 2), (1, 2)], (0, 1)),
    ("iA", "A B iB iL", 2, [(0, 1), (0, 2)], (1, 2)),
    ("iA", "A E iE iL", 2, [(0, 1)], (1, 2)),
    ("B", "A iA iB", 2, [(0, 1), (1, 2)], (0, 2)),
    ("iB", "A iA B", 2, [(0, 2)], (0, 1)),
    ("E", "A iA iE", 2, [(0, 1), (1, 2)], (0, 2)),
    ("iE", "A iA E", 2, [(0, 2)], (1, 2)),
    ("L", "iA B iB", 3, [(1, 2), (1, 3), (2, 3)], (0, 1)),
    ("L", "iA E iE", 3, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], (0, 1)),
    ("iL", "A B iB", 3, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], (2, 3)),
    ("iL", "A E iE", 3, [(0, 1), (0, 2), (1, 2)], (2, 3)),
)

# No finite witness: refining the disjoint union of all 1,098 one-letter
# models with last point at most 4 leaves each of their cells alone in its
# block for both fragments, so no two distinct cells are bisimilar there.
# These separations need infinite orders.
OPEN = (
    ("B", "A iA E iE"),
    ("iB", "A iA E iE"),
    ("E", "A iA B iB"),
    ("iE", "A iA B iB"),
)


def separation_targets():
    """(modality, fragment) names of the closure-maximal fragments that
    cannot define each target modality."""
    frags = enumerate_fragments()
    closure = {f: frozenset(definable_closure(f)) for f in frags}
    out = []
    for mod in TARGET_MODS:
        lacking = [f for f in frags if mod not in closure[f]]
        out.extend((mod.name, f.name) for f in lacking
                   if not any(closure[f] < closure[g] for g in lacking))
    return out


def witness(mod, frag, last, cells, interval):
    return UndefinabilityWitness(
        mod=MODALITIES_BY_NAME[mod], fragment=parse_fragment(frag),
        model_a=finite_model(last, {"p": cells}),
        model_b=finite_model(last, {}),
        interval_a=interval, interval_b=interval, letter="p")


def test_sixteen_targets_split_into_witnessed_and_open():
    targets = separation_targets()
    assert len(targets) == 16 == len(set(targets))
    witnessed = {(mod, frag) for mod, frag, *_ in WITNESSES}
    assert len(witnessed) == len(WITNESSES) == 12
    assert witnessed <= set(targets)
    assert set(OPEN) == set(targets) - witnessed


@pytest.mark.parametrize("case", WITNESSES, ids=lambda c: "%s-vs-%s" % c[:2])
def test_witness_certifies(case):
    w = witness(*case)
    assert w.mod not in definable_closure(w.fragment)
    assert w.certify()


@pytest.mark.parametrize("frag", sorted({frag for _, frag in OPEN}))
def test_open_fragments_tell_apart_every_small_one_letter_model(frag):
    # the bounded form of the note on OPEN: over one-letter models with
    # last point at most 2, the largest bisimulation relates only a cell
    # to itself in the same model, so no witness lives among them
    f = parse_fragment(frag)
    models = [finite_model(last, {"p": [c for k, c in enumerate(cells)
                                        if mask >> k & 1]})
              for last, cells in ((1, [(0, 1)]),
                                  (2, [(0, 1), (0, 2), (1, 2)]))
              for mask in range(1 << len(cells))]
    assert len(models) == 10
    for ma in models:
        for mb in models:
            rel = largest_f_bisimulation(f, ma, mb)
            if ma == mb:
                assert rel == {(i, i) for i in canonical_cells(ma.domain)}
            else:
                assert not rel
