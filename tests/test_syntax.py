"""Formula AST, rendering, closure, metrics, mirror."""

import random

from hslogic.parser import parse_formula
from hslogic.syntax import (
    A, iA, B, iB, D, iD, E, iE, L, iL, O, iO,
    ALL_MODALITIES, And, Atom, Box, Diamond, FALSE, Fragment, Implies,
    Not, Or, TRUE, ast_size, box, closure, desugar, dia, fragment_of,
    letters_of, metrics, mirror_formula, mirror_fragment, modal_depth,
    neg, render, subformulas,
)

from .gen import rand_formula

p, q = Atom("p"), Atom("q")


def test_render_parse_round_trip():
    rng = random.Random(101)
    for _ in range(300):
        phi = rand_formula(rng, ["p", "q", "r_2"], ALL_MODALITIES, 4)
        assert parse_formula(render(phi)) == phi


def test_neg_is_designated_negation():
    assert neg(p) == Not(p)
    assert neg(Not(p)) == p
    assert neg(neg(dia(B, p))) == dia(B, p)


def test_closure_closed_under_negation_and_bounded():
    rng = random.Random(102)
    for _ in range(120):
        phi = rand_formula(rng, ["p", "q"], ALL_MODALITIES, 3)
        cl = closure(phi)
        assert all(neg(f) in cl for f in cl)
        assert len(cl) <= 2 * len(subformulas(desugar(phi)))


def test_closure_frozen_example():
    phi = Or(dia(B, p), dia(iB, dia(B, q)))
    cl = closure(phi)
    assert len(cl) == 12
    expected = {
        phi, Not(phi),
        dia(B, p), Not(dia(B, p)),
        dia(iB, dia(B, q)), Not(dia(iB, dia(B, q))),
        dia(B, q), Not(dia(B, q)),
        p, Not(p), q, Not(q),
    }
    assert cl == expected


def test_metrics_frozen_bounds():
    assert metrics(dia(L, p)).periodic_bound == 8
    assert metrics(And(p, q)).periodic_bound == 4
    phi = Or(dia(B, p), dia(iB, dia(B, q)))
    m = metrics(phi)
    assert m.closure_size == 12
    assert m.periodic_bound == 10


def closure_metrics(phi):
    """metrics as the paper defines it, over the closure as a set."""
    cl = closure(phi)
    begin = set()
    for member in cl:
        if isinstance(member, Diamond) and member.mod.base == "B":
            begin.add((member.mod, member.sub))
        elif isinstance(member, Not) and isinstance(member.sub, Box) \
                and member.sub.mod.base == "B":
            begin.add((member.sub.mod, neg(member.sub.sub)))
    r_size = sum(isinstance(core, (Diamond, Box)) and core.mod.base == "L"
                 for core in (m.sub if isinstance(m, Not) else m for m in cl))
    m_l = 2 * r_size
    return (ast_size(phi), len(cl), len(begin), r_size, m_l,
            (m_l + 2) * len(begin) + m_l + 4)


def test_metrics_counts_what_the_closure_holds():
    # metrics counts the closure without building it; constants, -> and
    # stacked negations, under boxes and diamonds of every family
    rng = random.Random(3202)
    for k in range(400):
        phi = rand_formula(rng, ["p", "q"], ALL_MODALITIES, 4)
        if k % 3 == 0:
            phi = Implies(phi, Not(Not(box(B, Or(TRUE, Not(phi))))))
        m = metrics(phi)
        assert (m.length, m.closure_size, m.m_b, m.r_size, m.m_l,
                m.periodic_bound) == closure_metrics(phi), phi
    # a box and its twin diamond are one begin-family letter
    for phi in (And(dia(B, Not(p)), box(B, p)),
                And(dia(iB, p), box(iB, Not(p))),
                And(dia(B, Not(Not(p))), box(B, Not(Not(Not(p)))))):
        assert metrics(phi).m_b == 1 == closure_metrics(phi)[2]


def test_metrics_formula_shape():
    rng = random.Random(103)
    for _ in range(150):
        phi = rand_formula(rng, ["p", "q"], ALL_MODALITIES, 3)
        m = metrics(phi)
        assert m.m_l == 2 * m.r_size
        assert m.periodic_bound == (m.m_l + 2) * m.m_b + m.m_l + 4


def test_periodic_bound_monotone_under_new_diamonds():
    rng = random.Random(104)
    for _ in range(80):
        phi = rand_formula(rng, ["p", "q"], [B, iB, L, iL], 2)
        base = metrics(phi).periodic_bound
        for mod in (B, iB):
            assert metrics(dia(mod, phi)).periodic_bound > base
        for mod in (L, iL):
            assert metrics(dia(mod, phi)).periodic_bound > base


def test_mirror_involution_and_size():
    rng = random.Random(105)
    for _ in range(200):
        phi = rand_formula(rng, ["p", "q"], ALL_MODALITIES, 3)
        assert mirror_formula(mirror_formula(phi)) == phi
        assert ast_size(mirror_formula(phi)) == ast_size(phi)
        assert len(fragment_of(mirror_formula(phi))) == len(fragment_of(phi))


def test_mirror_swap_table():
    pairs = [(A, iA), (L, iL), (B, E), (iB, iE), (O, iO)]
    for m1, m2 in pairs:
        assert mirror_formula(dia(m1, p)) == dia(m2, p)
        assert mirror_formula(dia(m2, p)) == dia(m1, p)
    for m in (D, iD):
        assert mirror_formula(dia(m, p)) == dia(m, p)


def test_mirror_fragment_matches_formula_mirror():
    rng = random.Random(106)
    for _ in range(100):
        phi = rand_formula(rng, ["p"], ALL_MODALITIES, 3)
        assert fragment_of(mirror_formula(phi)) == \
            mirror_fragment(fragment_of(phi))


def test_mirror_fragment_involution():
    rng = random.Random(107)
    mods = list(ALL_MODALITIES)
    for _ in range(60):
        k = rng.randrange(1, 6)
        frag = Fragment.of(*rng.sample(mods, k))
        assert mirror_fragment(mirror_fragment(frag)) == frag


def test_fragment_name_and_order():
    frag = Fragment.of(iB, L, B)
    assert frag.name == "B iB L"
    assert Fragment.of(B) <= frag
    assert not (frag <= Fragment.of(B))


def test_desugar_removes_sugar():
    phi = Implies(TRUE, Or(p, FALSE))
    d = desugar(phi)
    for f in subformulas(d):
        assert not isinstance(f, (Implies,))
    assert modal_depth(phi) == 0


def test_letters_of_includes_reserved_after_desugar():
    assert "p" in letters_of(p)
    assert "__t" in letters_of(TRUE)


def test_box_is_dual_shorthand():
    assert box(B, p) == Box(B, p)
    assert dia(B, p) == Diamond(B, p)
