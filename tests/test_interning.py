"""Hash-consed formula nodes: equal formulas are the same object."""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from hslogic import sat, syntax
from hslogic.checking import postorder
from hslogic.parser import parse_formula
from hslogic.syntax import (
    ALL_MODALITIES, B, And, Atom, Box, Diamond, FalseConst, Implies, Modality,
    Not, Or, TrueConst, modal_depth, mirror_formula, nesting_depth, render,
)

# Formulas are drawn as plain nested tuples, so that each test can build
# the same tree more than once, independently.
_leaves = st.one_of(
    st.sampled_from(["p", "q", "r_2", "__t"]).map(lambda n: ("atom", n)),
    st.just(("true",)),
    st.just(("false",)),
)
_mod_names = st.sampled_from([(m.base, m.inverted) for m in ALL_MODALITIES])


def _extend(children):
    return st.one_of(
        children.map(lambda c: ("not", c)),
        st.tuples(st.sampled_from(["and", "or", "implies"]), children,
                  children),
        st.tuples(st.sampled_from(["dia", "box"]), _mod_names, children),
    )


trees = st.recursive(_leaves, _extend, max_leaves=16)

_BINARY = {"and": And, "or": Or, "implies": Implies}
_MODAL = {"dia": Diamond, "box": Box}


def build(tree):
    """Construct the formula a tree describes from scratch, with fresh
    Modality values, never reusing a node."""
    kind = tree[0]
    if kind == "atom":
        return Atom(tree[1])
    if kind == "true":
        return TrueConst()
    if kind == "false":
        return FalseConst()
    if kind == "not":
        return Not(build(tree[1]))
    if kind in _BINARY:
        return _BINARY[kind](build(tree[1]), build(tree[2]))
    base, inverted = tree[1]
    return _MODAL[kind](Modality(base, inverted), build(tree[2]))


def recursive_depth(f):
    if isinstance(f, Not):
        return recursive_depth(f.sub)
    if isinstance(f, (And, Or, Implies)):
        return max(recursive_depth(f.lhs), recursive_depth(f.rhs))
    if isinstance(f, (Diamond, Box)):
        return 1 + recursive_depth(f.sub)
    return 0


def recursive_height(f):
    if isinstance(f, Not):
        return 1 + recursive_height(f.sub)
    if isinstance(f, (And, Or, Implies)):
        return 1 + max(recursive_height(f.lhs), recursive_height(f.rhs))
    if isinstance(f, (Diamond, Box)):
        return 1 + recursive_height(f.sub)
    return 0


@settings(max_examples=300, deadline=None)
@given(trees)
def test_independent_constructions_are_identical(tree):
    assert build(tree) is build(tree)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_parse_of_render_is_the_same_node(tree):
    f = build(tree)
    assert parse_formula(render(f)) is f


@settings(max_examples=300, deadline=None)
@given(trees)
def test_mirror_twice_is_the_same_node(tree):
    f = build(tree)
    assert mirror_formula(mirror_formula(f)) is f


@settings(max_examples=300, deadline=None)
@given(trees)
def test_cached_depths_match_recursive_ones(tree):
    f = build(tree)
    assert modal_depth(f) == recursive_depth(f)
    assert nesting_depth(f) == recursive_height(f)


@settings(max_examples=100, deadline=None)
@given(trees)
def test_pickle_and_copy_return_the_interned_node(tree):
    f = build(tree)
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.deepcopy(f) is f


def test_shared_subtrees_are_one_node():
    p = Atom("p")
    f = And(Diamond(B, p), Not(Diamond(B, p)))
    assert f.lhs is f.rhs.sub
    assert len(postorder(f)) == 4


def test_nodes_are_immutable_and_repr_is_structural():
    f = Diamond(Modality("B", False), Not(Atom("p")))
    with pytest.raises(AttributeError):
        f.sub = Atom("q")
    with pytest.raises(AttributeError):
        del f.mod
    assert repr(f) == \
        "Diamond(mod=Modality(B), sub=Not(sub=Atom(name='p')))"
    assert repr(TrueConst()) == "TrueConst()"


def test_the_pre_check_interns_no_node():
    # the skeleton keys a box's letter by modality, operand and polarity,
    # so it builds no twin <M> ~s of a box [M] s, and no ~s
    phi = parse_formula("<B> p & [B] (p -> <B> p) & [iB] [L] ~q")
    before = len(syntax._INTERNED)
    assert sat._prop_unsat(phi) is None
    assert len(syntax._INTERNED) == before
