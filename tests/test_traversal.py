"""postorder and subformulas: one iterative traversal of a formula."""

from hypothesis import given, settings

from hslogic import checking
from hslogic.syntax import (
    And, Atom, Box, Diamond, Implies, Not, Or, postorder, subformulas,
)

from .test_interning import build, trees


def recursive_postorder(phi):
    """Reference: unique subformulas, children left to right before
    parents, each at its first occurrence."""
    seen, out = set(), []

    def walk(f):
        if f in seen:
            return
        seen.add(f)
        if isinstance(f, (And, Or, Implies)):
            walk(f.lhs)
            walk(f.rhs)
        elif isinstance(f, (Not, Diamond, Box)):
            walk(f.sub)
        out.append(f)

    walk(phi)
    return out


@settings(max_examples=300, deadline=None)
@given(trees)
def test_postorder_matches_the_recursive_reference(tree):
    f = build(tree)
    order = postorder(f)
    assert order == recursive_postorder(f)
    assert subformulas(f) == set(order)


def test_checking_reexports_postorder():
    assert checking.postorder is postorder


def test_postorder_has_no_depth_limit():
    f = Atom("p")
    for _ in range(5000):
        f = Not(f)
    order = postorder(f)
    assert len(order) == 5001
    assert order[0] is Atom("p") and order[-1] is f
