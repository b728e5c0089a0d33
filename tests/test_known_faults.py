"""The periodicity-cap fault, pinned until it is mended.

checking._row_cap and checking._later_cap cut the right-unbounded scans, and
checking._reduce_query pulls far queries back, on the assumption that truth
repeats with the period once an endpoint passes pre + 2*depth*per. Under D,
B and E truth also depends on the interval's length, so the model checker
and, through the shared caps, sat_bbll give wrong answers. Each case states
the true answer and is expected to fail; xfail_strict turns a mended case
into a failing XPASS, to be made a plain test.
"""

import pytest

from hslogic.checking import mc_periodic
from hslogic.models import load_model
from hslogic.parser import parse_formula
from hslogic.sat import CertificateError, Sat, Unsat, sat_bbll

MODEL = load_model("order periodic pre=1 per=1\nval p 0 1\n")

FAULT = pytest.mark.xfail(
    reason="periodicity caps ignore interval length", strict=True,
    raises=(AssertionError, CertificateError))


@FAULT
def test_nested_contains_after_meets():
    # [1, 6] contains [2, 5], which contains [3, 4]
    assert mc_periodic(MODEL, (0, 1), parse_formula("<A> <D> <D> ~q"))


@FAULT
def test_started_by_twice_inside_a_longer_interval():
    # [4, 7] is started by [4, 6], which is started by [4, 5]
    assert mc_periodic(MODEL, (4, 5),
                       parse_formula("<iB> <B> <B> (p | ~p)"))


@FAULT
def test_sat_bbll_refutes_a_valid_negation():
    assert isinstance(sat_bbll(parse_formula("~<iB> <B> <B> (p | ~p)")),
                      Unsat)


@FAULT
def test_sat_bbll_certifies_a_satisfiable_formula():
    assert isinstance(sat_bbll(parse_formula("<B> <B> p & <iL> q")), Sat)
