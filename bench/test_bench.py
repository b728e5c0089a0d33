"""Self-tests of the benchmark: the reference evaluator on hand-worked
cases, and the output checks catching wrong answers.

    python3 -m pytest bench/test_bench.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as R  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

P = ("atom", "p")
Q = ("atom", "q")


def dia(mod, f):
    return ("dia", mod, f)


def box(mod, f):
    return ("box", mod, f)


def test_successors_match_the_relation_definitions():
    last = 7
    cells = [(u, v) for u in range(last + 1) for v in range(u + 1, last + 1)]
    for mod in R.MODALITIES:
        rel = R.RELATIONS[mod]
        for x, y in cells:
            want = sorted((u, v) for u, v in cells if rel(x, y, u, v))
            assert sorted(R.successors(mod, x, y, last)) == want, (mod, x, y)


def test_later_witness_models():
    # Three points; p only on [2, 3] in the first model, nowhere in the
    # second. From [0, 1], [2, 3] lies later, so <L> p separates them, while
    # the begin pair only sees intervals starting at 0.
    a = R.Model({"p": {(2, 3)}}, last=3)
    b = R.Model({}, last=3)
    assert R.evaluate(a, dia("L", P), (0, 1)) is True
    assert R.evaluate(b, dia("L", P), (0, 1)) is False
    for f in (dia("B", P), dia("iB", P), box("iB", ("not", P)),
              dia("iB", dia("B", P))):
        assert R.evaluate(a, f, (0, 1)) == R.evaluate(b, f, (0, 1))
    # [2, 3] starts where [1, 2] ends: it is met, not later
    assert R.evaluate(a, dia("L", P), (1, 2)) is False
    assert R.evaluate(a, dia("A", P), (1, 2)) is True


def test_countermodel_for_later_against_begin():
    # Points 0..2, p on [0, 1]: at [0, 2], <B> p holds through [0, 1] and
    # nothing lies after point 2, so <L> p fails.
    m = R.Model({"p": {(0, 1)}}, last=2)
    assert R.evaluate(m, dia("B", P), (0, 2)) is True
    assert R.evaluate(m, dia("L", P), (0, 2)) is False
    check = workloads._disagree(dia("L", P), dia("B", P))
    assert check(("Countermodel", m.to_ism(), (0, 2)))
    assert not check(("Countermodel", m.to_ism(), (0, 1)))
    assert not check("NoCountermodel")


def test_periodic_canonical_cells():
    m = R.Model({}, pre=2, per=3)
    assert m.canonical((0, 1)) == (0, 1)
    assert m.canonical((0, 9)) == (0, 3)      # right endpoint alone
    assert m.canonical((8, 9)) == (2, 3)      # diagonal
    assert m.canonical((8, 15)) == (2, 3)     # diagonal, then right
    assert m.canonical((4, 7)) == (4, 7)      # length 3 = one period
    assert m.canonical((4, 8)) == (4, 5)
    # x < pre: every y up to pre + per - 1; x >= pre: one period of y
    assert len(m.cells()) == 4 + 3 + 3 * 3


def test_periodic_mode_is_three_valued():
    m = R.Model({"p": {(0, 1)}}, pre=1, per=1)
    f = dia("A", dia("D", dia("D", ("not", Q))))
    assert R.evaluate(m, f, (0, 1), horizon=5) is None   # [1, 6] not in view
    assert R.evaluate(m, f, (0, 1), horizon=6) is True
    assert R.evaluate(m, box("A", Q), (0, 1), horizon=6) is False
    assert R.evaluate(m, box("A", ("not", Q)), (0, 1), horizon=9) is None
    assert R.evaluate(m, dia("iA", P), (1, 2), horizon=2) is True
    assert R.evaluate(m, box("iL", P), (1, 2), horizon=2) is True  # vacuous


def test_flipped_verdict_is_caught():
    plain = workloads.Query(lambda: True, workloads._identity,
                            workloads._verdict(True))
    flipped = workloads.Query(lambda: False, workloads._identity,
                              workloads._verdict(True))
    out = run.Outcomes()
    for _ in range(3):
        out.record((0, 0), plain, plain.call())
    assert out.judge() == (3, 0, True)
    out.record((0, 1), flipped, flipped.call())
    assert out.judge() == (4, 1, False)


def test_known_fault_counts_as_failed_but_not_incorrect():
    q = workloads.Query(lambda: False, workloads._identity,
                        workloads._verdict(True), known_fault=True)
    out = run.Outcomes()
    out.record((0, 0), q, q.call())
    out.record((0, 0), q, q.call())
    assert out.judge() == (2, 2, True)


def test_changing_answer_is_caught():
    answers = iter([True, False])
    q = workloads.Query(lambda: next(answers), workloads._identity,
                        workloads._verdict(True))
    out = run.Outcomes()
    out.record((0, 0), q, q.call())
    out.record((0, 0), q, q.call())
    assert out.judge() == (2, 2, False)


def test_certificate_check():
    # <iB> p true at [0, 1] of a periodic model with p on [0, 2] and beyond
    f = dia("iB", P)
    good = R.Model({"p": {(0, 2)}}, pre=1, per=1)
    check = workloads._confirms(f, size=2, finite=False)
    assert check(("Sat", good.to_ism(), (0, 1)))
    assert not check(("Sat", R.Model({}, pre=1, per=1).to_ism(), (0, 1)))
    big = R.Model({"p": {(0, 2)}}, pre=2, per=1)
    assert not check(("Sat", big.to_ism(), (0, 1)))   # larger than drawn
    assert not check("Unsat")
