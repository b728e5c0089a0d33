"""Pinned outputs of the satisfiability procedures.

The expected text below was produced by the decider before formulas were
interned; verdicts, lex-least models and witnesses must not move. Three
Unsat reasons were re-pinned when the pre-check came to read a box as its
negated twin diamond: those contradictions are now refuted before any
candidate is built, as "propositional refutation". The same
list is also run in fresh interpreters under two hash seeds, so neither
string hashing nor identity hashing of formula nodes can reach a result
through set or dict order.
"""

import os
import subprocess
import sys
from pathlib import Path

from hslogic.models import save_model
from hslogic.parser import parse_formula
from hslogic.sat import Sat, sat_bbll, sat_bounded_finite

ROOT = Path(__file__).resolve().parent.parent

BBLL_CASES = [
    "<B> p & <L> ~p",
    "<L> <B> q & [iL] ~p",
    "~<L> p & <iB> <B> p",
    "<iB> p & <B> q",
    "<iL> (p & <B> q)",
    "[B] p & <iB> ~p",
    "<B> p & <iB> ~p & <L> q & <iL> (p & q)",
    "<L> (p & [B] q) & <iL> <iB> ~q",
    # p's variables come before q's, so the lex-least model sets q
    "<B> (p | q)",
    "<B> p & [B] ~p",
    "<iB> (p & q) & [iB] ~(p & q)",
    "<iB> (p -> q) & [iB] ~(p -> q)",
    "<B> p & [B] (p -> <B> p)",
]

FINITE_CASES = [
    ("<A> p & <D> q & [O] ~p & <iE> (q | <iA> p)", 6),
    ("<iD> p & [E] q & <O> ~q & <iL> p", 6),
]

EXPECTED = """\
bbll <B> p & <L> ~p
  Sat (0, 2) 'order periodic pre=1 per=1\\nval p 0 1\\n'
bbll <L> <B> q & [iL] ~p
  Sat (0, 1) 'order periodic pre=1 per=1\\nval q 1 2\\n'
bbll ~<L> p & <iB> <B> p
  Sat (0, 1) 'order periodic pre=1 per=1\\nval p 0 1\\n'
bbll <iB> p & <B> q
  Sat (1, 3) 'order periodic pre=1 per=1\\nval p 1 2\\nval q 1 2\\n'
bbll <iL> (p & <B> q)
  Sat (4, 5) 'order periodic pre=1 per=1\\nval p 1 2\\nval q 1 2\\n'
bbll [B] p & <iB> ~p
  Sat (0, 1) 'order periodic pre=1 per=1\\n'
bbll <B> p & <iB> ~p & <L> q & <iL> (p & q)
  Sat (6, 9) 'order periodic pre=1 per=2\\nval p 2 4\\nval q 2 4\\n'
bbll <L> (p & [B] q) & <iL> <iB> ~q
  Sat (2, 3) 'order periodic pre=1 per=1\\nval p 1 2\\n'
bbll <B> (p | q)
  Sat (1, 3) 'order periodic pre=1 per=1\\nval q 1 2\\n'
bbll <B> p & [B] ~p
  Unsat 'propositional refutation'
bbll <iB> (p & q) & [iB] ~(p & q)
  Unsat 'propositional refutation'
bbll <iB> (p -> q) & [iB] ~(p -> q)
  Unsat 'propositional refutation'
bbll <B> p & [B] (p -> <B> p)
  Unsat 'no model within the periodic bound'
finite 6 <A> p & <D> q & [O] ~p & <iE> (q | <iA> p)
  Sat (1, 4) 'order finite 5\\nval p 4 5\\nval q 0 4\\nval q 2 3\\n'
finite 6 <iD> p & [E] q & <O> ~q & <iL> p
  Sat (2, 4) 'order finite 5\\nval p 0 1\\nval p 1 5\\nval q 3 4\\n'
"""


def _describe(res) -> str:
    if isinstance(res, Sat):
        return "Sat %r %r" % (res.witness, save_model(res.model))
    return "%s %r" % (type(res).__name__, res.reason)


def golden_text() -> str:
    lines = []
    for text in BBLL_CASES:
        lines.append("bbll " + text)
        lines.append("  " + _describe(sat_bbll(parse_formula(text))))
    for text, n in FINITE_CASES:
        lines.append("finite %d %s" % (n, text))
        lines.append("  " + _describe(
            sat_bounded_finite(parse_formula(text), n)))
    return "\n".join(lines) + "\n"


def _run_with_hash_seed(seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from tests.test_golden import golden_text; "
         "sys.stdout.write(golden_text())"],
        cwd=str(ROOT), env=env, capture_output=True, text=True, timeout=300,
        check=True)
    return proc.stdout


def test_pinned_outputs():
    assert golden_text() == EXPECTED


def test_outputs_do_not_depend_on_the_hash_seed():
    first = _run_with_hash_seed("0")
    second = _run_with_hash_seed("1")
    assert first == second
    assert first == EXPECTED
