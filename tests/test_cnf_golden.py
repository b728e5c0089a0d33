"""Pinned CNFs and solver runs of the satisfiability procedures.

Every candidate CNF that sat_bbll and sat_bounded_finite hand to the solver
is captured by wrapping _Cnf.solve, and a SHA-256 of (nvars, clauses) is
compared with a pinned digest. A second digest covers what the solver did
with it: its clause list after the run (learnt clauses included, with each
clause's literals in the order the watch scheme left them) and its final
trail. Encoding or search changes that keep verdicts but move a gate, a
clause or a propagation step show up here first. The same digests come out
in fresh interpreters under two hash seeds.

The digests were re-pinned when the encoder came to build its gates one
subformula at a time rather than one cell at a time: that renumbers the gate
variables, and tests/test_cnf_renaming.py shows that nothing else in the
CNFs or verdicts moved.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hslogic import sat
from hslogic.parser import parse_formula

ROOT = Path(__file__).resolve().parent.parent

CASES = [
    # single-step B and iB contradictions
    ("bbll", "<B> p & [B] ~p"),
    ("bbll", "<iB> p & [iB] ~p"),
    # B well-foundedness
    ("bbll", "<B> ~p & [B] (~p -> <B> ~p)"),
    # satisfiable cases of test_golden.BBLL_CASES, through L and iL
    ("bbll", "<B> p & <iB> ~p & <L> q & <iL> (p & q)"),
    ("bbll", "<L> (p & [B] q) & <iL> <iB> ~q"),
    ("finite 6", "<A> p & <D> q & [O] ~p & <iE> (q | <iA> p)"),
]

# per case: one (cnf digest, solver digest) pair per candidate, in order.
# The unsatisfiable bbll cases list the splits (pre, per) that sat_bbll
# refutes: the ordered prefix, then the maximal splits by ascending period.
# Every pair is one the full ordered search over all splits also produced.
EXPECTED = {
    'bbll <B> p & [B] ~p': [
        # (5, 1)
        ('ac61c627ed64f2370e88f434daee6df9754396bcfd5ee198cd47678c1c21ba90',
         '532d542d6d855a16971e7d18c9754ef2a6c2c3a5db5611488f6edc2fbd0b8cc1'),
        # (4, 2)
        ('75c9679994dabc4118183fc1eeeabb13e5cfb77a8ce1d90bb4fe04ef10d8369e',
         '8efab9da6f55450dc431baf946ca21c3adb3e361070f0e411ed5cfe993475941'),
        # (3, 3)
        ('2c33108fff17f675d5b2fac8103eeafa452c5707e2eae67a461bb5a1776993de',
         '75abc15f7f7a79e7002c48d7a5e40e677b3e74672becf4b751e5b38be98f2341'),
        # (2, 4)
        ('b2f9c6f110c46fe5d48b4ccd1032276ce40def7997d1e392f52a7a02dc9e164f',
         'a5dc913910362604936e0cd7e7fc8ac15003a36fdb192790a67e481020cd39ea'),
        # (1, 5)
        ('021e4fdaaf8325fb3198593ba0820c9973573ad87552663bd5eac965be96e655',
         '8eda00f939f3de0f107c96d92bfed9f568cf5a005fb7fc5302141a13643df23f'),
    ],
    'bbll <iB> p & [iB] ~p': [
        # (5, 1)
        ('38ff1f95472a644aabdd0e78ef1220ec6f962cb85151c9ca2ce61266722bfb4f',
         '41ca3f4dc1d6155c01dda8dbb771f4f849ea35f5cf479c2df60da5717d93e0d5'),
        # (4, 2)
        ('74559d8025ee9938cfa2d9e02d77962872f1cc39ba50f2f11b6cffda0963847e',
         '9b5dae248b1dfdcc3995e5fc7101f848dd45e380fa672c038ad82e5cf96ab4ca'),
        # (3, 3)
        ('4385a67b88537b53efc9d52abfe905455c9b7cf58d044773724ef71d491c1723',
         '7c27d1d89bebe807a0c68933e24168703c7d08fbd996239d39abe7c4580c675c'),
        # (2, 4)
        ('555db27985d273b7ab866c47bd8d027332b5c36578c082a0078824d38ddcc930',
         '4ef66c0204e0bf175b7fc640adb91ea260c18a0ba19b901d1bfcb139e22784bd'),
        # (1, 5)
        ('9432f8399261ec3cd67278c86c380edad7541cb928566f1b4516b517b4ff4838',
         '6bc07644aa70e91d191600762639308e26b2ca65db2fffddeb2a30405acdf444'),
    ],
    'bbll <B> ~p & [B] (~p -> <B> ~p)': [
        # (1, 1)
        ('d09a15d4d22e21a1518f79ce02da3e9b3362b80f0f143ce633208e900d0d8f6a',
         '1aad2dbda9ca9828b893fc6e256197e6b6e6a3e0fe7c95f334c96922360b4d18'),
        # (7, 1)
        ('897fbe713ac72a4a38dc0e1f2d24fae63b01ba402060f61093c345ac9bbfb73c',
         '9ab90cdb184c372215c9c0ee2ba7275673b0ad9bbfecf257a88d0186cfa21dc2'),
        # (6, 2)
        ('6e1081f16589b6e31a01b50aa4aeda3fefd3b1113001bbeee10e3eb0dbe98c81',
         '4bcb489c67629eaa43c06921d7ea765747a4fc225e0611429d09c718094ce7f2'),
        # (5, 3)
        ('64fb9c535cad23827ec96afc94896f52b8158b04e790d25493102f18a7bd3046',
         'c34b173e966fdc05916c82ce088f483cbf8de709d0c36ee8636a807529feb539'),
        # (4, 4)
        ('589c0ce48b8ae79c5cffd67ceb8d6adbe898abd02f37aa745c7e6a0aee17deb8',
         'ee098ffcd704f7e14ffa4754845262bca3ac67c94eaba43d77eafaaf64d4ecbd'),
        # (3, 5)
        ('0bd8d145b697367a8c57fbe05cd6c60ec31cee1baefb5ec7ef7d2e73b3a6c709',
         'e709a365e00931015823e25f1350c6e0805b9e4fd4d2c15fd1ea40c45c6df7e1'),
        # (2, 6)
        ('ef0a938cfbbcd09f10c149d9c78858c2dc9a472d5843b5fc1dbce0714a07a315',
         '6f596b88e4d4d110a17952e1a8e491900d8c257acf78984d156210b219977f61'),
        # (1, 7)
        ('ef0ad8692b5b737df3d124155ba1ee366bda5ebe6cb82661c9922ab3fa036bee',
         'c2efe2dae89aeb2064737198fff51ce2ee8e7c9efe1fc74b4d1d608def000c3f'),
    ],
    'bbll <B> p & <iB> ~p & <L> q & <iL> (p & q)': [
        ('ddf21e38830bc9405937bc39214db352d4270f497befb7799c47b8a2bbc5092d',
         'a8ce801f992d65d389bb3b452aa3c1ab0db4563945ab4b46a9dbf96397512e96'),
        ('e778ddb50d8006451eb0bb8546bb8868c1724c6a4ab0b42f0e05cfbecc55ffe1',
         '6bd104926534a2f901b4cd808c608962639176ac2a71c9a2153d5e2556c2f324'),
    ],
    'bbll <L> (p & [B] q) & <iL> <iB> ~q': [
        ('a212819c3966fde07ab7aab5c8e6ccffc050014460ba54f6c2e2100f6ef9aad2',
         'e4397fe4fa6b4159c8bad3640fb8819fb14652350d420a4e7d703dc88aac35ab'),
    ],
    'finite 6 <A> p & <D> q & [O] ~p & <iE> (q | <iA> p)': [
        ('9493550a01e24f0bfb1628cff57107641da7dc4395f0061bbc88e9a33221e443',
         '9d68ef595f6ebc68f7652424b38d4a138aec93c86d0e1d2388bd3d400dd21206'),
    ],
}


def _digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _run_capturing(monkeypatch, kind, text):
    runs = []
    solvers = []
    base_solver = sat.Solver
    orig_solve = sat._Cnf.solve

    class RecordingSolver(base_solver):
        def __init__(self):
            super().__init__()
            solvers.append(self)

    def solve(cnf):
        solvers.clear()
        cnf_digest = _digest([cnf.nvars, cnf.clauses])
        out = orig_solve(cnf)
        (s,) = solvers
        runs.append((cnf_digest, _digest([out is not None, s.clauses,
                                          s.trail])))
        return out

    monkeypatch.setattr(sat, "Solver", RecordingSolver)
    monkeypatch.setattr(sat._Cnf, "solve", solve)
    phi = parse_formula(text)
    if kind == "bbll":
        sat.sat_bbll(phi)
    else:
        sat.sat_bounded_finite(phi, int(kind.split()[1]))
    return runs


@pytest.mark.parametrize("kind,text", CASES)
def test_candidate_cnfs_and_solver_runs(monkeypatch, kind, text):
    runs = _run_capturing(monkeypatch, kind, text)
    assert runs == [tuple(r) for r in EXPECTED[kind + " " + text]]


def all_runs() -> dict:
    """Every case's runs, keyed as in EXPECTED."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        out = {}
        for kind, text in CASES:
            out[kind + " " + text] = _run_capturing(monkeypatch, kind, text)
            monkeypatch.undo()
    return out


def _runs_with_hash_seed(seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; from tests.test_cnf_golden import all_runs; "
         "json.dump(all_runs(), sys.stdout)"],
        cwd=str(ROOT), env=env, capture_output=True, text=True, timeout=300,
        check=True)
    return json.loads(proc.stdout)


def test_digests_do_not_depend_on_the_hash_seed():
    want = {key: [list(r) for r in runs] for key, runs in EXPECTED.items()}
    assert _runs_with_hash_seed("0") == want
    assert _runs_with_hash_seed("1") == want
