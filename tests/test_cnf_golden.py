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

The finite 6 digests were re-pinned again when sat_bounded_finite came to
encode through the model checker's grid engine (checking._TableEngine): a
diamond is now a ladder, a scan or a dynamic-programming gate over the
grid, and five of the twelve are one diamond over another, where each was a
flat disjunction over its successors before. The CNF changed shape, not
only numbering, so tests/test_cnf_renaming.py moved with it. The atom
variables and the candidate sequence did not, and the certificates
tests/test_golden.py pins are unchanged. tests/test_finite_certificates.py
checks the claim behind them, that a finite certificate is the least
valuation and cell, against the oracle.

They were re-pinned once more when D, written out as its own recurrence
over the grid's diagonals, became B over E like the other five composed
diamonds: the finite 6 formula has a <D>, so its gates changed. The bbll
digests did not move, since the periodic encoder has no D.

The bbll cases were re-pinned when sat_bbll came to refute a formula by a
K4 pre-check, and to refute a split whose goal literal folds to false in
the gates without a solver. The two single-step contradictions
<B> p & [B] ~p and <iB> p & [iB] ~p now build no candidate and are pinned
as such, and [iB] p & [iB] ~p and [L] p & [L] ~p, which the pre-check
leaves to the candidates, came in to pin the iB and L encodings. The
(1, 1) split of two other cases folds to false and lost its entry; every
other entry kept its digests.
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
    # single-step B and iB contradictions, refuted by the pre-check
    ("bbll", "<B> p & [B] ~p"),
    ("bbll", "<iB> p & [iB] ~p"),
    # unsat only because every interval has iB- and L-successors, which the
    # pre-check does not know
    ("bbll", "[iB] p & [iB] ~p"),
    ("bbll", "[L] p & [L] ~p"),
    # B well-foundedness
    ("bbll", "<B> ~p & [B] (~p -> <B> ~p)"),
    # satisfiable cases of test_golden.BBLL_CASES, through L and iL
    ("bbll", "<B> p & <iB> ~p & <L> q & <iL> (p & q)"),
    ("bbll", "<L> (p & [B] q) & <iL> <iB> ~q"),
    ("finite 6", "<A> p & <D> q & [O] ~p & <iE> (q | <iA> p)"),
]

# per case: one (cnf digest, solver digest) pair per candidate, in order.
# The unsatisfiable bbll cases list the splits (pre, per) that sat_bbll
# refutes with the solver: the ordered prefix, then the maximal splits by
# ascending period; a split whose goal folds to false has no entry.
# Every pair is one the full ordered search over all splits also produced.
EXPECTED = {
    'bbll <B> p & [B] ~p': [],
    'bbll <iB> p & [iB] ~p': [],
    'bbll [iB] p & [iB] ~p': [
        # (7, 1)
        ('27a5205d098ba7b2de97fa8bae2829481fa93f987cd7d6ac0a6db2c82d1e54fd',
         '63eb3401f4150d5a475778a37aa57e78b1c404aae85af26f1cf67c40fe727916'),
        # (6, 2)
        ('65f15a0d14d53c49cc0d3eaa98a3fe2dcb3196f60c4b47f72f555cb18a558afb',
         '1b8fcdc2707976b2fbe7e3882aeaa6e0cb0c01e19c8c7e2b5f3804727883a7dd'),
        # (5, 3)
        ('116493a3b60198ba2c24f8ff8e1b54834df63292b6a8f050e20392e35ac097ed',
         '7862681df053ce9db64ccc5e0ee9475d70db8540e113c2fff38fccdf21de2b3b'),
        # (4, 4)
        ('9d433814f1114406d127c06a3590f28e8bc20fce971f4d603a0ca4a3293b9837',
         'de11a46df3bf1fa9d7d78982ec77afe3f0e2db9d2d8bf33f573fc5d754732754'),
        # (3, 5)
        ('946ccbfa9757346c2f36924104530d625993bece3e50846ed015c82a1abdfdbe',
         'ce90098ef2946deae2c706b1bfc0606a6d2b00223ad15546e789de8c0156a859'),
        # (2, 6)
        ('fe239e6de802e5b5401257e871b2fbc7e2939be71cb94a611c81edced9f94b0b',
         '574ac1e4dc40b66cb964805530afd08409d1d0ac1c61cd9cbd2033df377b956a'),
        # (1, 7)
        ('25e84d1c320887e4ed4a78d7e85bc28615b2c0cb4532624851d46aa765e9cc8e',
         'ff95ca00dbc7d1b582f8f71f8d558ab8877e1c92cd2e4e255129e80fa822d1c7'),
    ],
    'bbll [L] p & [L] ~p': [
        # (1, 2)
        ('d00779480e7f66c7508ecb7ed2ba765ea75c94f735ece75a739dc960afefbceb',
         '65adac3b831d7bfb80e836d3e9d4c64bdb792463cd09ecdc8e4dccacb5ad982d'),
        # (11, 1)
        ('207d22d570c4e5be619a1d82d184b8a487c58fe271fcf09cb1b4ade9ba71f0f2',
         '1900e8132069e98898dcbadc9af9d67dd0a3dd1218430eac316552777ac03102'),
        # (10, 2)
        ('9357c830f631272056748df53a62b43af4f222cda48dba4bf1861787ba8b9b8c',
         'b49843df963b3db52a17be4df7909e37f07d25889d1be871cedb3e134b050112'),
        # (9, 3)
        ('1e95f4d57ca50a33b52a44430105f02dcf42e4f850a715ac1214d657f7f73671',
         '7986dae3d7518a541f62a8283afd5d0c3ebc8950618979069a39d898841b75c3'),
        # (8, 4)
        ('39c79f71e5d77b9c863bbc81dfae3c4cb69d2e0d7c6311fe0ee8d3b70dfe7b59',
         '4dc91745a09efcbc73d661de614f075d5d362f6d78d904df5187236dd12cf037'),
        # (7, 5)
        ('96d5695a58b0eee800ff6bdbc9ea4c557e9dd44df316907e31a554ee4fde4a19',
         '708687b313e717357b37611914f745cf940895315d128f41a17c6a0e2ff12c85'),
        # (6, 6)
        ('abda880d822c2b88fdd8b4fa2fe87d8aafa0f84072c61aed4ffb01dd9f5f2fe5',
         '0cc86cc8b09adedff0620c950c2271b85a2c04e8e14bc07de7a6ad15207541c6'),
        # (5, 7)
        ('316901a83ce75b4dd96e5ae8e5155763a3421cd89a0e7c9e9f00afc1c9482087',
         'e8c5a157dffc0de111d72edfeabc6be718763b43b0ab67464ef4607dd373f7c8'),
        # (4, 8)
        ('97ddf3a505999fd3d501f517592c9c6feae66d9c209bfddb074264d1ec539cc0',
         '3901c8a250a77eaff0b9b642a248183798911695fc5a588af5aaa6c78bf84586'),
        # (3, 9)
        ('d1e41ce0df701e67633346810083fd98438a2f74a4ffa9eddd991c420840bf9c',
         '0746bdfbaa8a7535a592729659dc6151044e9df9de5732b6f8782469d66ed732'),
        # (2, 10)
        ('a4f10be8e3bfb3f024a4cad5c9120503292dd94d00b38ed0a2e383fbd4ab67d2',
         '896f7caee21929cb7f8c166b3f767f3523181d91147a73519a2f0dfedfd31472'),
        # (1, 11)
        ('f2401afa4c47f2616eb68aceee5c8965d0b550fd63587ea54ade079fd18d3c56',
         'ac90270678c9f78523b3df6adb85ae2dfe693c8dfe8bd246adb8b877645b43d4'),
    ],
    'bbll <B> ~p & [B] (~p -> <B> ~p)': [
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
        ('e778ddb50d8006451eb0bb8546bb8868c1724c6a4ab0b42f0e05cfbecc55ffe1',
         '6bd104926534a2f901b4cd808c608962639176ac2a71c9a2153d5e2556c2f324'),
    ],
    'bbll <L> (p & [B] q) & <iL> <iB> ~q': [
        ('a212819c3966fde07ab7aab5c8e6ccffc050014460ba54f6c2e2100f6ef9aad2',
         'e4397fe4fa6b4159c8bad3640fb8819fb14652350d420a4e7d703dc88aac35ab'),
    ],
    'finite 6 <A> p & <D> q & [O] ~p & <iE> (q | <iA> p)': [
        ('1d11a811909c35b962b01b4d80a7e4eb985f432e594aa8daf6b1c316f2149096',
         'a168049f60f5f7e116eb39fd9aef067dbff0fd75019a08f7c4caec1ed0c7abfc'),
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
