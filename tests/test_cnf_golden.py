"""Pinned CNFs and solver runs of the satisfiability procedures.

Every candidate CNF that sat_bbll and sat_bounded_finite hand to the solver
is captured by wrapping _Cnf.solve, and a SHA-256 of (nvars, clauses) is
compared with digests taken before the encoders and the solver were tuned
for speed. A second digest covers what the solver did with it: its clause
list after the run (learnt clauses included, with each clause's literals
in the order the watch scheme left them) and its final trail. Encoding or
search changes that keep verdicts but move a gate, a clause or a
propagation step show up here first.
"""

import hashlib
import json

import pytest

from hslogic import sat
from hslogic.parser import parse_formula

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
        ('2a636194b32abd826851cf457c35b1cbd14381742e689951992ebbbfe96aebdd',
         '6f0740d553c3e79edf97dde21a5b4a4255bfd503dee75615df91a19d9e704b5a'),
        # (4, 2)
        ('925b7840c2233a89769d09270e59e457df0b0fed0545f9739252e985a23f7bc0',
         'ba5d81b4fe422748f3506d4668edbf834a525d284f3e2ec5c5709da78f23a602'),
        # (3, 3)
        ('18e6416fa45fcc6066bca30c2524c7be8e2d0ff38cce9fa4047f93489d299ab0',
         'bdc568bf004762f4a483a11c353fb5c5b9c55156f939cb9e7073a8c065dadebf'),
        # (2, 4)
        ('b35fd2fdffb5ffc09d634fc225988de6a142248979a8f09004e93a233a53884b',
         'd0b5c1df8f6137a66a9be478cba31506bd05d01cc21c41fd339389395c5a0662'),
        # (1, 5)
        ('abb6dc0d3f626e87ce211987f1a681a8baa585d32ed0df3569b01ee933c94af3',
         '0b2f0b281cb4ef813be03bfbfe24336a3e46b1977b004e1fc58052cccef80e34'),
    ],
    'bbll <iB> p & [iB] ~p': [
        # (5, 1)
        ('bb5dd00e6e0f68bde1e7a6be1d38f84cae6ccb0a7473336845324fc5799e5ce5',
         '7a9c63f8661a84607be8d5913bb0f2752217da2a2ebea32088551e6c561c18e1'),
        # (4, 2)
        ('102a135a2326c5528277f8602ee07cddf13394dd26b47c9f76da7da7827bd6d0',
         'a7457f486359a608230192caceaba8c6ae817324e5ca1659ed67a9f2db58d0a0'),
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
        ('d703ac59de530a9f27c4c6ce2350f85e5e9f9401a7feceae07368aeecf6f12f5',
         'c61aacf2a0376e466897c719e48251a03c41adbae3bdf596ea72fd1928cbbc91'),
        # (6, 2)
        ('5db6d7907f16c9fbdf965dedbad1aceb790015c892cd32d6e532f5a23490a65c',
         'f931ccbd2b6ceeb43c41a0f37c7e17e6f67bdf822850953f9c2af407a94cf730'),
        # (5, 3)
        ('69d134f2012defb87130b66d6862ee07a1cc54d7ccb2b7dc7bf1065ca90b6416',
         '83684d45c3bd86a1fcd1ca074e19cf8e2129586341f735838c229cd65d764a1d'),
        # (4, 4)
        ('a3054caeeb7bdd0807f1e54da37c5970820bf37419873e9421826f13db7a482e',
         'db6129d370b7bd45e0abdcfa0160353e3fda16f97a838a9ef194154a1fe58cc6'),
        # (3, 5)
        ('70b441dbf441c2239a3be1390e6a5f44cd44bbfe0089a0668d9da41cd3810a29',
         'e7fae3714a5c73cd1486fd25fe32b79fdd5ce88e738bfcb26e24aa065a4cac5b'),
        # (2, 6)
        ('55ab2fbec9b5c04c686019697042557aa6bb14a4ab8b7b07bc6cdec6b43dccda',
         '8824e6b255ee8d769d78d8dce164e2b9df020c4953cfbea2bdf1111bd228f6f6'),
        # (1, 7)
        ('5eee7d5695e9ee2378c1668bc2f7c283cc16200815433c0281841a628c1edb8d',
         '7bb11eca81348d70e4062ccd2bdf8e1abad13e31f9bc19234b05102e5cda446c'),
    ],
    'bbll <B> p & <iB> ~p & <L> q & <iL> (p & q)': [
        ('ddf21e38830bc9405937bc39214db352d4270f497befb7799c47b8a2bbc5092d',
         'a8ce801f992d65d389bb3b452aa3c1ab0db4563945ab4b46a9dbf96397512e96'),
        ('81cc2c849995585b00849c55e70bbf5e89a3ae141141a98c6e25657ddfd5ffbe',
         'f4cc36ab35b34e96a4a8ad2d4d6c8f25c53ee61d2a8e03b72b057ac2e0da2f47'),
    ],
    'bbll <L> (p & [B] q) & <iL> <iB> ~q': [
        ('f9417ef946b95e61d76b40f713c75e63919dc92f77532a68d73b3eb0ff661684',
         '965622d6e7ec1ca4a7ee5467e315d0086c44682b3bdeb9623cd3f8ae4b227627'),
    ],
    'finite 6 <A> p & <D> q & [O] ~p & <iE> (q | <iA> p)': [
        ('1af7a20d20dddf0302538fba1d4d52d6936642d06845a7da6671107a85cf9cc4',
         'e172b0cfb013261fe8dc451f6c583e06bf7cb8d3b37022b683d4d0d621fcffbe'),
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
