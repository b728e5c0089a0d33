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

The bbll cases were re-pinned again when the <B> and <iL> ladders of the
periodic encoder came to saturate: a rung grows only by an operand literal
it does not cover yet, and is the rung before it otherwise, so a long
ladder has far fewer gates. Checked against the parent commit first: every
case lists the same candidates in the same order with the same verdicts,
and the finite 6 entry did not move. Entries whose encoding reads no
saturated rung kept their digests. Each entry now names its candidate's
domain as well, so the sequence of splits is pinned directly.

The finite 6 digests were re-pinned again when the grid engine came to
fill an <iB> row with one ladder from the row's end instead of one
disjunction per cell: <iB>, and so <O> and <iD>, which are <iB> under <E>
and <iE>, are now chains of two-input or gates, one new gate per cell,
where each cell had its own define_or over the rest of its row. The
formula has an [O], so its gates changed (78 variables and 149 clauses,
from 78 and 153). Checked against the parent commit first:
tests/test_golden.py and tests/test_finite_certificates.py pass
unchanged, the case lists the same single candidate (finite 5) with the
same verdict and certificate, and no bbll entry moved, since the periodic
encoder does not run through the grid engine.

To re-pin, print the current EXPECTED dict with

    PYTHONPATH=src python -m tests.test_cnf_golden

from the repository root, and paste it over the one below.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hslogic import sat
from hslogic.models import FiniteDomain
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

# per case: one (candidate domain, cnf digest, solver digest) triple per
# candidate, in order. The unsatisfiable bbll cases list the splits
# (pre, per) that sat_bbll refutes with the solver: the ordered prefix, then
# the maximal splits by ascending period; a split whose goal folds to false
# has no entry.
# Every entry is one the full ordered search over all splits also produced.
EXPECTED = {
    'bbll <B> p & [B] ~p': [],
    'bbll <iB> p & [iB] ~p': [],
    'bbll [iB] p & [iB] ~p': [
        ('periodic 7 1',
         '27a5205d098ba7b2de97fa8bae2829481fa93f987cd7d6ac0a6db2c82d1e54fd',
         '63eb3401f4150d5a475778a37aa57e78b1c404aae85af26f1cf67c40fe727916'),
        ('periodic 6 2',
         '7df0ea641d70835f74904812a83e732d9c672ad70a808cc43094f46a41bce1c2',
         '9c8de931f1d6979c2b897dcf9764b6d27114de9ccff8beafa6402b61d635fee9'),
        ('periodic 5 3',
         '3e14ba7137e68d44bafe08e2d5657bd27be1446afaa6edc7aeb3b6dc589c0334',
         'ed3886cebd12d2b879d04319cff15d502be474128c51032ad59fbcc0d08c9d3d'),
        ('periodic 4 4',
         'a76012882399d12a9340e9e2612251e11bea77dfa0a49f8e523318a9c1ee4a28',
         'c20e5cad4e08c2f7acb98201c2c999559c1ab8c60a125317ce7a048b9f147fa4'),
        ('periodic 3 5',
         'c9e3fcb5d922a13881b56d786a0b0d2061f6fbbf36d49289c70848bca86476fa',
         '036dfe629ee64d962eb809e8359f9a0bcdda558feaf3c5980c54b0c088011549'),
        ('periodic 2 6',
         '3ca0edf722bcc8c842936118995d65083a728ce34032a1b2eff2b8cda48d5648',
         '66f500a4bed77e00996cb4ac19bb050bb46a0826f20616badb991a87dced6c93'),
        ('periodic 1 7',
         '5e15e75ff7aaf1e20eca78d6e4d8c2a7466fcdab3b478abe6aa1109438536ca3',
         '226ef10f7f3367f139423890fdbb7ed8a74c990d78bd2204d4c9545fb4dc03a1'),
    ],
    'bbll [L] p & [L] ~p': [
        ('periodic 1 2',
         'd00779480e7f66c7508ecb7ed2ba765ea75c94f735ece75a739dc960afefbceb',
         '65adac3b831d7bfb80e836d3e9d4c64bdb792463cd09ecdc8e4dccacb5ad982d'),
        ('periodic 11 1',
         '207d22d570c4e5be619a1d82d184b8a487c58fe271fcf09cb1b4ade9ba71f0f2',
         '1900e8132069e98898dcbadc9af9d67dd0a3dd1218430eac316552777ac03102'),
        ('periodic 10 2',
         'cfcb6074c6f2c4586a75f33766ed1b79e6e84d3c3017fa1b322f56eab27d395b',
         'c801b0a0dcc55fa3e7ff3bd8c59194e1a5e0fde3dfd9d8e07e1b03a1333ab26a'),
        ('periodic 9 3',
         '3b64966a6ebf63718201a2d7dc4894fef978d8b760f808f8a00870f983ea289a',
         'deea4d170a15b28cb84d782a43858bb811351df3b5b79130db044c713decb463'),
        ('periodic 8 4',
         'e961732c12376bd6cb4593ba2ec94818a105e315554e7da9359913ea38d4eb2e',
         'd3f36164b9a84ef2895eafcc24e5f7446ea824b5ae6d7505e33e846c478778f2'),
        ('periodic 7 5',
         '9fc8d1f5c253ce4ef95d76c2f6aebe2fb3e4043d920a9046b4841e4c9a84a0ce',
         '4af8705e2d4d1c53126d6f61211cd9fdba4798bae871eb7fc761850922f845a5'),
        ('periodic 6 6',
         '95dff1f3afa20890c475f2abd5022bb4469b970a9e89ca382cb40ee7de45df67',
         '14aa758fd8a07024bb76c3e2695a6795d31c74fa4fd4a86e749bfb36f7ce29d7'),
        ('periodic 5 7',
         'e6747c5e1430d28517eaf7a1cb79834b9caf8e9e2c95a5e8268cb2e8da73acfc',
         'd9bc9187f4339f9624c590cbb2f19b0febad4da79172ef4ae5d7be046465c09a'),
        ('periodic 4 8',
         'fcce28b97a2c42f2228b6b7c892c7304e9cbc5f79a39b092c7479474a7de402d',
         'f302430e18d5a0cb462b605fa85043038569fe3b2546c66422b555532e492910'),
        ('periodic 3 9',
         '2686b88990d9dec5b9118a9ef411572a601d00b3c6f8d893c535c7ca447c5bb7',
         'ebfc0beab270af07332831eba43468fe4430a58336a3c8cbdf498fc798167aa9'),
        ('periodic 2 10',
         'a4f10be8e3bfb3f024a4cad5c9120503292dd94d00b38ed0a2e383fbd4ab67d2',
         '896f7caee21929cb7f8c166b3f767f3523181d91147a73519a2f0dfedfd31472'),
        ('periodic 1 11',
         'f2401afa4c47f2616eb68aceee5c8965d0b550fd63587ea54ade079fd18d3c56',
         'ac90270678c9f78523b3df6adb85ae2dfe693c8dfe8bd246adb8b877645b43d4'),
    ],
    'bbll <B> ~p & [B] (~p -> <B> ~p)': [
        ('periodic 7 1',
         '90af1822b3daf2289f2d444f4b01152bce939f07f4d240d11ce1334e80752c30',
         '64ff766d374f9250c8c4d4ced9e30ff8f2eb3580b7486d13f9a37ac36f767336'),
        ('periodic 6 2',
         'f2e4b69fa0d9f4ba6a2dff9301fbb65652fd3c2521b32e2b1fbc516fd31b86d0',
         'a784c6f4e0e0f43c1785b7aa03354798edfd51542bb4ad9e542a7cd17518c18a'),
        ('periodic 5 3',
         'a8f25cd034e6323b4e0bce4d8b03d6263b914850661dc77a74e90baa1d504606',
         '8627646c926f6b1c53df9d5a7d53d5aa7c67beebc7759e8b5b2efa41ca98fe45'),
        ('periodic 4 4',
         '4b803d6603445f0a01a72b626410d0cabb37f1668e9e6d6d8e75e3df0383ea5a',
         '7af7e504fd3ef4ab02f4c5a73babe24ab65f4874dd50feb15e3a707a56bb580c'),
        ('periodic 3 5',
         '25a9de9fa4edf9aac6a0e04529118d8f47dcb9129c909ce6d687a4a49a5b37f7',
         'ce892509918862a2dff2d8ec0e2bd51a85998bbad7bf008f2cc417995b72af71'),
        ('periodic 2 6',
         'f9c5fb2cbe2fd3c0720ba4d41b0309125239cc6c910e22cff12ac405bae368bf',
         '5a11114843b854ecc438c0b8ce4c2d5ecdcaeda8b9f4f4e96c87b93f70d08d94'),
        ('periodic 1 7',
         '82e916f45726597c0aae5d2ef2c52f499c050ca921635949a292a3f538ce5224',
         '9e596bc8c871783445933ac3c452bec5d7948f56d3c658604ee07a01fb12d4b3'),
    ],
    'bbll <B> p & <iB> ~p & <L> q & <iL> (p & q)': [
        ('periodic 1 2',
         '6116267ded4a5b21442f0460af94fcc57d25759f7ed5737bc6ec1b977c444f1c',
         'f575dacb29959b9a1e4b291de09b64676c74b00e5b273f6fedefec8107ac22e1'),
    ],
    'bbll <L> (p & [B] q) & <iL> <iB> ~q': [
        ('periodic 1 1',
         '33696b8e0ee76acc261280856bae9feb7cac435780844c25941387aa44000f9b',
         '9e125f7a002bc0448a61a9f71c6a6259b3c051dc373dc42da785bacaacb6704f'),
    ],
    'finite 6 <A> p & <D> q & [O] ~p & <iE> (q | <iA> p)': [
        ('finite 5',
         '727761899e7a520369f0b76b16b75c60def5832ca09f582de2dbafe61af3193e',
         'a216ba4c7c58be232b9e93c68361a631467671375deeb6243b44cfd2f82ea555'),
    ],
}


def _digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def domain_name(domain) -> str:
    if isinstance(domain, FiniteDomain):
        return "finite %d" % domain.last_point
    return "periodic %d %d" % (domain.pre, domain.per)


def _run_capturing(monkeypatch, kind, text):
    """(candidate domain, cnf digest, solver digest) per solved candidate."""
    runs = []
    solvers = []
    candidates = []
    base_solver = sat.Solver
    base_init = sat._Candidate.__init__
    orig_solve = sat._Cnf.solve

    class RecordingSolver(base_solver):
        def __init__(self):
            super().__init__()
            solvers.append(self)

    def init(cand, *args):
        base_init(cand, *args)
        candidates.append(cand)

    def solve(cnf):
        solvers.clear()
        (cand,) = [c for c in candidates if c.cnf is cnf]
        cnf_digest = _digest([cnf.nvars, cnf.clauses])
        out = orig_solve(cnf)
        (s,) = solvers
        runs.append((domain_name(cand.domain), cnf_digest,
                     _digest([out is not None, s.clauses, s.trail])))
        return out

    monkeypatch.setattr(sat, "Solver", RecordingSolver)
    monkeypatch.setattr(sat._Candidate, "__init__", init)
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


def capture_all(run_capturing) -> dict:
    """run_capturing(monkeypatch, kind, text) for every case, keyed as in
    EXPECTED."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        out = {}
        for kind, text in CASES:
            out[kind + " " + text] = run_capturing(monkeypatch, kind, text)
            monkeypatch.undo()
    return out


def all_runs() -> dict:
    """Every case's runs, keyed as in EXPECTED."""
    return capture_all(_run_capturing)


def format_expected(runs: dict) -> str:
    """An EXPECTED dict of runs as source text, one tuple item a line."""
    lines = ["EXPECTED = {"]
    for key, entries in runs.items():
        if not entries:
            lines.append("    %r: []," % key)
            continue
        lines.append("    %r: [" % key)
        for entry in entries:
            lines.append("        (" + ",\n         ".join(map(repr, entry))
                         + "),")
        lines.append("    ],")
    lines.append("}")
    return "\n".join(lines)


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


if __name__ == "__main__":
    print(format_expected(all_runs()))
