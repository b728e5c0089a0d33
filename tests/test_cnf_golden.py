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

The bbll cases were re-pinned again when the periodic encoder came to
keep one literal per periodicity class of each subformula, under
thresholds it derives per subformula, in place of a window cut at the
model checker's caps, and to encode phi's goal as the disjunction of phi
over its own classes rather than <L> <iL> phi at [0, 1]. Fewer cells are
encoded and fewer gates made (the (1, 7) well-foundedness candidate went
from 437 variables and 1,243 clauses to 417 and 1,081), so the CNFs
changed shape. Checked against the parent commit first: every case lists
the same candidate domains in the same order with the same verdicts, and
the finite 6 entry did not move.

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
         '71dc8023a16d19b1fad2966fcaccd2832e9774aca529cd55ca5500613b48d4dd',
         '1729a6108a901df16efb9dbf4eafa3c150b7d5a03fab6d5657a7a1b0a2390906'),
        ('periodic 6 2',
         'fd3d7cc21bf880ba4d18b80b69d4ae6308d5f0b8689f74afa4e57e5d0541f6a8',
         'fac8fc9e3751a0194007b035d8d85b0ea5cb8b0ccc856b142ddb41b4a7a96f9f'),
        ('periodic 5 3',
         'ec635a55c0d91ea426f85d49185ce9afd123453f36eb4f39c99e4cb50dbca0ef',
         '8d09286592894cc9f9135d55c308d5c10870a6bd93f5033ff47b3d036654c8e6'),
        ('periodic 4 4',
         'a6b5bbf3a603332c4b7b68d37a80b79e668ff24369634328519cecb115330b6a',
         '4e78575fba690922fd413b136eecc2924c46f4c9e1a8a5a1e519401f5d5e612c'),
        ('periodic 3 5',
         'b0169c1ff051ef00d68bd11a4c6e91ccd7ace7752b0bebcd339e6637b61de0c4',
         'c4b066110a64786b1a9d24d4496bcc943aa59c709b5c075ce9dec50d425c70f3'),
        ('periodic 2 6',
         'f00c2b0515d063d3ebc4ae38bf7538cb01f33c2ece196edafc93f9fdd091adc3',
         '136d36ed452b7f6ac793a4d5b5d6a95506dbbcb19ae9f8f02f809a8514d994ed'),
        ('periodic 1 7',
         'b91cce400d883764711e0a7beb962033e7eef6c58426721abf101c14fadec78b',
         '99b86c395532837c71bb662cafdfb11039677514376247e2c2c1e7813c423412'),
    ],
    'bbll [L] p & [L] ~p': [
        ('periodic 1 2',
         'd00779480e7f66c7508ecb7ed2ba765ea75c94f735ece75a739dc960afefbceb',
         '65adac3b831d7bfb80e836d3e9d4c64bdb792463cd09ecdc8e4dccacb5ad982d'),
        ('periodic 11 1',
         '1612e0303c3d980dcb79a7d6b4f01560ca221bb0ebcd77fb39e15ec20f38024e',
         'dbb93fba72803d819bebd325b1b3ed71ddb418cb82037f5230aeecb67d57ae1a'),
        ('periodic 10 2',
         'fd2d31c560ae669c7d7ae8804dea14ba3562307bb96267b88a60c05498fbf65f',
         '82ef7b3449095897d8e007ffe7854aea5bc7fe9796bbbd78e9cfa347726debe8'),
        ('periodic 9 3',
         'bca19eff2059adba43e953b665f10eb3ea59d7f239de7adcb202f93504146a9f',
         'b4f256f0214747c74340a0482ecfefa3ea93e5f182aad7c549e2c09c1ea631a8'),
        ('periodic 8 4',
         '2dd28801f07776ed4ba85aab87694ef266006ecddcfc8c26a2fa606c53a0b85c',
         'e6b9ddccf83b66f1f19beeb3ac8d3fe5083303cb23bfcdc07ff12de87e0ac09d'),
        ('periodic 7 5',
         '11df2f60df179a81b7f4a7c3fd5672ba11bf91426fb70564b94e880b80ac4551',
         '21fd6b4f000309003d20a4c8d9d7291240c82b15f579ec1b950f74ee6cd07ec1'),
        ('periodic 6 6',
         '5306c42dc0938631096fa01be72bef9b07e0bb592a089803dbbb88a7d7d3444f',
         '91853b62a80be1621f7d4b51c1f8bddb7a09ba8ac5525e6ad2eaa80825e78e2b'),
        ('periodic 5 7',
         '6c9eeedfa8e9018203657cb72a3b931dad7a017862ad8cdfe96f1e7a6aaf3bd5',
         '56f26e5af60e2293660dd5a6b0391aa4f9afa71f26b89d90ece110031af3079a'),
        ('periodic 4 8',
         '066b3b08bd333fa9c19d513651dc0e624a2a2915b10809b69b81b999167a4932',
         '2921864dc4c6a0fe2ddb3618a59f277463ad96168406611d98da0a5dbaeb2cfb'),
        ('periodic 3 9',
         '2d92614d486bbe5b2a5c931a0eeeab64c122609416dfab03977211e625fb67b9',
         'a6a8f88144bed488c8ff7f8a5b4871ea853a132a79423a012aff25574d5c66dd'),
        ('periodic 2 10',
         'a4f10be8e3bfb3f024a4cad5c9120503292dd94d00b38ed0a2e383fbd4ab67d2',
         '896f7caee21929cb7f8c166b3f767f3523181d91147a73519a2f0dfedfd31472'),
        ('periodic 1 11',
         'f2401afa4c47f2616eb68aceee5c8965d0b550fd63587ea54ade079fd18d3c56',
         'ac90270678c9f78523b3df6adb85ae2dfe693c8dfe8bd246adb8b877645b43d4'),
    ],
    'bbll <B> ~p & [B] (~p -> <B> ~p)': [
        ('periodic 7 1',
         '1244862e14a667559a59567cd23a1913374bcf75e6d7e64f1bcd871a772f6c86',
         'f5617201134369d4c74c9fdd89adb820de341cb2847fd5c8a013f609df2df370'),
        ('periodic 6 2',
         '2a615a26a2e11fe2e8bd75e793d7d0dd693651a3ad10b789031b0b1869b4d650',
         '6312b26764bc2f9c72b1bb47dd76aa24ecbbfb7c68b2c94b23d2cd6a2042243a'),
        ('periodic 5 3',
         'abcb91bb01601decb4fb26d0e2bc0e5c756a52e9b53030079b298fa4b3aa0430',
         'c28185373f5e60e1f70c5d5883a3b39039717513f2ba5939fae27872fb737aef'),
        ('periodic 4 4',
         '1b7a677457adaf7630ac3f1111e744e7787627a7f015e36634159b6c001a0ae3',
         'a2164435fa42e4faec733f3fff351ef9fb3fba4979ce46db6b493eb259a89ebe'),
        ('periodic 3 5',
         '404a0bdda5a8b9c13ab00b7af00e7760da7459d089da7687f5148019b34ebb7b',
         '8253873256659e959ec505471a1088899b38adf0c42849735181ba8722945338'),
        ('periodic 2 6',
         '36a3062839fedf12e99c28f46772210b601fe0906c0c75e1e0ea33a872380888',
         '24ab3d67e198f731215cc691a27dd86afc9d9d90ee2922a2cfffbd9c3dd16bb1'),
        ('periodic 1 7',
         '63b6364fe3033f15f0f211c61575620e2b8ed6c5dddcc8aa213336a970499d9c',
         'c306c29c1e48d64a7243f1d9f485f5eefd7c12abaf4095648a5d1f0127424401'),
    ],
    'bbll <B> p & <iB> ~p & <L> q & <iL> (p & q)': [
        ('periodic 1 2',
         'e24c4ffafec3ba2d2166e4f4ac3c4690274d1c6bdac333705218f7bb736e2332',
         '5107c835b0c7420e537a94f60cc329fa920a03fd10a29fdce436ef60ff5437f1'),
    ],
    'bbll <L> (p & [B] q) & <iL> <iB> ~q': [
        ('periodic 1 1',
         '49217a312e0a8254289e8809f3014bb56a4782000aece761c50c7f91f25eb2e0',
         'bdad917dc610b55eba43ee2d09e684122cd371aec95ecf4f45cd143b9e65f0fc'),
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
