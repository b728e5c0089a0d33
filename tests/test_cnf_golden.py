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

The solver-run digests of the bbll cases were re-pinned when the solver
came to probe the goal's literals before its search: each literal is
assumed at a fresh level and unit propagation runs; a literal whose
propagation conflicts is undone and its negation added at level 0, and
probing stops at the first literal that does not conflict. The probes
move watched literals within clauses and put new units on the trail, so
a run's clause list and trail change; no CNF digest, candidate domain or
verdict moved. The finite 6 entry kept its digests, since loading its
clauses assigns every goal literal at level 0 and nothing is left to
probe, and so did the three [L] p & [L] ~p runs that loading alone
refutes, before solve() is called.

No CNF digest and no solver-run digest moved when the solver came to store
the clause lists it is handed instead of copies, to check their literals
once per run of clauses between units, to skip the replacement-watch scan
for two-literal clauses and to undo a probe in place, nor when _Cnf came
to key its two-input gates by ordered pair. The CNF digest is taken before
the solve, so the literals the solver then moves inside the lists are not
in it; the solver-run digest, taken after, is where they show.

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
         '63cba5db676215059314bfe239eea3f91038fa125547f40b3a832e6b8f25a746'),
        ('periodic 6 2',
         'fd3d7cc21bf880ba4d18b80b69d4ae6308d5f0b8689f74afa4e57e5d0541f6a8',
         'b64f36a6ac0b11139b63ab3ae57bb33aabc99c2f1704d4d00171e5bfb6820770'),
        ('periodic 5 3',
         'ec635a55c0d91ea426f85d49185ce9afd123453f36eb4f39c99e4cb50dbca0ef',
         '172beafbf4f113c30289ad95682c9e6725510b61060694a663d953ce97996202'),
        ('periodic 4 4',
         'a6b5bbf3a603332c4b7b68d37a80b79e668ff24369634328519cecb115330b6a',
         '61f6e41be4d3ccdbd397d7e1201644f3b2bc3cb047234be439d9a3239ea613fe'),
        ('periodic 3 5',
         'b0169c1ff051ef00d68bd11a4c6e91ccd7ace7752b0bebcd339e6637b61de0c4',
         'a56670e369002f5bc6b7aeb0dcddb5999b3c23742ca1c9e61d1d4bb037a454dd'),
        ('periodic 2 6',
         'f00c2b0515d063d3ebc4ae38bf7538cb01f33c2ece196edafc93f9fdd091adc3',
         'b4c23aef80acc2443a1d403352caa52fc838eafef6cdd8fc71aa3d0cbd7145c2'),
        ('periodic 1 7',
         'b91cce400d883764711e0a7beb962033e7eef6c58426721abf101c14fadec78b',
         '848d419441002ca26ef5d0441e613a64871da08c553c380cf4e754d71a9dfe56'),
    ],
    'bbll [L] p & [L] ~p': [
        ('periodic 1 2',
         'd00779480e7f66c7508ecb7ed2ba765ea75c94f735ece75a739dc960afefbceb',
         '65adac3b831d7bfb80e836d3e9d4c64bdb792463cd09ecdc8e4dccacb5ad982d'),
        ('periodic 11 1',
         '1612e0303c3d980dcb79a7d6b4f01560ca221bb0ebcd77fb39e15ec20f38024e',
         'e7a81359b686a27401d7267bcaaf727224a2941b042a5e1d3d29b0f4f29bff61'),
        ('periodic 10 2',
         'fd2d31c560ae669c7d7ae8804dea14ba3562307bb96267b88a60c05498fbf65f',
         '649909a3ecf4b934ff3298e742daa8780d54719e603f32f6cb93f1784c34a9cc'),
        ('periodic 9 3',
         'bca19eff2059adba43e953b665f10eb3ea59d7f239de7adcb202f93504146a9f',
         '6109ad82d7026f520cd389c28eaab374932315ab6fc26c1639a87903dc8eb5c8'),
        ('periodic 8 4',
         '2dd28801f07776ed4ba85aab87694ef266006ecddcfc8c26a2fa606c53a0b85c',
         'feb070e45cca140557b4162b4ca628080389ec3dff59a740c297784b339bb91b'),
        ('periodic 7 5',
         '11df2f60df179a81b7f4a7c3fd5672ba11bf91426fb70564b94e880b80ac4551',
         '00172dc3a462ef760f1e2ece69332deba8ae9ea84aeeaf1e8a08c4faec465da8'),
        ('periodic 6 6',
         '5306c42dc0938631096fa01be72bef9b07e0bb592a089803dbbb88a7d7d3444f',
         'e3b7194b4d564ecaa4799913b94817a9dafb6827fb7fc6de7972e8f7af975bfb'),
        ('periodic 5 7',
         '6c9eeedfa8e9018203657cb72a3b931dad7a017862ad8cdfe96f1e7a6aaf3bd5',
         'ede7c81946fc2c6376d61dcf3840868a8f8c7e1a76bd59d69dee78ad3d2da51e'),
        ('periodic 4 8',
         '066b3b08bd333fa9c19d513651dc0e624a2a2915b10809b69b81b999167a4932',
         'affa43ee71a9eb81417f5f34842be78f40b4a4fa7cd7ab9e02dd37d9dd23faae'),
        ('periodic 3 9',
         '2d92614d486bbe5b2a5c931a0eeeab64c122609416dfab03977211e625fb67b9',
         'b1f72517ec7c1f1ac934712abfd6491cf2ffaab72c916b5a31be53de819822b6'),
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
         'bf3ca2a19cb2c7acd5717733f00139bce69409de229052795dc7d1278eff8aff'),
        ('periodic 6 2',
         '2a615a26a2e11fe2e8bd75e793d7d0dd693651a3ad10b789031b0b1869b4d650',
         '7e661ea24e6c9f131707abbe0c18ce13b080981ffd1f1deee52099d5ae8d748e'),
        ('periodic 5 3',
         'abcb91bb01601decb4fb26d0e2bc0e5c756a52e9b53030079b298fa4b3aa0430',
         'e6dff93443b191c3a3808f3f84ae8af586c7761e947468a85a73389c2476d16a'),
        ('periodic 4 4',
         '1b7a677457adaf7630ac3f1111e744e7787627a7f015e36634159b6c001a0ae3',
         'fc0559ef435271e916c65f3d71cf8795c8429e21630a28c40d2c6bd9d139b45c'),
        ('periodic 3 5',
         '404a0bdda5a8b9c13ab00b7af00e7760da7459d089da7687f5148019b34ebb7b',
         '189cb0fe8cc436beba8c701dfcff7bf9ba3165c78e1f7a1b166821b8c7da9f0b'),
        ('periodic 2 6',
         '36a3062839fedf12e99c28f46772210b601fe0906c0c75e1e0ea33a872380888',
         '611dee369c14e3edc55606c3693def2a8c2d3f70c4b7f5bacad300310e894a98'),
        ('periodic 1 7',
         '63b6364fe3033f15f0f211c61575620e2b8ed6c5dddcc8aa213336a970499d9c',
         'ac0b3f588bcbd67f800c2fa0cdd7c98e5b2a87885202268307bf8fc9bb2baab1'),
    ],
    'bbll <B> p & <iB> ~p & <L> q & <iL> (p & q)': [
        ('periodic 1 2',
         'e24c4ffafec3ba2d2166e4f4ac3c4690274d1c6bdac333705218f7bb736e2332',
         '7c8eb84298ca5ba7796c3c804d1dc90c513d135ae6a3ed2467970ea181e91981'),
    ],
    'bbll <L> (p & [B] q) & <iL> <iB> ~q': [
        ('periodic 1 1',
         '49217a312e0a8254289e8809f3014bb56a4782000aece761c50c7f91f25eb2e0',
         '8eda15909355704c2ebd3cc0a1dfaf5e65aae7a48d886f0039b3c2ce95cea584'),
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
