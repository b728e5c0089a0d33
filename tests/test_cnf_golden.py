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

Every entry was re-pinned, both digests, when _Cnf came to lay its
clauses out for the goal probes. The goal is one clause with no gate, the
folded goal literals last cell first, where it was a gate over them
required by a unit; and a gate's clauses list its inputs before its
output, [a, b, -g], [-a, g], [-b, g], where they were [-g, a, b], [g, -a],
[g, -b]. So every CNF digest moved, and the solver-run digests moved with
them, since the watches and the trail follow the clause layout. Checked
against the parent commit's EXPECTED first: every case lists the same
candidate domains in the same order with the same verdicts, and the
results of sat_bbll and sat_bounded_finite, models and witnesses included,
are unchanged.

The two cases whose root is a chain of four conjuncts, the satisfiable
bbll case and the finite 6 case, were re-pinned, both digests, when both
procedures came to meet a root chain's conjuncts in one n-ary and-gate
per class or cell instead of filling a two-input gate for each link of
the chain (checking._conjuncts). The links' gates are gone (the bbll
candidate went from 53 variables and 124 clauses to 41 and 108, the
finite one from 78 and 149 to 72 and 133), so the gate numbering and the
clauses moved. Checked against the parent commit first: both cases list
the same candidate domains with the same verdicts and certificates, and
every entry of one or two conjuncts kept its digests.

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
         '82c4e38248d302a2382c4197421f9d3a7a342f1dbd1083a1871ad92c03a384d1',
         '7f5065b00bfb95adff126c642cbe9ceffedb2bce6367b2733b76c257f1e8ff6d'),
        ('periodic 6 2',
         'ed01c51f98504217e9a81f672fa60aed05576a7e136bfd46701e1a71ac8c5746',
         '9140c8c26dec3ec527437e3181e51e512f3ceed573886bb80cb83e3f63107084'),
        ('periodic 5 3',
         'b90ac57e44fce264b8472bc050b5f28a5543a1e59ed24915bf59632fd5eafc94',
         '939e8ca0e7a106a24f6fcfa7a3ef86036a87489c0ed89123536e21db4a0cecb1'),
        ('periodic 4 4',
         '3063396898643deacdf324d03a5b79652229e960c8fbee2e5213f4eaca5312e5',
         '3b6f312493535c451452ce6427d1f360bfcd57e3eaed8139215daac42f115a51'),
        ('periodic 3 5',
         'cff8f94a5a3cb548ebe8dd524311b39a5bc95aa68506a9780a62870665f723e2',
         '17f6a9b11255bee4d4538b7b8f0f1f639a99488d7e82b350679bba3d801f4137'),
        ('periodic 2 6',
         '7cfa63317f0b18a587488d74a0c0b23024e854cc5d7110ab62229e659e08eec3',
         '41c3ee2e7620305c1018d28918535deea957564e9b1ca362313ee51aec7c4edb'),
        ('periodic 1 7',
         '63b3a1bf588e831797c6086b0d1e9bf1836447c0514ee585ec4dbc9389b5f9c7',
         'f748f7f2518a94dcf7a70e288ebf2d74defa4852372b7dc2b425606e87c4d315'),
    ],
    'bbll [L] p & [L] ~p': [
        ('periodic 1 2',
         '9324938668c2021e7cebc88da2eda1c633e12168ee41289a436c30ab38d515ec',
         '032bd63b1e6580fe0ad835607115f11128a1faf4a8511c7e13a2640f3c394cfa'),
        ('periodic 11 1',
         '030ad7ab2a464e69b31b6a499da935986d277aea2e62fb7f60c21fcbd7318a52',
         '8a963d36d3c97d791cd7a67f1482302d3e2ecd58c1f37a90bd27012104ec21eb'),
        ('periodic 10 2',
         'bd3948f1af8029255b1ff1af9014332a3efbbf8b95cdc9d61dcf00b8030518a8',
         'c67af116df91402e52e407c75dc0cd9a68b9ce5a5bf950d95cf8e4a3a6a0a9a6'),
        ('periodic 9 3',
         '63bebd16dff637f61fa37741da6e2afc9fc8b9a769ad2f916a34c0ecea5f1038',
         'b2f2e769a8999b80060601ebaeb4345703ebda96103dcab62548d487e42f3842'),
        ('periodic 8 4',
         '3cde2c2ac70a4c915ea8ace06e50141b3347564c9e1149cabb3d07ca04ef1125',
         '4b001019dade554b8a87e2fb286a94ce84a12b776582a14b77bb8a5d0f56c062'),
        ('periodic 7 5',
         'aad743c1f58586c878ad67f1f32f351d361fd7680eabe52760ec439efaed3172',
         '01ede3ef243d2cf8a44f1e23622cf81d863df0ebe1225a4b4713f5e7a56de1a1'),
        ('periodic 6 6',
         '8b4e4ee692e438876dbb23964001bfa6fa30663b42cc20cf2487676975a4cf02',
         'abb61cc879917cca0ad96fff1907f958a812f92b29aa0320e399c5004e84675a'),
        ('periodic 5 7',
         '5135d903082b37e960cf9ea062d600151257f89ccd57800f1f4cb2151a4f80fc',
         'b5a71fb6bba84811814f3a76716d7ee5fa2551e2d7fa2cdcc82135ed8cb7041c'),
        ('periodic 4 8',
         '7ed0de253437e11fabdebbc7e54f73166edb3edd22fa263945225ca8cb3f2db4',
         'c1e8960a7f97766dab3f8e83de5fc6fa2bb26c1bde46d6a4ac8e9f4224e825b1'),
        ('periodic 3 9',
         'a18cd9c8d91be9588ae08be7d9a2d654ce3c8275645bedff492c9a41a07c67cc',
         'b9ec61957a63e96f3cc5eab4e28511f4696787ece141ffc785696f224ce36dd0'),
        ('periodic 2 10',
         '49326dd6043d1a7e6a99df6a3424d993c1c279d2b93cee68e4fca1b746c5d9e6',
         '37b9a7402a4a389d593b6ee80e6e3ea8e1c9f025aeb4bb68e04c0552e8db374f'),
        ('periodic 1 11',
         '3cdb2c94438d7b92f85a1717b665733c238a4965f17285339100f82594c3a199',
         '8f413bb76f1b567972b022cfcb0bebfd9d946fa269548b63a8f7363e233c9739'),
    ],
    'bbll <B> ~p & [B] (~p -> <B> ~p)': [
        ('periodic 7 1',
         '20eb8c613d53a2c8b5672cbfcf22eaa687ea7eff20b8cf29c1681b87f84a7386',
         '7a9c56430caf31f2342fd64cf330774fd15aacd3120ba6d910c736487f5165e0'),
        ('periodic 6 2',
         '92f7faf528ce3f00935b2e52cce72089643c076f12ff086ea0cf6f8d94b22cd1',
         '081f6893bec02c675966b7ea853989095479e931fae5224680df28989ee42f0a'),
        ('periodic 5 3',
         '9b42a9a19aa9741d170e9e98a70a8a5505895a34eb4ae8e60e0fd8a80c27a933',
         '411bea104af5e6e214de7a173176ea79b6792bc0d84b9ffa2d00aa89561cb0e7'),
        ('periodic 4 4',
         'f6d2cb6819810229b60369d9394b58ddf606c253bdd778c9fc87e072477923ff',
         '88405da78d0e6ab3e1f2eed57080db564f7ce9315809ac6e3d32bde97afca4ee'),
        ('periodic 3 5',
         '161b205fa3686be57fe2694ea97f39abc1eb1383e05f7fe49d9add279eb8cd0c',
         'adbea929ba97d8763dff56e4dad36678cdc281fb8f5dd3442fe8eddc9530a235'),
        ('periodic 2 6',
         'd38a7ad79e69dfabddcf374c1ef8bc9d2b1ad12654697dda13799561e4c89259',
         '250ebd5f166de6b225538a0dba46bb7916043f9a8e9dc3247b5551be4d4eeb1c'),
        ('periodic 1 7',
         'df1d9ca240784c2bb130488c191cceb992c2616baf56bad3c52d78fe5aa4a259',
         '23298e8c0411ec4d4898c8baf964546f3fa100a6c86d2c4d11e2e79c435cd6f0'),
    ],
    'bbll <B> p & <iB> ~p & <L> q & <iL> (p & q)': [
        ('periodic 1 2',
         '8ada62c35a7dc08186f797125f5ed62a0097ad6535ce1429405b2bafbaa79289',
         '222619ca992f527ee46ca07e36f29890a32a2df229d7eb510d0c73a3321ea254'),
    ],
    'bbll <L> (p & [B] q) & <iL> <iB> ~q': [
        ('periodic 1 1',
         '49bc55d45686a48011c63de8d8533efd79ee74e8db867587fa30884e5790f82e',
         'e7d68b7af1281cddd7f057273f69a66c076fe7dca02fe343b6a743644d65934c'),
    ],
    'finite 6 <A> p & <D> q & [O] ~p & <iE> (q | <iA> p)': [
        ('finite 5',
         '9cd963d072f1451945e7191b50597ed54b998771f87b4edcf0c1543762e854aa',
         '81d4791e036a460dbb46a39acf77e8b37eff6fa2c345bcd1db0d82b32edf6eae'),
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
