"""Candidate CNFs of the satisfiability procedures, pinned up to the
numbering of gate variables.

tests/test_cnf_golden.py pins every candidate CNF byte for byte, so it moves
whenever the encoder creates the same gates in another order. This test
pins what must not move with it: the CNF as a set of clauses over named
variables, and the solver's verdict on it. Variable 1 (constant true) is
named T, an atom variable by its letter and canonical cell, and a gate
variable, bottom up, by a hash of the sorted signed names of the literals it
is the disjunction of (read off _Cnf's gate cache, which holds every gate).
Clauses keep their literal order and are sorted. The cases are those of
tests/test_cnf_golden.py; the finite 6 entry was re-pinned with it, each
time the finite encoding changed shape, and the bbll entries when the
pre-check and the folded-goal short cut came in (see that module's
docstring).

The bbll entries were re-pinned again when the periodic encoder's <B> and
<iL> ladders came to saturate (a rung adds only operand literals it does
not cover yet): that drops gates, so the named clauses change, not only the
numbering. Checked against the parent commit first: every case lists the
same candidate domains in the same order with the same verdicts, and the
finite 6 entry did not move.

The bbll entries were re-pinned again when the periodic encoder came to
keep one literal per periodicity class of each subformula and to encode
the goal as the disjunction of phi over its own classes: fewer cells and
fewer gates, so the named clauses change. Checked against the parent
commit first: every case lists the same candidate domains in the same
order with the same verdicts, and the finite 6 entry did not move.

The solver stores the clause lists it is handed and moves the watched
literals inside them, so the digest is taken from a copy of the clauses
made before the solve, as tests/test_cnf_golden.py does. No entry moved
when that copy came in.

Every entry was re-pinned when _Cnf came to lay its clauses out for the
goal probes: the goal became one clause with no gate, its literals last
cell first, and a gate's clauses came to list its inputs before its
output. The goal gate and its clauses are gone and the named clauses
keep their literal order, so every digest moved, as did the solver-run
digests of tests/test_cnf_golden.py. Checked against the parent commit's
EXPECTED first: every case lists the same candidate domains in the same
order with the same verdicts.

The bbll and finite 6 entries, whose roots are chains of four conjuncts,
were re-pinned when a root chain came to be met in one n-ary and-gate per
class or cell: the gates of the chain's links are gone, so the named
clauses change, not only the numbering. Checked against the parent commit
first: both list the same candidate domains with the same verdicts and
certificates, and every other entry kept its digest.

To re-pin, print the current EXPECTED dict with

    PYTHONPATH=src python -m tests.test_cnf_renaming

from the repository root, and paste it over the one below.
"""

import hashlib
import json

import pytest

from hslogic import sat
from hslogic.parser import parse_formula

from .test_cnf_golden import CASES, capture_all, domain_name, format_expected

# per case: (candidate domain, digest of named clauses and verdict), in the
# order the candidates are solved
EXPECTED = {
    'bbll <B> p & [B] ~p': [],
    'bbll <iB> p & [iB] ~p': [],
    'bbll [iB] p & [iB] ~p': [
        ('periodic 7 1',
         'a567b1511c81d133688f0f05d7230186fd2687fe76e48a8254ab405ef8ce0528'),
        ('periodic 6 2',
         '9f25b1914453cf099a0450f3389079a7a20c7a34b9f7d7afc0aa6c84b9f6b07c'),
        ('periodic 5 3',
         '12b171c66e1ba6f6c079a228adec11d74145c462c8d0d47a79eaf1baf79fdcc9'),
        ('periodic 4 4',
         '46bcb3b0426a738356a737a8b90b10d28ee7ac1d5e403c35b1fca115b8ae9f51'),
        ('periodic 3 5',
         '5c69d9ff415b00ec4926fa9893689a18cf5d16149f6ce6a6b4849bb37f118b17'),
        ('periodic 2 6',
         '0011de4bac1b917e25badccae8c9fad7b5a92562d5b441623cce6381069ea278'),
        ('periodic 1 7',
         '7693218e40ad29229e7fe5e08b6177d07a9642712b15401637054e699c620478'),
    ],
    'bbll [L] p & [L] ~p': [
        ('periodic 1 2',
         '5a1e9aeaa25eb0af2a1242b0bf65d5f03573804a75eaa7a6b2f3e14160e90771'),
        ('periodic 11 1',
         '9e01032bd6bbe43139cf1a03971cc541b1a1167fa53c2d12c3dc1d97da4e44d4'),
        ('periodic 10 2',
         '9d6cd63ea66ebed11e703748905b1725251046bae61ccaba3c00639a1d8c5d86'),
        ('periodic 9 3',
         '4c8a05921cf5cd757cca2b8c6c3a6ce594efdac90d31d84a0072fb62154b43e4'),
        ('periodic 8 4',
         '42f62712dc17efe3c360ca617cb23cbd2fb19a94e71e65c38b43412ba54e1096'),
        ('periodic 7 5',
         '2d57b1abdd1b782a9fa9f51408bd62f34010f0d29f205fa7969bf000d93d72b1'),
        ('periodic 6 6',
         'dfb917119eefccbf0ab2bc16ee3a7d09feeb10257116942e1ef2ab9522350852'),
        ('periodic 5 7',
         '690db04eac77b091d15a23ace21fe4b7930cd34d86715014df5c8b1246001b71'),
        ('periodic 4 8',
         '9367845bb9cd543d28a679d4950a834957db2b082e2b462373a364f6dedb201c'),
        ('periodic 3 9',
         '9ebee3078b5604244527777bb92fb0f2b0134a684a8a3f3d0abf479cc8848050'),
        ('periodic 2 10',
         '783677c4b38ee7427270f8904c8b96c39fb0769ffccc17895c1705f161623eca'),
        ('periodic 1 11',
         '175673175b70c4792adefb9d368873a01c3b3e6f5d8daffc6bebd1e3b87b0430'),
    ],
    'bbll <B> ~p & [B] (~p -> <B> ~p)': [
        ('periodic 7 1',
         '2ce4b299b6bb631de80fef6bd01e83c1df3facbaec39f4c001bef394777dff3e'),
        ('periodic 6 2',
         'c3042138434c3f630d8185e19bd00eb2707805856b27c11cfefcac7d56812f94'),
        ('periodic 5 3',
         'd8159edb1ebee26e66eea9ba02b40697c8c85e5a756b4a7bce9967b41acad172'),
        ('periodic 4 4',
         '9c2031a2b126c5504d70f28283c3018dd385ed1c25627168b0e6d679c224b881'),
        ('periodic 3 5',
         'c365e8463c231dfbab18ed35d4bae1f49f3f5265ce9596f3145e26035de8da52'),
        ('periodic 2 6',
         '878b0654357a55e189f53befbc749a85613d496623cbf46219735525bb67eda4'),
        ('periodic 1 7',
         'a9180bd7dfb08602c91ca8bfba70b8d045599b2c66819472b0915a3a210c0be8'),
    ],
    'bbll <B> p & <iB> ~p & <L> q & <iL> (p & q)': [
        ('periodic 1 2',
         '7cb666bdc5b0edcaa1b8056536434b55c32981340bef85e9481ca2bb2387d6af'),
    ],
    'bbll <L> (p & [B] q) & <iL> <iB> ~q': [
        ('periodic 1 1',
         'bccaf2f084464f42418aeba86a2d27535ff1c4395b82d1caea572df69f50d211'),
    ],
    'finite 6 <A> p & <D> q & [O] ~p & <iE> (q | <iA> p)': [
        ('finite 5',
         '67492e3d966c870e1486dc85d7fdaf3e7c988e6eab6d9ce58d1d3237be78e5a5'),
    ],
}


def _hash(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _named_digest(enc, clauses, verdict: bool) -> str:
    cnf = enc.cnf
    names = {1: "T"}
    for (letter, cell), var in enc.atom_var.items():
        names[var] = "%s@%d,%d" % ((letter,) + tuple(cell))
    inputs = {g: lits for lits, g in cnf._gate.items()}
    signed = lambda lit: ("+" if lit > 0 else "-") + names[abs(lit)]
    # a gate's inputs are all made before it, so ascending order is bottom up
    for g in sorted(inputs):
        names[g] = "g" + _hash(sorted(signed(lit) for lit in inputs[g]))[:20]
    assert sorted(names) == list(range(1, cnf.nvars + 1))
    clauses = sorted([signed(lit) for lit in c] for c in clauses)
    return _hash([cnf.nvars, clauses, verdict])


def _run_capturing(monkeypatch, kind, text):
    runs = []
    encoders = []
    base_init = sat._Candidate.__init__
    base_solve = sat._Cnf.solve

    def init(enc, *args):
        base_init(enc, *args)
        encoders.append(enc)

    def solve(cnf):
        (enc,) = [e for e in encoders if e.cnf is cnf]
        # the solver reorders literals inside the lists it is handed
        clauses = [list(c) for c in cnf.clauses]
        out = base_solve(cnf)
        runs.append((domain_name(enc.domain),
                     _named_digest(enc, clauses, out is not None)))
        return out

    monkeypatch.setattr(sat._Candidate, "__init__", init)
    monkeypatch.setattr(sat._Cnf, "solve", solve)
    phi = parse_formula(text)
    if kind == "bbll":
        sat.sat_bbll(phi)
    else:
        sat.sat_bounded_finite(phi, int(kind.split()[1]))
    return runs


@pytest.mark.parametrize("kind,text", CASES)
def test_candidate_cnfs_up_to_gate_numbering(monkeypatch, kind, text):
    runs = _run_capturing(monkeypatch, kind, text)
    assert runs == [tuple(r) for r in EXPECTED[kind + " " + text]]


if __name__ == "__main__":
    print(format_expected(capture_all(_run_capturing)))
