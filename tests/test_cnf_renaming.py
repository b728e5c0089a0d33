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
         'da2a9c53842b6f13597f1738f31538c3d87accbc24c65a33bc91d476dbd64357'),
        ('periodic 6 2',
         'cb2daccecc0f175f1397bf351f4ed6a05f2de2a7a8cd9ad3f481e3b68ec17de4'),
        ('periodic 5 3',
         '9e76f5058c763ff3d71bae1f995b57cac7e63a7fa9a0c9ab6517496e2a9a1d07'),
        ('periodic 4 4',
         '0368977a70b8c25e65c1d96155aa966c3d9167cbe2be1174722fc38db652b574'),
        ('periodic 3 5',
         '4cc53720b2f8d420d616c35ea609ea34d2565e7c2c30c0397d39f06735ad115a'),
        ('periodic 2 6',
         '2288a04bb4997b0b99e8806ddec200e322e74d20c356be545945b5f339b1503c'),
        ('periodic 1 7',
         '189586697c08bc69830b9e8e3cba82b80cd8fa1d3d1261f2099a9bd162d46c77'),
    ],
    'bbll [L] p & [L] ~p': [
        ('periodic 1 2',
         '9c5fe3a90ae7368a9f7c1c03565b962c9ed9a18451ce25fc9707c800279b7370'),
        ('periodic 11 1',
         '7813d463583be22ed134cf3973d5e5feed21ed46f29d66224d8ed7edd3177d8f'),
        ('periodic 10 2',
         '2bb6f8260e930810373af5b1b1f82be50a1793248bb92993863af2f11bb4fe2e'),
        ('periodic 9 3',
         '89887e1cc4be79177c6032c86d85d3288849365e4bf89028c68b0337a1b3ba31'),
        ('periodic 8 4',
         '4a2daee017086a2b7431821746f14c99923bed3de298c8f9233974d3a086ec1b'),
        ('periodic 7 5',
         'd2fc210df673c81d1d83ad5fba3274bb9d73c354b5fb0389ddb7eebb405aac16'),
        ('periodic 6 6',
         'e19b5b3d6a7d53c55fe971fd737a9c6791675b0ffc5de4c4a2c0de7eaa58dcaa'),
        ('periodic 5 7',
         '1d0bdd1495283ecbd95879e84223473f01b439b67f49ad841698e9b194e45415'),
        ('periodic 4 8',
         'aefb2ccd9f160a62848303bf9620f88038496ff78e2fa029ba8965992c5262f5'),
        ('periodic 3 9',
         'c16d0fab9be836c09e77e05fafd0a0856a73b9ff9afd1129be8994b4dc16c65d'),
        ('periodic 2 10',
         '0f71a8c717ce2ce29ac5306be7a527ed6d65193dd74e598881bdcd2ddc0dc24b'),
        ('periodic 1 11',
         'd241057acada826469d9f31e46a1f255a6e4369073d9e7a1151986b8ffbabb87'),
    ],
    'bbll <B> ~p & [B] (~p -> <B> ~p)': [
        ('periodic 7 1',
         'cd2d5225c37bf0af26f72964a26758bc4f9a606e98ec6ffdc9478283df550b2c'),
        ('periodic 6 2',
         '550755f264cef7e29bcf373bf39f55d88c3a917a68c24b6841737b3aa230a480'),
        ('periodic 5 3',
         'bb25c27e4cc1215da93317f03edd7a3996703331b23ba197ff19f62c8decfd4b'),
        ('periodic 4 4',
         'eada833c5ffcebabec3c919fd814920bc1589c662a84f38c86f62c1dcf8a91b3'),
        ('periodic 3 5',
         '07281e1a5aaab0c23aa61efb002a1edd5bdf70de589509b3b32be61dc372da91'),
        ('periodic 2 6',
         'ce3fa62c6ff7a7523ce9813f6f755bf7635a2ffd8c8ca3d934ff344db475ba89'),
        ('periodic 1 7',
         '9209503045918f4b570059a04d92b70e0dd10a08d48d6995951e7317d95a8a4f'),
    ],
    'bbll <B> p & <iB> ~p & <L> q & <iL> (p & q)': [
        ('periodic 1 2',
         '66f26fd46629cb057ac361ea31b32b2ad4987654a3294e492c2d30510bd2df94'),
    ],
    'bbll <L> (p & [B] q) & <iL> <iB> ~q': [
        ('periodic 1 1',
         'fd50347cf9bc47a12d4cb2a45ff7f64408d97a894c0bf88b0ca6ab6eb7be859b'),
    ],
    'finite 6 <A> p & <D> q & [O] ~p & <iE> (q | <iA> p)': [
        ('finite 5',
         '0e8479c4d0c37ddfb77dbe2b83b34219ee6e886d4aed5b81096d4c98d34deccb'),
    ],
}


def _hash(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _named_digest(enc, verdict: bool) -> str:
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
    clauses = sorted([signed(lit) for lit in c] for c in cnf.clauses)
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
        out = base_solve(cnf)
        runs.append((domain_name(enc.domain),
                     _named_digest(enc, out is not None)))
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
