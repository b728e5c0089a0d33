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
"""

import hashlib
import json

import pytest

from hslogic import sat
from hslogic.models import FiniteDomain
from hslogic.parser import parse_formula

from .test_cnf_golden import CASES

# per case: (candidate domain, digest of named clauses and verdict), in the
# order the candidates are solved
EXPECTED = {
    'bbll <B> p & [B] ~p': [],
    'bbll <iB> p & [iB] ~p': [],
    'bbll [iB] p & [iB] ~p': [
        ('periodic 7 1',
         'e613383efa73533885e08f29815185b7077e7a36262dfcbca8339f7b6b17f368'),
        ('periodic 6 2',
         'cfb6f05d78a9186d9a56c0c90228ce1d325e5fd5f66be3bdd76aeab00e66605e'),
        ('periodic 5 3',
         'a404e129dd2f8b2e5999ed6f923aa08533eb922fc2c9acd8babc82a0bb89d158'),
        ('periodic 4 4',
         '9b7332da36509abe41a8f3866a243306cc7815511262f7a3db3029098e5d8fe0'),
        ('periodic 3 5',
         'f79f8907bd3cb0515f036e5dc805ceadbebcebdb609376354019ca2e1bb13268'),
        ('periodic 2 6',
         'a2c94c0e31bfca3a71c5fc02ee88fec133c3d03986df9674f26477840e46ce7d'),
        ('periodic 1 7',
         '67a854073dfe5eacc7f9c10641ad56a9b96cc2a4ff8f327f91328db702f3a768'),
    ],
    'bbll [L] p & [L] ~p': [
        ('periodic 1 2',
         '9c5fe3a90ae7368a9f7c1c03565b962c9ed9a18451ce25fc9707c800279b7370'),
        ('periodic 11 1',
         '753abcd8c7af3cba7cca659106fc797ade181f6000ae983d7b09ea306761b418'),
        ('periodic 10 2',
         '5f45496aeabe5d71ea8e296b4fa86d7df6864bb06466472aa693ad21bfd42a1a'),
        ('periodic 9 3',
         '608168f9ce261b5299dc24c2d27289c567b3da4585f6a348a152d3c501f806e0'),
        ('periodic 8 4',
         'd5dc17cefb2f065f40577b9454e5ece56a4e0b4a58784492a92c663e09e6ca0e'),
        ('periodic 7 5',
         'bc9bd7f5b58cc973083005c56532a5b05792d82f4a8f3deb78562769b2059b58'),
        ('periodic 6 6',
         'f77cc132d8d7869f6139ed2eebaa78c6d302e8039fd21eed85cf52907466de57'),
        ('periodic 5 7',
         'c6458dcea1f13034aab1a8d0b0ac742a5c8f9b748b014fe0fdbe4c1b0e5366b0'),
        ('periodic 4 8',
         'cfb3b19f92fd6da7e17e3e1d4edfe47ad4168c0c65bee66c54b5394add4aa9a8'),
        ('periodic 3 9',
         '693e24b03aa637b6dd4b4798e0f19b575e23d725dadffd7b826dac8db134ede1'),
        ('periodic 2 10',
         '0f71a8c717ce2ce29ac5306be7a527ed6d65193dd74e598881bdcd2ddc0dc24b'),
        ('periodic 1 11',
         'd241057acada826469d9f31e46a1f255a6e4369073d9e7a1151986b8ffbabb87'),
    ],
    'bbll <B> ~p & [B] (~p -> <B> ~p)': [
        ('periodic 7 1',
         'bf819e11d134e5df19459f24564e5e43911b88c8901932c308f062d324894b9f'),
        ('periodic 6 2',
         '34935a820b279ace06957b4a29f1227aeda38c80a3817c58b377cb7a92b18569'),
        ('periodic 5 3',
         '6f96bb10cd2827734866d56be9732505807e2e34e22e1e03f9c06137a5258a4e'),
        ('periodic 4 4',
         'b58cada8802967f873c2bb656e0e10e46e12f0492670612b54d1b2d84c2498b6'),
        ('periodic 3 5',
         '370e3a8ae62e1de8ca69ccb8baf0a6f9f85d3cea4920425b0a83c2d28531e7a7'),
        ('periodic 2 6',
         'e854470aa9ea3e1802bece35f0651b7152b2886ccad902630a948dc9a72dabe4'),
        ('periodic 1 7',
         '30f38ec04c7ee8eabf41a5a44a9e81dc3c783706fd690772e6c0f012edb9644a'),
    ],
    'bbll <B> p & <iB> ~p & <L> q & <iL> (p & q)': [
        ('periodic 1 2',
         'aa8ea5c128661e2ade2ea8b34a440cc47402c77038fef3961a65b8b39c4bc3c7'),
    ],
    'bbll <L> (p & [B] q) & <iL> <iB> ~q': [
        ('periodic 1 1',
         '2ac63a37ffaf80ad4a58c33891b69fef0097e675f0c55323c8f82b588234eb3e'),
    ],
    'finite 6 <A> p & <D> q & [O] ~p & <iE> (q | <iA> p)': [
        ('finite 5',
         'b8f3c681442616b1d159da44b077a3ae7c1ab58af10fab3ade226e680e27deb1'),
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


def _domain_name(domain) -> str:
    if isinstance(domain, FiniteDomain):
        return "finite %d" % domain.last_point
    return "periodic %d %d" % (domain.pre, domain.per)


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
        runs.append((_domain_name(enc.domain),
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
