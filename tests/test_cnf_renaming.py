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
time the finite encoding changed shape (see that module's docstring).
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
    'bbll <B> p & [B] ~p': [
        ('periodic 5 1',
         '7181fdbf89b721a43b71bf2c3e17450cc287b1ae4fd472a32ada298ee6585848'),
        ('periodic 4 2',
         'b3787bc55b15d0022818b11656d2b88dcbee71ac1d2c5a2a240d722e5a1d74c1'),
        ('periodic 3 3',
         '7685d8f4dfa3d32032837b3c8ea49df0c774ed27c0449188778ea77ff37b3016'),
        ('periodic 2 4',
         '67fe6185495aef8f27fae47924a57253f0a27f53773ddee15af2778fa92ff917'),
        ('periodic 1 5',
         'ce492dd37279b7a005f0da0f24655b7009b3b864ec2d20a06d1a48b80624c387'),
    ],
    'bbll <iB> p & [iB] ~p': [
        ('periodic 5 1',
         '8448c2ffac2076362b9c3e64f63345c9a44ffe31cf0c8a785eecbdfdccbc2488'),
        ('periodic 4 2',
         '60414246b5dc3bbe9c1f5f5c51f554c92162d7754e1521592b0d3722719abcf0'),
        ('periodic 3 3',
         'b76a3c6f117f472888915bb5027289f3613588a4477390a074738057fc079f33'),
        ('periodic 2 4',
         '8f88faeab4e5481b7ef44da6581b195343815d14c83c0023114e6d3e03db0b3f'),
        ('periodic 1 5',
         '433ef3031a9d4cf1c94d421ca3e1ed584fee169721b8e20781d891b7dcff1e98'),
    ],
    'bbll <B> ~p & [B] (~p -> <B> ~p)': [
        ('periodic 1 1',
         'ba240a3bc11b53d9fca08d0852296bb38b3e956483d6aff54a72d5dc796f0ed7'),
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
        ('periodic 1 1',
         '2e94e23e3cacd89d1892200265652838bd58611199918ff33928ea4aabdfe57a'),
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
