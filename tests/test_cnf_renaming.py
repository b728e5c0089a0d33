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
         'e613383efa73533885e08f29815185b7077e7a36262dfcbca8339f7b6b17f368'),
        ('periodic 6 2',
         '65125ec7378174b9e6d90871986ebefe431168f609db0d953fab1ab0d320c061'),
        ('periodic 5 3',
         'dbf0e551f3670bfb1b91c63fda10953be997b1ef40ae8760ebd0afe44acf4aed'),
        ('periodic 4 4',
         '41e4587ddc12940269211aebb6a762e254d961cfe5b0714d85225f45d64e81c5'),
        ('periodic 3 5',
         'a013db5dc747785c36a26cb46242a7f4637c68f5e2bccf11d1b2f71822d07ec7'),
        ('periodic 2 6',
         'f1336970a255556e9e30639a4671163693c734e7ffb1ca7bcaeea33029e777b3'),
        ('periodic 1 7',
         'af480f77b8c8a9d0fce5d8fd4895e88bbdcba5ccff6f1996362309906a1b29ee'),
    ],
    'bbll [L] p & [L] ~p': [
        ('periodic 1 2',
         '9c5fe3a90ae7368a9f7c1c03565b962c9ed9a18451ce25fc9707c800279b7370'),
        ('periodic 11 1',
         '753abcd8c7af3cba7cca659106fc797ade181f6000ae983d7b09ea306761b418'),
        ('periodic 10 2',
         'f41f54bd2a9e946031077b9208b374ca53915fe475e9987d7a00f334315e6f7f'),
        ('periodic 9 3',
         '493fb1b3ad0496aea36d229ef709462c906afa52093eb967cdb755638a69060b'),
        ('periodic 8 4',
         '2fe68ffc36e7f74f4d473bd625209ad06688a3fa24891e53834ae1bd8615eb4e'),
        ('periodic 7 5',
         '8c91240d9b8a0266904dd76fc21aac1bb07688dc260c29e06162278ba34b4699'),
        ('periodic 6 6',
         'ea6ec67293674e9c83610cc968dd027366538321bb2b58cc62e02a9f47e83f25'),
        ('periodic 5 7',
         '0c45f2f83c2c0de6122e5c1177fb50e2e0d78c786ce85fe35f89ce7d039fe8cc'),
        ('periodic 4 8',
         '45597bb617e4d3b88e8d32f610d1bdb5afdbbf565373ed114a8960650fc6ed86'),
        ('periodic 3 9',
         '8987b2646af71f9c3a3d6bc988882442bcfc2a6ee884c8d62f5fe0b56e1064fb'),
        ('periodic 2 10',
         '0f71a8c717ce2ce29ac5306be7a527ed6d65193dd74e598881bdcd2ddc0dc24b'),
        ('periodic 1 11',
         'd241057acada826469d9f31e46a1f255a6e4369073d9e7a1151986b8ffbabb87'),
    ],
    'bbll <B> ~p & [B] (~p -> <B> ~p)': [
        ('periodic 7 1',
         '7f7c9993bed5f46ba375b6d16a9566939dd96520022d61a9f5632413b03a10d7'),
        ('periodic 6 2',
         'da3ef09111b0a8b348f347a2f81307217503d2c7c98f76191321142eec9d6eec'),
        ('periodic 5 3',
         'b0a848930bd82d5ce029c5ee466ae05cd310b8b25587bd912cc27b3b0707b5cf'),
        ('periodic 4 4',
         '31da98511d5379d29c2b8a282278041da3c3f6e61ab8fcaed4c992c87f56ff2e'),
        ('periodic 3 5',
         'dff58f6e9c9a24eb36c0824f3b4e0ec1a427da047dff3afa7d5bd72deaf2bc8d'),
        ('periodic 2 6',
         '823eec47d62ee1f2d872e54e91e7e644eae037671979bc5d04889b4aa00b712a'),
        ('periodic 1 7',
         'e4005cfe22120dc6a0b96befb7e7d69aebba733d795c04791c840eda8685687e'),
    ],
    'bbll <B> p & <iB> ~p & <L> q & <iL> (p & q)': [
        ('periodic 1 2',
         '3e22a540a3fa9e404064b0810eccb8ee8a5790e56d1745da33463b365b72b0fa'),
    ],
    'bbll <L> (p & [B] q) & <iL> <iB> ~q': [
        ('periodic 1 1',
         '44ef8d0f481df512415ef2573480df0ec25e9fa72dcfde9aef5b663356179994'),
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
