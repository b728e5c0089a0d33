"""Pinned output of the README's command line examples.

Each example runs `hs` in a fresh interpreter, in a directory holding the
example files, and its exit status, standard output and standard error must
match the text below exactly. Outputs longer than a kilobyte (the atlas and
the automaton encodings) are pinned by their length and SHA-256 instead of
their text. A change that must keep the CLI byte-identical shows any drift
here.
"""

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

FILES = {
    "m.ism": "order finite 3\nval p 0 1\nval p 1 2\nval q 0 2\n",
    "f.hsf": "<B> p & <L> q\n",
    "machine.ica": (
        "alphabet a b\n"
        "states q0 q1\n"
        "init q0\n"
        "final q1\n"
        "counters 1\n"
        "trans q0 a inc 1 q0\n"
        "trans q0 b dec 1 q0\n"
        "trans q0 a ifz 1 q1\n"
        "trans q1 a ifz 1 q1\n"),
    "a.ism": "order finite 3\nval p 2 3\n",
    "b.ism": "order finite 3\n",
}

CERT = "order periodic pre=1 per=1\nval p 1 2\nval q 1 2\n"


def _long(text: str) -> str:
    return "%d bytes, sha256 %s" % (
        len(text), hashlib.sha256(text.encode()).hexdigest())


# command line after `hs` -> (exit status, stdout, stderr)
EXPECTED = {
    "parse '<B> p & ~[L] q'": (0, "<B> p & ~[L] q\n", ""),
    "classify --class nat 'iA B'": (0, "DecidableNonPrimitiveRecursive\n", ""),
    "classify --class sd 'iA B'": (1, "Undecidable\n", ""),
    "atlas": (0, "2928 bytes, sha256 1f688598fd62ccd1c85c2ac8867349f5"
                 "f6a4b2dc8a010955a4091b65a88f127e", ""),
    "atlas --format dot --class sd": (
        0, "6052 bytes, sha256 d399969653158a3e5fb2bbdcd62ffb53"
           "9db7a1e19eefeecb1891e4aa38a13177", ""),
    "mirror '<B> p'": (0, "<E> p\n", ""),
    "mirror --fragment 'A B iL'": (0, "iA E L\n", ""),
    "sat '<B> p & ~<B> p'": (1, "UNSAT\n", ""),
    "sat '<B> p' --verify": (
        0, "SAT\nwitness 1 3\norder periodic pre=1 per=1\nval p 1 2\n", ""),
    "sat --file f.hsf --verify": (0, "SAT\nwitness 1 3\n" + CERT, ""),
    "sat '<A> p' --finite 3": (
        0, "SAT\nwitness 0 1\norder finite 2\nval p 1 2\n", ""),
    "mc --model m.ism --interval 0 2 --formula '<B> p'": (0, "true\n", ""),
    "encode --ica machine.ica --target AE": (
        0, "5772 bytes, sha256 11eebe3eaa714b3c0d4cb3e1cb084aad"
           "21a1574cdecfbf055a583d0c2c87b590", ""),
    "encode --ica machine.ica --target iAB --groups": (
        0, "6367 bytes, sha256 e5f3f25050a149b23f16bb84d9eecfd9"
           "5d690ff7f6e03040101d338c27c6ccfa", ""),
    "bisim --witness later": (0, "certified\n", ""),
    "bisim --left a.ism --right b.ism --fragment 'B iB'": (
        0, "0 1 0 1\n0 2 0 2\n0 3 0 3\n1 2 1 2\n1 3 1 3\n", ""),
    "bisim --left a.ism --right b.ism --fragment 'B iB'"
    " --certify L p 0 1 0 1": (0, "certified\n", ""),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    for name, text in FILES.items():
        (path / name).write_text(text, encoding="ascii")
    return path


@pytest.mark.parametrize("command", list(EXPECTED))
def test_readme_example(workdir, command):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run(
        [sys.executable, "-m", "hslogic.cli"] + shlex.split(command),
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120)
    out = run.stdout if len(run.stdout) <= 1024 else _long(run.stdout)
    assert (run.returncode, out, run.stderr) == EXPECTED[command]
    if command.startswith("sat --file"):
        assert (workdir / "f.hsf.cert.ism").read_text(encoding="ascii") \
            == CERT
