"""Two source trees on the same inputs, answer by answer.

    python tests/differential.py OLD NEW [--seed N] [--mc N] [--sat N]
                                 [--finite N] [--pre N] [--fe N]
                                 [--atlas N] [--parse N] [--limit SECONDS]

OLD and NEW are source trees: a directory holding the hslogic package, or
a checkout whose src/ holds it (for example a `git archive` of the parent
commit unpacked next to the working tree). Inputs are drawn from the seed
with tests/gen.py, under NEW's hslogic, and are handed to each tree as
text: formulas as syntax.render writes them, models as .ism text. Each tree answers in its own subprocess, with only that tree
on its path, and each input has a time limit there.

Seven kinds of input and answer are compared:

* mc: a periodic model (prefix and period 1-3, letters p and q), a formula
  of depth <= 3 over all twelve modalities and an interval, near the origin
  or with endpoints up to 2*10^6. The answer is mc_periodic's verdict, or
  the NotStabilized offender (subformula, cell, rounds), at that interval
  and then at every canonical cell of the model, in models.canonical_cells
  order;
* sat: a formula of depth <= 3, over the begin/later modalities, and one
  in ten over all twelve, so that which formulas the fragment check
  refuses, and its message, are compared too. The answer is sat_bbll's
  result: a Sat's model as .ism text and its witness, or the reason of an
  Unsat or an Unknown;
* finite: a formula of depth <= 4 over all twelve modalities and a bound
  of 1 to 6 points past the origin. The answer is sat_bounded_finite's
  result, as for sat;
* pre: a begin/later formula for the pre-check alone: a contradiction
  <M> s & [M] ~s over a random s, sometimes beside another formula, a
  conjunction of up to 14 letters, atoms or diamonds and boxes over them,
  some negated and often one both ways, or a formula of depth <= 3. The
  answer is sat_bbll's with the periodic bound 0, which stops after the
  pre-check: the reason of its Unsat, or the Unknown of a search cut
  short;
* fe: a finite model (1-8 points past the origin, letters p and q) and a
  formula of depth <= 3 over all twelve modalities: one drawn by
  rand_formula, a box over one of depth <= 2, or the negation of such a
  box, a third of the inputs each. The answer is FiniteEvaluator.value
  at every cell of the model, in models.canonical_cells order;
* atlas: the equation <M> p == <M1> <M2> p for a triple of modalities, not
  drawn but taken in turn: all 12^3 = 1728 triples, M slowest, by default.
  The answer is atlas.check_equation's result: NoCountermodel with its
  bound, or a Countermodel's model as .ism text and its witness;
* parse: a string over the formula alphabet: letters, true and false, the
  24 modality tokens and malformed ones, parentheses, the connectives, a
  lone "-", blanks, comments and newlines. Most are a random formula's
  tokens with up to three of them deleted, replaced or inserted, the rest
  a random run of tokens; one in ten has a stray character put in, and
  one in fifty is a long chain or tower, 50 to 400 levels deep, without
  error. The answer is render(parse_formula(text)), or the ParseError's
  text with its line and column.

Every third mc, sat and finite input (the second, the fifth, ...) asks a
conjunction of 3-8 random parts instead, of depth <= 1 for sat and <= 2
for mc and finite, nested to the left, to the right or in two groups; one
in four repeats a part or adds one that reads the chain's first link.
Those inputs are where a root chain's conjuncts are met in one gate
(checking._conjuncts), which rand_formula rarely draws. Their formulas
come from a second stream of the seed, after the one the input would have
asked is drawn and set aside, so every other input is the one the seed
gave before the conjunctions came in.

Any other exception is an answer too: by its class name, and an
UnsupportedFragmentError by its message as well.

Some differences are intended. A parse answer moves when the old answer
is a ParseError for input "nested too deeply" and the new one a formula:
parsing once refused input nested more than 100 levels. A sat or pre
answer moves when the new answer is a pre-check Unsat (a propositional or
a modal refutation) and the old one is an Unknown or an Unsat of a later
stage: the periodic search's, or a modal refutation where the new one is
propositional. Such a move counts as moved, not differing, when the old
tree refutes the input with no periodic bound. An old Unsat does so as it
stands. For an old Unknown a second pass asks the old tree's worker for
sat_bbll's unbounded answer, under the same time limit, and the input
counts as timed out when that pass runs out of time. Every other difference differs, among them any
Sat/Unsat flip and any pre-check Unsat that moves to another answer.

The counts of identical, moved, differing and timed-out inputs are printed
per kind, with the first differing inputs; the exit status is 1 when any
input differs, and moved or timed-out inputs do not change it.
"""

import argparse
import itertools
import json
import os
import random
import signal
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

FAR = 2 * 10 ** 6

# sat_bbll's Unsat reasons by the stage that gives them, the pre-check's
# above the search's, and a refutation with no K step above one with it
STAGE = {"no model within the periodic bound": 0, "modal refutation": 1,
         "propositional refutation": 2}


class _Timeout(BaseException):
    """The input's time limit ran out; not an Exception, so that no answer
    swallows it."""


def source_dir(tree):
    """The directory that holds tree's hslogic package."""
    tree = Path(tree).resolve()
    for cand in (tree, tree / "src"):
        if (cand / "hslogic" / "__init__.py").is_file():
            return cand
    raise SystemExit("no hslogic package in %s or its src/" % tree)


def draw_inputs(seed, n_mc, n_sat, n_finite=0, n_pre=0, n_fe=0, n_atlas=0,
                n_parse=0):
    """The inputs of a run, as JSON-ready dicts, drawn under the hslogic on
    this process's path; the first n_atlas modality triples in turn."""
    root = str(Path(__file__).resolve().parent.parent)
    if root not in sys.path:
        sys.path.insert(0, root)
    from hslogic.models import save_model
    from hslogic.syntax import (
        ALL_MODALITIES, And, Atom, B, Box, Diamond, L, Not, conj, iB, iL,
        neg, render,
    )
    from tests.gen import (
        all_mods, rand_conjunction, rand_finite_model, rand_formula,
        rand_periodic_model,
    )

    rng = random.Random(seed)
    chains = random.Random("%d conjunctions" % seed)
    out = []
    for k in range(n_mc):
        pre, per = rng.randint(1, 3), rng.randint(1, 3)
        model = rand_periodic_model(rng, pre, per, ("p", "q"),
                                    rng.choice((0.15, 0.4)))
        phi = rand_formula(rng, ("p", "q"), all_mods(), 3)
        if k % 3 == 1:
            phi = rand_conjunction(chains, ("p", "q"), all_mods(), 2)
        if rng.random() < 0.7:
            x = rng.randint(0, 7)
            cell = (x, x + rng.randint(1, 8))
        else:
            x = rng.randint(0, FAR // 2)
            cell = (x, rng.randint(x + 1, FAR))
        out.append({"kind": "mc", "model": save_model(model),
                    "formula": render(phi), "cell": cell})
    for k in range(n_sat):
        mods = all_mods() if k % 10 == 0 else (B, iB, L, iL)
        phi = rand_formula(rng, ("p", "q"), mods, 3)
        if k % 3 == 1:
            phi = rand_conjunction(chains, ("p", "q"), mods, 1)
        out.append({"kind": "sat", "formula": render(phi)})
    for k in range(n_finite):
        phi = rand_formula(rng, ("p", "q"), all_mods(), 4)
        if k % 3 == 1:
            phi = rand_conjunction(chains, ("p", "q"), all_mods(), 2)
        out.append({"kind": "finite", "formula": render(phi),
                    "max_points": rng.randint(1, 6)})
    bbll = (B, iB, L, iL)
    for _ in range(n_pre):
        r = rng.random()
        if r < 0.4:
            m = rng.choice(bbll)
            s = rand_formula(rng, ("p", "q"), bbll, 2)
            phi = And(Diamond(m, s), Box(m, neg(s)))
            if rng.random() < 0.3:
                phi = And(rand_formula(rng, ("p", "q"), bbll, 2), phi)
        elif r < 0.7:
            lits = [Atom("a%d" % i) for i in range(rng.randint(1, 14))]
            if rng.random() < 0.3:
                lits = [rng.choice((Diamond, Box))(rng.choice(bbll), a)
                        for a in lits]
            lits = [Not(a) if rng.random() < 0.2 else a for a in lits]
            if rng.random() < 0.6:
                lits.append(neg(rng.choice(lits)))
            rng.shuffle(lits)
            phi = conj(lits)
        else:
            phi = rand_formula(rng, ("p", "q"), bbll, 3)
        out.append({"kind": "pre", "formula": render(phi)})
    for _ in range(n_fe):
        model = rand_finite_model(rng, rng.randint(1, 8), ("p", "q"),
                                  rng.choice((0.15, 0.4)))
        r = rng.random()
        if r < 1 / 3:
            phi = rand_formula(rng, ("p", "q"), all_mods(), 3)
        else:
            phi = Box(rng.choice(all_mods()),
                      rand_formula(rng, ("p", "q"), all_mods(), 2))
            if r < 2 / 3:
                phi = Not(phi)
        out.append({"kind": "fe", "model": save_model(model),
                    "formula": render(phi)})
    p = Atom("p")
    triples = itertools.product(ALL_MODALITIES, repeat=3)
    for m, m1, m2 in itertools.islice(triples, n_atlas):
        out.append({"kind": "atlas", "lhs": render(Diamond(m, p)),
                    "rhs": render(Diamond(m1, Diamond(m2, p)))})
    texts = random.Random("%d parse" % seed)
    for _ in range(n_parse):
        out.append({"kind": "parse", "formula": _parse_text(texts)})
    return out


_MODAL_TOKENS = [o + m + c for m in ("A", "iA", "B", "iB", "D", "iD", "E",
                                     "iE", "L", "iL", "O", "iO")
                 for o, c in ("<>", "[]")]
_ATOMS = ["p", "q", "r_1", "_x", "true", "false", "trueish"]
_BAD = ["<", "<>", "<Q>", "[B>", "<B", "-"]
_PIECES = (_ATOMS + _MODAL_TOKENS + _BAD
           + ["(", ")", "&", "|", "~", "->"] * 4)
_BLANKS = [" "] * 12 + ["", "  ", "\t", "\n", "\r\n", " # note\n",
                        "\n# line ( <B\n"]
_STRAY = ["P", ">", "]", "!", "\v", "\u00e9", "1", "=", "$"]


def _parse_text(rng):
    """One parse input: see the module docstring."""
    if rng.random() < 0.02:
        n = rng.randint(50, 400)
        return rng.choice((
            " & ".join(rng.choice("pq") for _ in range(n)),
            " -> ".join(["p"] * n),
            "~<B> " * n + "q",
            "(" * n + "p" + ")" * n,
            "[iL] (" * n + "p | q" + ")" * n,
        ))

    def tokens(depth):
        r = rng.random()
        if depth == 0 or r < 0.25:
            return [rng.choice(_ATOMS)]
        if r < 0.45:
            return [rng.choice(["~"] + _MODAL_TOKENS)] + tokens(depth - 1)
        if r < 0.55:
            return ["("] + tokens(depth - 1) + [")"]
        return (tokens(depth - 1) + [rng.choice(["&", "|", "->"])]
                + tokens(depth - 1))

    if rng.random() < 0.8:
        toks = tokens(rng.randint(0, 5))
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
            k = rng.randint(0, len(toks))
            r = rng.random()
            if r < 1 / 3 and toks:
                del toks[min(k, len(toks) - 1)]
            elif r < 2 / 3 and k < len(toks):
                toks[k] = rng.choice(_PIECES)
            else:
                toks.insert(k, rng.choice(_PIECES))
    else:
        toks = [rng.choice(_PIECES) for _ in range(rng.randint(0, 12))]
    text = "".join(t + rng.choice(_BLANKS) for t in toks)
    if rng.random() < 0.1:
        k = rng.randint(0, len(text))
        text = text[:k] + rng.choice(_STRAY) + text[k:]
    return text


def _answer(item):
    """One input's answer in the tree on this process's path."""
    from hslogic.atlas import Countermodel, check_equation
    from hslogic.checking import FiniteEvaluator, NotStabilized, mc_periodic
    from hslogic.models import canonical_cells, load_model, save_model
    from hslogic.parser import ParseError, parse_formula
    from hslogic.sat import (
        Sat, UnsupportedFragmentError, sat_bbll, sat_bounded_finite,
    )
    from hslogic.syntax import render

    def guard(ask):
        try:
            return ask()
        except NotStabilized as exc:
            return ["NotStabilized", render(exc.subformula), list(exc.cell),
                    exc.rounds]
        except UnsupportedFragmentError as exc:
            return ["error", type(exc).__name__, str(exc)]
        except Exception as exc:
            return ["error", type(exc).__name__]

    def solve():
        if item["kind"] == "sat":
            res = sat_bbll(phi)
        elif item["kind"] == "pre":
            res = sat_bbll(phi, max_bound=0)
        else:
            res = sat_bounded_finite(phi, item["max_points"])
        if isinstance(res, Sat):
            return ["Sat", save_model(res.model), list(res.witness)]
        return [type(res).__name__, res.reason]

    def equation():
        res = check_equation(parse_formula(item["lhs"]),
                             parse_formula(item["rhs"]))
        if isinstance(res, Countermodel):
            return ["Countermodel", save_model(res.model), list(res.witness)]
        return [type(res).__name__, res.max_points]

    def parse():
        try:
            return ["formula", render(parse_formula(item["formula"]))]
        except ParseError as exc:
            return ["ParseError", str(exc)]

    if item["kind"] == "atlas":
        return guard(equation)
    if item["kind"] == "parse":
        return guard(parse)
    phi = parse_formula(item["formula"])
    if item["kind"] not in ("mc", "fe"):
        return guard(solve)
    model = load_model(item["model"])
    cells = canonical_cells(model.domain)
    if item["kind"] == "fe":
        ev = FiniteEvaluator(model)
        return [guard(lambda: ev.value(phi, cell)) for cell in cells]
    cells = [tuple(item["cell"])] + cells
    return [guard(lambda: mc_periodic(model, cell, phi)) for cell in cells]


def _worker(limit):
    """Answer the JSON inputs on stdin, one JSON line each on stdout; an
    input past the time limit answers "timeout"."""
    import hslogic
    print(json.dumps(hslogic.__file__), flush=True)

    def expire(signum, frame):
        raise _Timeout()

    signal.signal(signal.SIGALRM, expire)
    for line in sys.stdin:
        item = json.loads(line)
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            ans = _answer(item)
        except _Timeout:
            ans = "timeout"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        print(json.dumps(ans), flush=True)


def _start(tree, limit):
    src = source_dir(tree)
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker",
         "--limit", str(limit)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
    return src, proc


def answers(trees, inputs, limit):
    """Each tree's answers to the inputs, the trees' workers running side
    by side."""
    started = [_start(tree, limit) for tree in trees]
    text = "".join(json.dumps(item) + "\n" for item in inputs)
    with ThreadPoolExecutor(len(started)) as pool:
        outs = list(pool.map(lambda sp: sp[1].communicate(text)[0], started))
    result = []
    for (src, proc), stdout in zip(started, outs):
        lines = stdout.splitlines()
        got = [json.loads(line) for line in lines[1:]]
        if proc.returncode != 0 or len(got) != len(inputs):
            raise RuntimeError("worker for %s failed after %d inputs"
                               % (src, len(got)))
        where = Path(json.loads(lines[0])).resolve()
        if src not in where.parents:
            raise RuntimeError("worker for %s imported %s" % (src, where))
        result.append(got)
    return result


def _moves(item, a, b):
    """Whether answer b refutes, by the pre-check, an input that answer a
    left Unknown or refuted at a later stage, or parses a text that a
    refused as nested too deeply."""
    if "timeout" in (a, b):
        return False
    if item["kind"] == "parse":
        return (a[0] == "ParseError" and "nested too deeply" in a[1]
                and b[0] == "formula")
    if item["kind"] not in ("sat", "pre") or b[0] != "Unsat":
        return False
    stage = STAGE.get(b[1], 0)
    return stage > 0 and (a[0] == "Unknown" or a[0] == "Unsat"
                          and STAGE.get(a[1], stage) < stage)


def confirmed_moves(tree, inputs, old, new, limit):
    """The inputs whose answer moves from old to new, by index: "moved"
    for a parse move, and where tree, the old one, refutes the input with
    no periodic bound, an old Unsat as it stands and an old Unknown by a
    second pass in tree's worker; "timed out" where that pass runs out of
    time."""
    moves = [i for i, item in enumerate(inputs)
             if _moves(item, old[i], new[i])]
    ask = [i for i in moves if old[i][0] == "Unknown"]
    out = {i: "moved" for i in moves if old[i][0] != "Unknown"}
    if ask:
        got, = answers((tree,), [{"kind": "sat", "formula":
                                  inputs[i]["formula"]} for i in ask], limit)
        for i, a in zip(ask, got):
            if a == "timeout":
                out[i] = "timed out"
            elif a[0] == "Unsat":
                out[i] = "moved"
    return out


def compare(inputs, old, new, moved):
    """Counts per kind of identical, moved, differing and timed-out inputs,
    and the differing ones as (kind, input, old answer, new answer); moved
    gives the count of each move by index, as confirmed_moves does."""
    counts, differing = {}, []
    for i, (item, a, b) in enumerate(zip(inputs, old, new)):
        kind = item["kind"]
        c = counts.setdefault(kind, {"identical": 0, "moved": 0,
                                     "differing": 0, "timed out": 0})
        if a == "timeout" or b == "timeout":
            c["timed out"] += 1
        elif a == b:
            c["identical"] += 1
        elif i in moved:
            c[moved[i]] += 1
        else:
            c["differing"] += 1
            differing.append((kind, item, a, b))
    return counts, differing


def run(old_tree, new_tree, inputs, limit):
    """The two trees' answers to the inputs, the old tree's first, with the
    counts and differing inputs of compare."""
    old, new = answers((old_tree, new_tree), inputs, limit)
    moved = confirmed_moves(old_tree, inputs, old, new, limit)
    return (old,) + compare(inputs, old, new, moved)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", nargs="?")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--mc", type=int, default=1000)
    ap.add_argument("--sat", type=int, default=200)
    ap.add_argument("--finite", type=int, default=200)
    ap.add_argument("--pre", type=int, default=2000)
    ap.add_argument("--fe", type=int, default=1000)
    ap.add_argument("--atlas", type=int, default=12 ** 3)
    ap.add_argument("--parse", type=int, default=5000)
    ap.add_argument("--limit", type=float, default=10.0,
                    help="seconds per input in each tree")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        _worker(args.limit)
        return 0
    if args.new is None:
        ap.error("two source trees are required")
    sys.path.insert(0, str(source_dir(args.new)))
    inputs = draw_inputs(args.seed, args.mc, args.sat, args.finite,
                         args.pre, args.fe, args.atlas, args.parse)
    _, counts, differing = run(args.old, args.new, inputs, args.limit)
    for kind, c in sorted(counts.items()):
        print("%s: %d identical, %d moved, %d differing, %d timed out"
              % (kind, c["identical"], c["moved"], c["differing"],
                 c["timed out"]))
    for kind, item, a, b in differing[:10]:
        print("%s differs: %s\n  old: %s\n  new: %s"
              % (kind, json.dumps(item), json.dumps(a), json.dumps(b)))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
