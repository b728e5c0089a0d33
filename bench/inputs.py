"""Seeded input generation for the benchmark workloads.

`python3 bench/inputs.py --workload NAME --seed N` prints one JSON object:
the workload's inputs as formula text and .ism model text, grouped into
rounds, each query with the answer the benchmark expects, worked out here
by `reference` or by an argument stated in README.md, never by running the
query. The same seed gives the same output.

Generation runs in its own process so that its time and memory stay out of
the workload's set-up time and peak memory. It imports hslogic only for
`metrics` (the periodic-bound cap of `sat_unsat`) and `parse_formula`.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import reference as R

LETTERS = ["p", "q"]
BBLL = ["B", "iB", "L", "iL"]
# D is left out of the periodic workloads: mc_periodic answers some D
# queries wrongly (see README.md, "Left out"); one fixed query keeps the
# fault in view instead.
PERIODIC_MODS = [m for m in R.MODALITIES if m != "D"]
KNOWN_FAULT = {
    "model": "order periodic pre=1 per=1\nval p 0 1\n",
    "formula": "<A> <D> <D> ~q",
    "interval": [0, 1],
    # [1, 6] contains [2, 5], which contains [3, 4], and q holds nowhere.
    "expected": True,
}

# Caps on metrics(phi).periodic_bound in sat_unsat. A single-step begin
# contradiction with a modal-free psi has bound 6; well-foundedness needs at
# least 8. See README.md for what the caps leave out.
CONTRADICTION_CAP = 6
WELL_FOUNDED_CAP = 8
UNSAT_ROUNDS = 40      # more rounds than a run completes
# One round: a contradiction per shape, then one well-foundedness query.
CONTRADICTION_SHAPES = ["%s", "~%s", "(%s & %s)", "(%s -> %s)"]
WELL_FOUNDED_SHAPES = ["%s", "~%s", "(%s & %s)", "(%s | %s)"]

MODELS_ROUNDS = 384

PERIODIC_ROUNDS = 108
FAR_LO, FAR_HI = 10 ** 4, 10 ** 5

FINITE_GROUPS = 96
FINITE_GROUPS_PER_ROUND = 12
FINITE_QUERIES = 24
VERIFY_BLOCKS = 4
VERIFY_MARGIN = 4


def _periodic_horizons(y: int, size: int):
    return [y + 2 * size * k for k in (1, 2, 3)]


def _random_periodic(rng, pre, per, density=0.4):
    cells = R.Model({}, pre=pre, per=per).cells()
    return R.Model({p: {c for c in cells if rng.random() < density}
                    for p in LETTERS}, pre=pre, per=per)


def _random_finite(rng, last, letters, density=0.4):
    cells = R.Model({}, last=last).cells()
    return R.Model({p: {c for c in cells if rng.random() < density}
                    for p in letters}, last=last)


def _formula_of_depth(rng, mods, depth):
    while True:
        f = R.random_formula(rng, LETTERS, mods, depth)
        if R.modal_depth(f) == depth:
            return f


def _cycle(rng, options, n):
    """n entries that visit every option equally often, in seeded order."""
    out = []
    while len(out) < n:
        block = list(options)
        rng.shuffle(block)
        out.extend(block)
    return out[:n]


def gen_sat_unsat(rng):
    """Unsatisfiable begin/later formulas of two kinds: contradictions
    <X>psi & [X]~psi, and begin well-foundedness <B>psi & [B](psi -> <B>psi).
    psi takes each shape of its kind once per round (their costs differ by
    up to a half) with random letters; X is B or iB at random. Every formula
    is checked against its kind's cap on the periodic bound."""
    from hslogic import metrics, parse_formula

    def fill(shape):
        return shape % tuple(rng.sample(LETTERS, shape.count("%s")))

    def capped(text, cap):
        bound = metrics(parse_formula(text)).periodic_bound
        if bound > cap:
            raise ValueError("%s: periodic bound %d over %d"
                             % (text, bound, cap))
        return {"kind": "unsat", "formula": text}

    shapes = _cycle(rng, WELL_FOUNDED_SHAPES, UNSAT_ROUNDS)
    rounds = []
    for r in range(UNSAT_ROUNDS):
        rnd = []
        for shape in rng.sample(CONTRADICTION_SHAPES,
                                len(CONTRADICTION_SHAPES)):
            x, psi = rng.choice(("B", "iB")), fill(shape)
            rnd.append(capped("<%s> %s & [%s] ~%s" % (x, psi, x, psi),
                              CONTRADICTION_CAP))
        psi = fill(shapes[r])
        rnd.append(capped("<B> %s & [B] (%s -> <B> %s)" % (psi, psi, psi),
                          WELL_FOUNDED_CAP))
        rounds.append(rnd)
    return {"rounds": rounds}


def gen_sat_models(rng):
    """Satisfiable queries that return certificates: begin/later
    conjunctions true at an interval of a random periodic model, full-language
    conjunctions true at an interval of a random finite model, and the
    definability equations."""
    sizes = _cycle(rng, [(1, 1), (1, 2), (2, 1), (2, 2)], MODELS_ROUNDS)
    lasts = _cycle(rng, [3, 4, 5, 6], MODELS_ROUNDS)
    equations = [{"kind": "equation", "index": i} for i in range(6)]
    equations.append({"kind": "countermodel",
                      "lhs": ("dia", "L", ("atom", "p")),
                      "rhs": ("dia", "B", ("atom", "p"))})
    rounds = []
    for r in range(MODELS_ROUNDS):
        pre, per = sizes[r]
        m = _random_periodic(rng, pre, per)
        x = rng.randint(0, pre + per)
        w = (x, x + rng.randint(1, 2 * per))
        parts = []
        while len(parts) < 8:
            f = R.random_formula(rng, LETTERS, BBLL, 1, existential_right=True)
            if R.modal_depth(f) and R.decide(
                    m, f, w, _periodic_horizons(w[1], m.size())) is True:
                parts.append(f)
        bbll = {"kind": "bbll", "f": R.conj(parts), "source_size": m.size()}

        last = lasts[r]
        fm = _random_finite(rng, last, LETTERS)
        w = rng.choice(fm.cells())
        parts = []
        while len(parts) < 8:
            f = R.random_formula(rng, LETTERS, R.MODALITIES, 3)
            if R.modal_depth(f) and R.evaluate(fm, f, w):
                parts.append(f)
        finite = {"kind": "finite", "f": R.conj(parts), "max_points": last,
                  "source_size": last}
        rounds.append([bbll, finite, equations[r % len(equations)]])
    for rnd in rounds:
        for q in rnd:
            for key in ("f", "lhs", "rhs"):
                if key in q:
                    q[key + "_text"] = R.render(q[key])
    return {"rounds": rounds}


def gen_mc_periodic(rng):
    """Depth-2 formulas on random periodic models. Per round, on one model:
    eight queries near the origin, two with both endpoints in
    [FAR_LO, FAR_HI], and the fixed KNOWN_FAULT query."""
    depth = 2
    combos = [(pre, per) for pre in (1, 2, 3) for per in (1, 2, 3)]
    sizes = _cycle(rng, combos, PERIODIC_ROUNDS)
    # Far left endpoints: for each period, evenly spread over
    # [FAR_LO, FAR_HI], so that every seed shifts by the same mix of periods.
    targets = {}
    for per in {p for _, p in sizes}:
        n = 2 * sum(1 for _, p in sizes if p == per)
        span = (FAR_HI - FAR_LO) / n
        targets[per] = [int(FAR_LO + (k + rng.random()) * span)
                        for k in range(n)]
        rng.shuffle(targets[per])
    models = [KNOWN_FAULT["model"]]
    fault = {"kind": "mc", "model": 0, "formula": KNOWN_FAULT["formula"],
             "interval": KNOWN_FAULT["interval"],
             "expected": KNOWN_FAULT["expected"], "known_fault": True}
    rounds = []
    for r in range(PERIODIC_ROUNDS):
        pre, per = sizes[r]
        m = _random_periodic(rng, pre, per)
        models.append(m.to_ism())
        rnd = []
        while len(rnd) < 8:
            f = _formula_of_depth(rng, PERIODIC_MODS, depth)
            x = rng.randint(0, pre + per)
            i = (x, x + rng.randint(1, 2 * per))
            v = R.decide(m, f, i, _periodic_horizons(i[1], m.size()))
            if v is not None:
                rnd.append({"kind": "mc", "model": len(models) - 1,
                            "formula": R.render(f), "interval": i,
                            "expected": v})
        while len(rnd) < 10:
            # Decided well past the prefix, then moved out by whole periods
            # along the diagonal; the value is taken only when it agrees one
            # period further out.
            f = _formula_of_depth(rng, PERIODIC_MODS, depth)
            x = pre + 2 * (depth + 1) * per + rng.randrange(per)
            i = (x, x + rng.randint(1, 2 * per))
            v = R.decide(m, f, i, _periodic_horizons(i[1], m.size()))
            if v is None or v != R.decide(
                    m, f, (i[0] + per, i[1] + per),
                    _periodic_horizons(i[1] + per, m.size())):
                continue
            k = (targets[per].pop() - x) // per
            rnd.append({"kind": "mc", "model": len(models) - 1,
                        "formula": R.render(f),
                        "interval": (x + k * per, i[1] + k * per),
                        "expected": v})
        rnd.append(fault)
        rounds.append(rnd)
    return {"models": models, "rounds": rounds}


def gen_mc_finite(rng):
    """Random finite models, each queried through one FiniteEvaluator with
    formulas built over a shared stock of subformulas; every round ends with
    one verify_encoding call on the zero-test automaton's intended model."""
    letters = ["p", "q", "r"]
    lasts = _cycle(rng, [10, 12, 14, 16], FINITE_GROUPS)
    models, groups = [], []
    for g in range(FINITE_GROUPS):
        m = _random_finite(rng, lasts[g], letters)
        models.append(m.to_ism())
        stock = [R.random_formula(rng, letters, R.MODALITIES, 2)
                 for _ in range(6)]
        group = []
        for _ in range(FINITE_QUERIES):
            f = R.random_formula(rng, letters, R.MODALITIES, 2, leaves=stock)
            i = rng.choice(m.cells())
            group.append({"kind": "fe", "model": g, "formula": R.render(f),
                          "interval": i, "expected": R.evaluate(m, f, i)})
        group[0]["fresh"] = True
        groups.append(group)
    verify = {"kind": "verify", "blocks": VERIFY_BLOCKS,
              "margin": VERIFY_MARGIN}
    rounds = [sum(groups[k:k + FINITE_GROUPS_PER_ROUND], []) + [verify]
              for k in range(0, FINITE_GROUPS, FINITE_GROUPS_PER_ROUND)]
    return {"models": models, "rounds": rounds}


GENERATORS = {
    "sat_unsat": gen_sat_unsat,
    "sat_models": gen_sat_models,
    "mc_periodic": gen_mc_periodic,
    "mc_finite": gen_mc_finite,
}


def generate(workload: str, seed: int) -> dict:
    rng = random.Random("%s/%d" % (workload, seed))
    return GENERATORS[workload](rng)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    json.dump(generate(args.workload, args.seed), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
