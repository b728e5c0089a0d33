"""Reference evaluator for the benchmark, written apart from hslogic.

Formulas are nested tuples, models are plain data, and nothing here imports
hslogic. Truth is computed from the twelve interval relations as defined in
`RELATIONS`; the enumerators in `successors` produce the same sets quickly,
and `test_bench.py` checks them against the definitions.

Two modes:

* finite models are evaluated exactly by naive memoised recursion;
* periodic models are evaluated on the window of intervals with right
  endpoint at most a horizon, three-valued. The five relations that reach
  arbitrarily far right (A, iB, L, iD, O) always have successors beyond the
  window, so a diamond over one of them is true when the window holds a
  witness and undetermined otherwise (a box dually). The answer is never a
  guess: `True` and `False` hold in the whole model, `None` means the window
  was too small to tell.

Formula tuples: ("atom", name), ("true",), ("false",), ("not", f),
("and", f, g), ("or", f, g), ("implies", f, g), ("dia", mod, f),
("box", mod, f), with mod one of the twelve names below.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

Interval = Tuple[int, int]

MODALITIES = ("A", "iA", "B", "iB", "D", "iD", "E", "iE", "L", "iL", "O", "iO")
RIGHT_UNBOUNDED = frozenset(("A", "iB", "L", "iD", "O"))

# [x, y] R [u, v], straight from the definitions of the interval orderings.
RELATIONS = {
    "A": lambda x, y, u, v: u == y,
    "iA": lambda x, y, u, v: v == x,
    "B": lambda x, y, u, v: u == x and v < y,
    "iB": lambda x, y, u, v: u == x and v > y,
    "E": lambda x, y, u, v: v == y and u > x,
    "iE": lambda x, y, u, v: v == y and u < x,
    "D": lambda x, y, u, v: x < u and v < y,
    "iD": lambda x, y, u, v: u < x and y < v,
    "L": lambda x, y, u, v: u > y,
    "iL": lambda x, y, u, v: v < x,
    "O": lambda x, y, u, v: x < u < y < v,
    "iO": lambda x, y, u, v: u < x < v < y,
}


def successors(mod: str, x: int, y: int, last: int) -> Iterator[Interval]:
    """Intervals [u, v] with v <= last standing in relation mod to [x, y]."""
    if mod == "A":
        for v in range(y + 1, last + 1):
            yield (y, v)
    elif mod == "iA":
        for u in range(0, x):
            yield (u, x)
    elif mod == "B":
        for v in range(x + 1, y):
            yield (x, v)
    elif mod == "iB":
        for v in range(y + 1, last + 1):
            yield (x, v)
    elif mod == "E":
        for u in range(x + 1, y):
            yield (u, y)
    elif mod == "iE":
        for u in range(0, x):
            yield (u, y)
    elif mod == "D":
        for u in range(x + 1, y):
            for v in range(u + 1, y):
                yield (u, v)
    elif mod == "iD":
        for u in range(0, x):
            for v in range(y + 1, last + 1):
                yield (u, v)
    elif mod == "L":
        for u in range(y + 1, last + 1):
            for v in range(u + 1, last + 1):
                yield (u, v)
    elif mod == "iL":
        for u in range(0, x):
            for v in range(u + 1, x):
                yield (u, v)
    elif mod == "O":
        for u in range(x + 1, y):
            for v in range(y + 1, last + 1):
                yield (u, v)
    elif mod == "iO":
        for u in range(0, x):
            for v in range(x + 1, y):
                yield (u, v)
    else:
        raise ValueError("unknown modality %r" % (mod,))


class Model:
    """A finite order 0..last, or the naturals with a valuation repeating
    with period per past the prefix pre. `val` maps letters to sets of
    intervals; periodic valuations may name any representative."""

    def __init__(self, val: Dict[str, set], last: int = None,
                 pre: int = None, per: int = None):
        self.last, self.pre, self.per = last, pre, per
        self.periodic = last is None
        self.val = {p: {self.canonical(c) for c in cells}
                    for p, cells in val.items() if cells}

    def canonical(self, i: Interval) -> Interval:
        """Periodic models: shift left by whole periods while the left
        endpoint stays at or past the prefix (both endpoints move), then
        while the right endpoint stays at or past the prefix and ahead of
        the left one (the right endpoint moves alone)."""
        x, y = i
        if not self.periodic:
            return (x, y)
        pre, per = self.pre, self.per
        if x >= pre:
            k = (x - pre) // per
            x, y = x - k * per, y - k * per
        floor = max(pre, x + 1)
        if y >= floor:
            y -= ((y - floor) // per) * per
        return (x, y)

    def holds(self, letter: str, i: Interval) -> bool:
        cells = self.val.get(letter)
        return bool(cells) and self.canonical(i) in cells

    def cells(self) -> List[Interval]:
        """Every interval of a finite model; the canonical cells of a
        periodic one."""
        if not self.periodic:
            n = self.last
            return [(x, y) for x in range(n) for y in range(x + 1, n + 1)]
        pre, per = self.pre, self.per
        cut = pre + per
        return sorted({self.canonical((x, y)) for x in range(cut)
                       for y in range(x + 1, cut + per + 1)})

    def size(self) -> int:
        return self.last if not self.periodic else self.pre + self.per

    def to_ism(self) -> str:
        if self.periodic:
            lines = ["order periodic pre=%d per=%d" % (self.pre, self.per)]
        else:
            lines = ["order finite %d" % self.last]
        for p in sorted(self.val):
            for x, y in sorted(self.val[p]):
                lines.append("val %s %d %d" % (p, x, y))
        return "\n".join(lines) + "\n"


def model_from_ism(text: str) -> Model:
    """Read the .ism text the program writes (one order line, val lines)."""
    kind = None
    val: Dict[str, set] = {}
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "order":
            kind = parts[1:]
        elif parts[0] == "val":
            val.setdefault(parts[1], set()).add((int(parts[2]), int(parts[3])))
        else:
            raise ValueError("unexpected line %r" % (raw,))
    if kind and kind[0] == "finite":
        return Model(val, last=int(kind[1]))
    if kind and kind[0] == "periodic":
        return Model(val, pre=int(kind[1][4:]), per=int(kind[2][4:]))
    raise ValueError("missing order line")


def evaluate(model: Model, phi, i: Interval,
             horizon: int = None) -> Optional[bool]:
    """Truth of phi at interval i: exact on finite models; on periodic
    models True/False when the window up to horizon decides it, else None."""
    x, y = i
    if not 0 <= x < y:
        raise ValueError("not an interval: %r" % (i,))
    if model.periodic:
        if horizon is None or horizon < y:
            raise ValueError("periodic evaluation needs a horizon >= %d" % y)
        last, exact = horizon, False
    else:
        if y > model.last:
            raise ValueError("interval %r outside the model" % (i,))
        last, exact = model.last, True
    memo: Dict[tuple, Optional[bool]] = {}

    def ev(f, c: Interval) -> Optional[bool]:
        key = (f, c)
        if key in memo:
            return memo[key]
        op = f[0]
        if op == "atom":
            v = model.holds(f[1], c)
        elif op == "true":
            v = True
        elif op == "false":
            v = False
        elif op == "not":
            s = ev(f[1], c)
            v = None if s is None else not s
        elif op in ("and", "or", "implies"):
            a = ev(f[1], c)
            if op == "implies":
                a = None if a is None else not a
            settle = op != "and"  # the operand value that fixes the result
            if a is settle:
                v = settle
            else:
                b = ev(f[2], c)
                if b is settle:
                    v = settle
                elif a is None or b is None:
                    v = None
                else:
                    v = not settle
        elif op in ("dia", "box"):
            want = op == "dia"  # a successor with this value settles it
            v = not want
            for s in successors(f[1], c[0], c[1], last):
                w = ev(f[2], s)
                if w is want:
                    v = want
                    break
                if w is None:
                    v = None
            if v is not want and not exact and f[1] in RIGHT_UNBOUNDED:
                v = None
        else:
            raise ValueError("not a formula: %r" % (f,))
        memo[key] = v
        return v

    return ev(phi, (x, y))


def decide(model: Model, phi, i: Interval, horizons) -> Optional[bool]:
    """Periodic evaluation at growing horizons until one decides."""
    for h in horizons:
        v = evaluate(model, phi, i, h)
        if v is not None:
            return v
    return None


# ---- formula text and random formulas --------------------------------------

def render(f) -> str:
    """Fully parenthesised concrete syntax."""
    op = f[0]
    if op == "atom":
        return f[1]
    if op in ("true", "false"):
        return op
    if op == "not":
        return "~" + render(f[1])
    if op in ("dia", "box"):
        o, c = ("<", ">") if op == "dia" else ("[", "]")
        return "%s%s%s %s" % (o, f[1], c, render(f[2]))
    sym = {"and": "&", "or": "|", "implies": "->"}[op]
    return "(%s %s %s)" % (render(f[1]), sym, render(f[2]))


def conj(parts):
    out = parts[0]
    for p in parts[1:]:
        out = ("and", out, p)
    return out


def modal_depth(f) -> int:
    op = f[0]
    if op in ("atom", "true", "false"):
        return 0
    if op == "not":
        return modal_depth(f[1])
    if op in ("dia", "box"):
        return 1 + modal_depth(f[2])
    return max(modal_depth(f[1]), modal_depth(f[2]))


def random_formula(rng: random.Random, letters, mods, depth: int,
                   existential_right: bool = False, positive: bool = True,
                   leaves=None):
    """A random formula of modal depth at most depth over the letters, or
    over the given leaf formulas (each counted as depth 0) when leaves is set.

    With existential_right, a right-unbounded modality only occurs where its
    truth needs one witness: as a diamond under an even number of negations,
    as a box under an odd number. Such a formula, once true, is true on a
    finite window, so the periodic mode can confirm it."""
    if depth == 0 or rng.random() < 0.25:
        if leaves:
            return rng.choice(leaves)
        return ("atom", rng.choice(letters))
    k = rng.randrange(5)
    if k == 0:
        return ("not", random_formula(rng, letters, mods, depth,
                                      existential_right, not positive,
                                      leaves))
    if k in (1, 2):
        op = "and" if k == 1 else "or"
        return (op,
                random_formula(rng, letters, mods, depth - 1,
                               existential_right, positive, leaves),
                random_formula(rng, letters, mods, depth - 1,
                               existential_right, positive, leaves))
    mod = rng.choice(mods)
    if existential_right and mod in RIGHT_UNBOUNDED:
        op = "dia" if positive else "box"
    else:
        op = "dia" if k == 3 else "box"
    return (op, mod, random_formula(rng, letters, mods, depth - 1,
                                    existential_right, positive, leaves))
