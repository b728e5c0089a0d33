"""Counter automata with increment, decrement, and zero-test transitions.

Two step relations are provided. step_exact applies a transition under the
usual semantics and raises GuardError when the guard is violated.
step_incrementing is the faulty variant in which any counter may silently
gain errors before and after the exact step, bounded here by a slack
parameter per counter so the successor set stays finite.

The text format (.ica) is line based:

    # comment
    alphabet a b
    states q0 q1
    init q0
    final q1
    counters 1
    trans q0 a inc 1 q0
    trans q0 eps ifz 1 q1

Counters are indexed from 1. The letter field "eps" stands for an
unlabelled transition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Set, Tuple

OPS = ("inc", "dec", "ifz")


class GuardError(ValueError):
    """A transition guard rejected the configuration."""


class AutomatonFormatError(ValueError):
    def __init__(self, message: str, line: int = 0):
        self.line = line
        if line:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


@dataclass(frozen=True)
class Transition:
    src: str
    letter: Optional[str]  # None for an unlabelled step
    op: str
    counter: int
    dst: str

    def __post_init__(self):
        if self.op not in OPS:
            raise ValueError("unknown operation %r" % (self.op,))
        if self.counter < 1:
            raise ValueError("counters are indexed from 1")


class Config(NamedTuple):
    state: str
    counters: Tuple[int, ...]


@dataclass(frozen=True)
class CounterAutomaton:
    states: Tuple[str, ...]
    alphabet: Tuple[str, ...]
    num_counters: int
    init: str
    finals: Tuple[str, ...]
    transitions: Tuple[Transition, ...]

    def __post_init__(self):
        states = set(self.states)
        if len(states) != len(self.states):
            raise ValueError("duplicate state")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate letter")
        if "eps" in self.alphabet:
            raise ValueError("'eps' marks an unlabelled step, not a letter")
        if self.num_counters < 0:
            raise ValueError("negative counter count")
        if self.init not in states:
            raise ValueError("unknown initial state %r" % (self.init,))
        for q in self.finals:
            if q not in states:
                raise ValueError("unknown final state %r" % (q,))
        letters = set(self.alphabet)
        for t in self.transitions:
            if t.src not in states or t.dst not in states:
                raise ValueError("transition on unknown state: %r" % (t,))
            if t.letter is not None and t.letter not in letters:
                raise ValueError("transition on unknown letter: %r" % (t,))
            if t.counter > max(self.num_counters, 0):
                raise ValueError("transition on unknown counter: %r" % (t,))

    def initial_config(self) -> Config:
        return Config(self.init, (0,) * self.num_counters)

    def has_eps(self) -> bool:
        return any(t.letter is None for t in self.transitions)


def step_exact(auto: CounterAutomaton, config: Config,
               trans: Transition) -> Config:
    """Apply one transition; GuardError on a failing guard."""
    if trans not in auto.transitions:
        raise ValueError("transition does not belong to the automaton")
    if trans.src != config.state:
        raise ValueError("transition source %r does not match state %r"
                         % (trans.src, config.state))
    vals = list(config.counters)
    i = trans.counter - 1
    if trans.op == "inc":
        vals[i] += 1
    elif trans.op == "dec":
        if vals[i] == 0:
            raise GuardError("decrement of counter %d at zero" % trans.counter)
        vals[i] -= 1
    else:  # ifz
        if vals[i] != 0:
            raise GuardError("zero test of counter %d at value %d"
                             % (trans.counter, vals[i]))
    return Config(trans.dst, tuple(vals))


def step_incrementing(auto: CounterAutomaton, config: Config,
                      trans: Transition, slack: int = 1) -> Set[Config]:
    """Successor set under incrementing errors: counters may gain up to
    slack spurious units before the guard is evaluated and again after."""
    if slack < 0:
        raise ValueError("negative slack")
    k = auto.num_counters
    out: Set[Config] = set()
    for pre in itertools.product(range(slack + 1), repeat=k):
        inflated = Config(config.state,
                          tuple(c + d for c, d in zip(config.counters, pre)))
        try:
            mid = step_exact(auto, inflated, trans)
        except GuardError:
            continue
        for post in itertools.product(range(slack + 1), repeat=k):
            out.add(Config(mid.state,
                           tuple(c + d for c, d in zip(mid.counters, post))))
    return out


def run_exact(auto: CounterAutomaton,
              transitions: List[Transition],
              start: Optional[Config] = None) -> List[Config]:
    """Configurations visited by a transition sequence, initial one first."""
    cur = auto.initial_config() if start is None else start
    out = [cur]
    for t in transitions:
        cur = step_exact(auto, cur, t)
        out.append(cur)
    return out


def load_automaton(text: str) -> CounterAutomaton:
    states: List[str] = []
    alphabet: List[str] = []
    init: Optional[str] = None
    finals: List[str] = []
    counters: Optional[int] = None
    raw_trans: List[Tuple[int, List[str]]] = []
    seen: Set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind in ("alphabet", "states", "final"):
            if kind in seen and kind != "final":
                raise AutomatonFormatError("duplicate %s line" % kind, lineno)
            seen.add(kind)
            if kind == "alphabet":
                alphabet.extend(parts[1:])
            elif kind == "states":
                states.extend(parts[1:])
            else:
                finals.extend(parts[1:])
        elif kind == "init":
            if len(parts) != 2:
                raise AutomatonFormatError("init takes one state", lineno)
            if init is not None:
                raise AutomatonFormatError("duplicate init line", lineno)
            init = parts[1]
        elif kind == "counters":
            if len(parts) != 2:
                raise AutomatonFormatError("counters takes one number", lineno)
            if counters is not None:
                raise AutomatonFormatError("duplicate counters line", lineno)
            try:
                counters = int(parts[1])
            except ValueError:
                raise AutomatonFormatError("bad counter count %r" % parts[1],
                                           lineno)
        elif kind == "trans":
            if len(parts) != 6:
                raise AutomatonFormatError(
                    "trans takes SRC LETTER OP INDEX DST", lineno)
            raw_trans.append((lineno, parts[1:]))
        else:
            raise AutomatonFormatError("unknown directive %r" % kind, lineno)
    if not states:
        raise AutomatonFormatError("no states declared")
    if init is None:
        raise AutomatonFormatError("no initial state declared")
    if counters is None:
        counters = 0
    transitions = []
    for lineno, (src, letter, op, idx, dst) in raw_trans:
        if op not in OPS:
            raise AutomatonFormatError("unknown operation %r" % op, lineno)
        try:
            counter = int(idx)
        except ValueError:
            raise AutomatonFormatError("bad counter index %r" % idx, lineno)
        if not 1 <= counter <= max(counters, 0):
            raise AutomatonFormatError("counter %d out of range" % counter,
                                       lineno)
        transitions.append(Transition(
            src, None if letter == "eps" else letter, op, counter, dst))
    try:
        return CounterAutomaton(
            states=tuple(states), alphabet=tuple(alphabet),
            num_counters=counters, init=init, finals=tuple(finals),
            transitions=tuple(transitions))
    except ValueError as e:
        raise AutomatonFormatError(str(e))


def save_automaton(auto: CounterAutomaton) -> str:
    lines = []
    if auto.alphabet:
        lines.append("alphabet " + " ".join(auto.alphabet))
    lines.append("states " + " ".join(auto.states))
    lines.append("init " + auto.init)
    if auto.finals:
        lines.append("final " + " ".join(auto.finals))
    lines.append("counters %d" % auto.num_counters)
    for t in auto.transitions:
        lines.append("trans %s %s %s %d %s" % (
            t.src, t.letter if t.letter is not None else "eps",
            t.op, t.counter, t.dst))
    return "\n".join(lines) + "\n"


def ifz_automaton() -> CounterAutomaton:
    """One-state, one-counter fixture whose single transition is a zero
    test looping on the accepting initial state."""
    return CounterAutomaton(
        states=("q0",),
        alphabet=("a",),
        num_counters=1,
        init="q0",
        finals=("q0",),
        transitions=(
            Transition("q0", "a", "ifz", 1, "q0"),
        ))


def pump_automaton() -> CounterAutomaton:
    """Richer fixture: pump the counter up and down with a and b, pass a
    zero test to reach the accepting loop."""
    return CounterAutomaton(
        states=("q0", "q1"),
        alphabet=("a", "b"),
        num_counters=1,
        init="q0",
        finals=("q1",),
        transitions=(
            Transition("q0", "a", "inc", 1, "q0"),
            Transition("q0", "b", "dec", 1, "q0"),
            Transition("q0", "a", "ifz", 1, "q1"),
            Transition("q1", "a", "ifz", 1, "q1"),
        ))
