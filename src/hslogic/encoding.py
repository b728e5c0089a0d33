"""Run encodings: from counter automata to formulas of the meets/ends pair
of modalities (and, by mirroring, the met-by/begins pair).

An accepting run is laid out as an unbounded sequence of unit intervals.
Each configuration becomes a block: a state unit, a letter unit, one unit
per counter value, and a separator unit. Configuration intervals span whole
blocks, and correspondence intervals stretch from a surviving counter unit
in one block to its carrier in the next, so counting survives from block to
block even though the logic itself cannot count. Zero tests are exact while
increments may pick up spurious units, which is precisely the incrementing
error model of the automata module.

The formula is assembled from named groups g01..g21 plus a fairness
conjunct. Groups g18, g19, g20 describe the three transition kinds and only
occur inside g21. Every group body is quantified over the reachable future
with a two-level box chain over the meets modality; the pieces view exposes
the raw bodies together with the window family each one constrains, which
is what the finite-unrolling checks in the test-suite evaluate directly.

Bookkeeping letters start with two underscores; user automata must avoid
that prefix as well as the displayed counter letters c1, c2, ...
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .automata import CounterAutomaton, Transition, ifz_automaton, run_exact
from .models import FiniteDomain, IntervalModel, finite_model
from .checking import FiniteEvaluator
from .parser import is_letter
from .syntax import (
    A, E, iA, L, Atom, FALSE, Formula, Implies, Not, TRUE, And,
    box, conj, dia, disj, iff, mirror_formula,
)


class EncodingError(ValueError):
    """An automaton name is not a formula letter or taken by the encoding."""


EPS_LETTER = "__eps"

def counter_letter(i: int) -> str:
    return "c%d" % i


def universal_ae(phi: Formula) -> Formula:
    """Quantify phi over the evaluation interval and everything starting at
    or after its right endpoint; two meets boxes reach all of those."""
    return conj([phi, box(A, phi), box(A, box(A, phi))])


def universal_abl(phi: Formula) -> Formula:
    """Mirror-side universal quantifier: phi here, later everywhere, and on
    everything reaching back into the gap the later box skips."""
    return And(phi, box(L, And(box(iA, phi), box(iA, box(iA, phi)))))


def _letter_of(t: Transition) -> str:
    return EPS_LETTER if t.letter is None else t.letter


def _check_names(auto: CounterAutomaton):
    states = set(auto.states)
    letters = set(auto.alphabet)
    if states & letters:
        raise EncodingError("state names and alphabet letters overlap: %s"
                            % sorted(states & letters))
    shown = {counter_letter(i) for i in range(1, auto.num_counters + 1)}
    for name in sorted(states | letters):
        if not is_letter(name):
            raise EncodingError("name %r is not a formula letter" % name)
        if name.startswith("__"):
            raise EncodingError("name %r uses the reserved prefix" % name)
        if name in shown:
            raise EncodingError("name %r collides with a displayed counter"
                                % name)


def _build(auto: CounterAutomaton):
    _check_names(auto)
    k = auto.num_counters
    sq, sa, sc, sb = (Atom("__sq"), Atom("__sa"), Atom("__sc"), Atom("__sb"))
    conf, confs = Atom("__conf"), Atom("__confs")
    conf_q, conf_a = Atom("__conf_q"), Atom("__conf_a")
    c_dec, c_new = Atom("__c_dec"), Atom("__c_new")
    conf_dec, conf_new = Atom("__conf_dec"), Atom("__conf_new")
    corr, corrs, corr_conf = Atom("__corr"), Atom("__corrs"), Atom("__corr_conf")

    state_atoms = [Atom(s) for s in auto.states]
    letter_names = list(auto.alphabet)
    if auto.has_eps():
        letter_names.append(EPS_LETTER)
    letter_atoms = [Atom(a) for a in letter_names]
    cs = {i: Atom(counter_letter(i)) for i in range(1, k + 1)}
    confc = {i: Atom("__conf_c%d" % i) for i in range(1, k + 1)}

    unit = box(E, FALSE)
    markers = [sq, sa, sc, sb]

    def excl(atoms: List[Formula]) -> Formula:
        parts = []
        for i, a in enumerate(atoms):
            for j, b in enumerate(atoms):
                if i != j:
                    parts.append(Implies(a, Not(b)))
        return conj(parts)

    pieces: List[Tuple[str, str, Formula]] = []

    def add(name: str, scope: str, body: Formula):
        pieces.append((name, scope, body))

    # letter classes and block shape
    add("g01", "universal", conj([
        iff(sq, disj(state_atoms)),
        iff(sa, disj(letter_atoms)),
        iff(sc, disj(list(cs.values()))),
    ]))
    add("g02", "universal", iff(unit, disj(markers)))
    add("g03", "universal", conj([
        Implies(m, Not(disj([m2 for m2 in markers if m2 is not m])))
        for m in markers
    ]))
    add("g04", "universal", conj([
        excl(state_atoms), excl(letter_atoms), excl(list(cs.values()))
    ]))

    # the first configuration: three units, counters at zero
    add("g05", "eval", dia(A, conj([
        conf,
        dia(E, dia(E, TRUE)),
        box(E, box(E, box(E, FALSE))),
    ])))
    add("g06", "universal",
        Implies(conf, And(dia(A, conf), dia(E, dia(E, TRUE)))))
    add("g07", "universal", And(
        Implies(conf, box(E, confs)),
        Implies(confs, Not(conf))))
    add("g08", "universal", And(
        Implies(dia(A, confs), Not(conf)),
        Implies(confs, And(dia(A, conf), Not(dia(E, conf))))))
    add("g09a", "eval", dia(A, Atom(auto.init)))
    add("g09b", "universal", iff(dia(A, conf), dia(A, sq)))
    add("g10", "universal", conj([
        Implies(sq, dia(A, sa)),
        Implies(disj([sa, sc]), dia(A, disj([sc, sb]))),
        Implies(sb, dia(A, sq)),
    ]))

    # addressing inside a configuration
    add("g11", "universal", And(
        Implies(sq, box(A, Implies(confs, conf_q))),
        Implies(sa, box(A, Implies(confs, conf_a)))))
    add("g12", "universal", And(
        Not(And(conf_q, dia(E, conf_q))),
        Not(And(conf_a, dia(E, conf_a)))))
    add("g13", "universal", conj([
        Implies(cs[i], box(A, Implies(confs, confc[i])))
        for i in range(1, k + 1)
    ]))
    add("g14a", "universal", conj([
        Implies(cl, And(sc, box(A, Implies(confs, cfl))))
        for cl, cfl in ((c_new, conf_new), (c_dec, conf_dec))
    ]))
    add("g14b", "universal", conj([
        Implies(And(unit, dia(A, cfl)), cl)
        for cl, cfl in ((c_new, conf_new), (c_dec, conf_dec))
    ]))
    add("g15", "universal", And(
        Not(And(conf_dec, dia(E, conf_dec))),
        Not(And(conf_new, dia(E, conf_new)))))

    # correspondence intervals carry surviving counter units forward
    add("g16a", "meets", Implies(dia(A, c_new), Not(dia(E, corr))))
    add("g16b", "universal",
        Implies(disj([sq, sa, c_dec]), box(A, Not(corr))))
    add("g16c", "universal", Implies(And(sc, Not(c_dec)), dia(A, corr)))
    add("g16d", "universal", Implies(And(unit, dia(A, corr)), sc))
    add("g17a", "universal", And(
        Implies(corr, And(box(E, corrs), dia(A, sc))),
        Implies(dia(A, conf), box(A, Implies(corrs, corr_conf)))))
    add("g17b", "universal", And(
        Not(And(corr_conf, dia(E, corr_conf))),
        Implies(corr, dia(E, corr_conf))))
    add("g17c", "universal", Implies(dia(A, corr_conf), dia(A, conf)))
    add("g17d", "universal", conj([
        Implies(cs[i], box(A, Implies(corr, dia(A, cs[i]))))
        for i in range(1, k + 1)
    ]))
    add("g17e", "universal", Not(And(corr, dia(E, corr))))

    # transition relation, one disjunct per transition of each kind
    def reads(t: Transition) -> Formula:
        return dia(A, And(Atom(t.src), dia(A, Atom(_letter_of(t)))))

    g18 = disj([
        And(reads(t), dia(A, conj([
            conf,
            dia(A, Atom(t.dst)),
            dia(A, And(conf, dia(E, And(confc[t.counter], conf_new)))),
        ])))
        for t in auto.transitions if t.op == "inc"
    ])
    g19 = disj([
        And(reads(t), dia(A, conj([
            conf,
            dia(A, Atom(t.dst)),
            dia(E, And(confc[t.counter], conf_dec)),
        ])))
        for t in auto.transitions if t.op == "dec"
    ])
    g20 = disj([
        And(reads(t), dia(A, conj([
            conf,
            dia(A, Atom(t.dst)),
            box(E, Not(confc[t.counter])),
        ])))
        for t in auto.transitions if t.op == "ifz"
    ])
    add("g21", "universal", Implies(dia(A, conf), disj([g18, g19, g20])))
    add("fair", "meets",
        dia(A, dia(A, disj([Atom(f) for f in auto.finals]))))
    return pieces, [("g18", g18), ("g19", g19), ("g20", g20)]


def encode_ae_pieces(auto: CounterAutomaton):
    """Raw group bodies with the window family each constrains.

    Returns (name, scope, body) triples. Scope "eval" means the body holds
    at the evaluation interval only, "meets" at every interval starting at
    its right endpoint, "universal" there and at every interval starting at
    or past it."""
    pieces, _ = _build(auto)
    return pieces


def encode_ae_groups(auto: CounterAutomaton) -> List[Tuple[str, Formula]]:
    """Named conjuncts of the encoding, quantifiers applied, plus the three
    transition-kind disjunctions g18..g20 that g21 embeds."""
    pieces, extra = _build(auto)
    wrapped: Dict[str, List[Formula]] = {}
    order: List[str] = []
    for name, scope, body in pieces:
        group = name if name == "fair" else name[:3]
        if scope == "eval":
            part = body
        elif scope == "meets":
            part = box(A, body)
        else:
            part = universal_ae(body)
        if group not in wrapped:
            wrapped[group] = []
            order.append(group)
        wrapped[group].append(part)
    out = []
    for group in order:
        if group == "g21":
            out.extend(extra)
        out.append((group, conj(wrapped[group])))
    return out


def encode_ae(auto: CounterAutomaton) -> Formula:
    """Formula whose models starting at the evaluation interval lay out an
    accepting incrementing run of the automaton."""
    skip = {"g18", "g19", "g20"}
    return conj([f for name, f in encode_ae_groups(auto)
                 if name not in skip])


def encode_fragment(auto: CounterAutomaton, fragment: str) -> Formula:
    """Encoding for the named two-modality fragment: "AE" as built, "iAB"
    by mirroring."""
    if fragment == "AE":
        return encode_ae(auto)
    if fragment == "iAB":
        return mirror_formula(encode_ae(auto))
    raise ValueError("unknown fragment %r; expected AE or iAB" % (fragment,))


def layout_run(auto: CounterAutomaton,
               transitions: List[Transition]) -> IntervalModel:
    """Finite model laying out the exact run driven by the transition list.

    One block per configuration; the final block takes a filler letter
    since no transition leaves it. Guard violations in the run surface as
    GuardError. Intended for finite-unrolling checks of the encoding with a
    margin wide enough to hide the truncated tail."""
    _check_names(auto)
    configs = run_exact(auto, transitions)
    k = auto.num_counters
    val: Dict[str, List[Tuple[int, int]]] = {}

    def mark(letter: str, u: int, v: int):
        val.setdefault(letter, []).append((u, v))

    if auto.alphabet:
        filler = auto.alphabet[0]
    elif auto.has_eps():
        filler = EPS_LETTER
    else:
        raise EncodingError("no letter available for the final block")

    mark("__sb", 0, 1)
    t = 1
    starts: List[int] = []
    blocks = []  # (counter unit cells per index, new index, dec index)
    for j, cfg in enumerate(configs):
        starts.append(t)
        mark(cfg.state, t, t + 1)
        mark("__sq", t, t + 1)
        t += 1
        letter = _letter_of(transitions[j]) if j < len(transitions) else filler
        mark(letter, t, t + 1)
        mark("__sa", t, t + 1)
        t += 1
        cunits: Dict[int, List[Tuple[int, int]]] = {}
        for i in range(1, k + 1):
            cells = []
            for _ in range(cfg.counters[i - 1]):
                cells.append((t, t + 1))
                mark(counter_letter(i), t, t + 1)
                mark("__sc", t, t + 1)
                t += 1
            cunits[i] = cells
        new_i = (transitions[j - 1].counter
                 if j > 0 and transitions[j - 1].op == "inc" else None)
        dec_i = (transitions[j].counter
                 if j < len(transitions) and transitions[j].op == "dec"
                 else None)
        if new_i is not None:
            mark("__c_new", *cunits[new_i][-1])
        if dec_i is not None:
            mark("__c_dec", *cunits[dec_i][-1])
        mark("__sb", t, t + 1)
        t += 1
        blocks.append((cunits, new_i, dec_i))

    bounds = starts + [t]
    for j in range(len(configs)):
        u, v = bounds[j], bounds[j + 1]
        mark("__conf", u, v)
        for z in range(u + 1, v):
            mark("__confs", z, v)
        mark("__conf_q", u + 1, v)
        mark("__conf_a", u + 2, v)
        cunits, new_i, dec_i = blocks[j]
        for i in range(1, k + 1):
            for cell in cunits[i]:
                mark("__conf_c%d" % i, cell[1], v)
        if new_i is not None:
            mark("__conf_new", cunits[new_i][-1][1], v)
        if dec_i is not None:
            mark("__conf_dec", cunits[dec_i][-1][1], v)

    for j in range(len(configs) - 1):
        cunits, _, dec_i = blocks[j]
        nxt_units, new_next, _ = blocks[j + 1]
        boundary = bounds[j + 1]
        for i in range(1, k + 1):
            sources = list(cunits[i])
            if dec_i == i:
                sources = sources[:-1]
            targets = list(nxt_units[i])
            if new_next == i:
                targets = targets[:-1]
            if len(sources) != len(targets):
                raise EncodingError(
                    "counter %d: %d survivors but %d carriers"
                    % (i, len(sources), len(targets)))
            for (su, sv), (tu, tv) in zip(sources, targets):
                mark("__corr", sv, tu)
                for z in range(sv + 1, tu):
                    mark("__corrs", z, tu)
                mark("__corr_conf", boundary, tu)
    return finite_model(t, val)


def ifz_block_model(blocks: int) -> IntervalModel:
    """Intended model for the zero-test fixture: the counter never moves,
    the zero test fires immediately and then loops in the accepting state."""
    if blocks < 2:
        raise ValueError("need at least two blocks")
    auto = ifz_automaton()
    return layout_run(auto, [auto.transitions[0]] * (blocks - 1))


def verify_encoding(model: IntervalModel,
                    pieces,
                    margin: int = 0) -> List[Tuple[str, bool]]:
    """Evaluate each piece on its window family over a finite unrolling,
    with [0, 1] as the evaluation interval: an "eval" piece at [0, 1], a
    "meets" piece at every [1, z], a "universal" one at [0, 1] and at every
    interval from point 1 on.

    Windows whose right endpoint falls within margin of the model's end are
    skipped, hiding the truncated tail of what stands in for an unbounded
    run. Returns (name, holds) pairs."""
    if not isinstance(model.domain, FiniteDomain):
        raise TypeError("verify_encoding needs a finite model")
    hi = model.domain.last_point - margin
    if hi <= 1:
        raise ValueError("margin %d leaves no windows" % margin)
    ev = FiniteEvaluator(model)
    out = []
    for name, scope, body in pieces:
        if scope == "eval":
            ok = ev.value(body, (0, 1))
        elif scope == "meets":
            ok = all(ev.value(body, (1, z)) for z in range(2, hi + 1))
        elif scope == "universal":
            ok = ev.value(body, (0, 1)) and all(
                ev.value(body, (u, v))
                for u in range(1, hi)
                for v in range(u + 1, hi + 1))
        else:
            raise ValueError("unknown scope %r" % (scope,))
        out.append((name, ok))
    return out
