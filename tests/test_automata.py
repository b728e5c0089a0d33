"""Counter automata: guards, faulty steps, the .ica format."""

import pytest

from hslogic.automata import (
    AutomatonFormatError, Config, CounterAutomaton, GuardError,
    Transition, ifz_automaton, load_automaton, pump_automaton, run_exact,
    save_automaton, step_exact, step_incrementing,
)


def two_state():
    return CounterAutomaton(
        states=("q0", "q1"),
        alphabet=("a", "b"),
        num_counters=1,
        init="q0",
        finals=("q1",),
        transitions=(
            Transition("q0", "a", "inc", 1, "q1"),
            Transition("q1", "b", "dec", 1, "q0"),
        ))


def test_step_exact_frozen_examples():
    auto = two_state()
    inc, dec = auto.transitions
    assert step_exact(auto, Config("q0", (0,)), inc) == Config("q1", (1,))
    assert step_exact(auto, Config("q1", (1,)), dec) == Config("q0", (0,))


def test_guard_violations():
    auto = ifz_automaton()
    t = auto.transitions[0]
    with pytest.raises(GuardError):
        step_exact(auto, Config("q0", (2,)), t)
    pump = pump_automaton()
    dec = pump.transitions[1]
    with pytest.raises(GuardError):
        step_exact(pump, Config("q0", (0,)), dec)


def test_step_exact_rejects_foreign_transition():
    auto = two_state()
    inc = auto.transitions[0]
    with pytest.raises(ValueError):
        step_exact(auto, Config("q1", (0,)), inc)  # wrong source state
    other = Transition("q0", "a", "inc", 1, "q0")
    with pytest.raises(ValueError):
        step_exact(auto, Config("q0", (0,)), other)  # not in the automaton


def test_incrementing_frozen_examples():
    auto = ifz_automaton()
    t = auto.transitions[0]
    got = step_incrementing(auto, Config("q0", (0,)), t, slack=1)
    assert got == {Config("q0", (0,)), Config("q0", (1,))}
    pump = pump_automaton()
    dec = pump.transitions[1]
    got = step_incrementing(pump, Config("q0", (0,)), dec, slack=1)
    assert got == {Config("q0", (0,)), Config("q0", (1,))}


def test_incrementing_slack_zero_matches_exact():
    auto = two_state()
    inc = auto.transitions[0]
    c = Config("q0", (3,))
    assert step_incrementing(auto, c, inc, slack=0) == \
        {step_exact(auto, c, inc)}
    # guard unsatisfiable within slack: empty set, no error
    pump = pump_automaton()
    dec = pump.transitions[1]
    assert step_incrementing(pump, Config("q0", (0,)), dec, slack=0) == set()


def test_incrementing_monotone_in_slack():
    pump = pump_automaton()
    c = Config("q0", (1,))
    for t in pump.transitions:
        if t.src != "q0":
            continue
        prev = None
        for slack in range(0, 4):
            cur = step_incrementing(pump, c, t, slack=slack)
            if prev is not None:
                assert prev <= cur
            prev = cur


def test_run_exact():
    auto = ifz_automaton()
    t = auto.transitions[0]
    confs = run_exact(auto, [t, t, t])
    assert confs == [Config("q0", (0,))] * 4
    pump = pump_automaton()
    inc, dec, ifz, loop = pump.transitions
    confs = run_exact(pump, [inc, dec, ifz])
    assert [c.state for c in confs] == ["q0", "q0", "q0", "q1"]
    with pytest.raises(GuardError):
        run_exact(pump, [dec])


def test_validation_errors():
    with pytest.raises(ValueError):
        CounterAutomaton(states=("q0",), alphabet=("a",), num_counters=1,
                         init="qX", finals=("q0",), transitions=())
    with pytest.raises(ValueError):
        CounterAutomaton(states=("q0",), alphabet=("a",), num_counters=1,
                         init="q0", finals=("qX",), transitions=())
    with pytest.raises(ValueError):
        Transition("q0", "a", "bump", 1, "q0")
    with pytest.raises(ValueError):
        Transition("q0", "a", "inc", 0, "q0")
    with pytest.raises(ValueError):
        CounterAutomaton(states=("q0",), alphabet=("a",), num_counters=1,
                         init="q0", finals=("q0",),
                         transitions=(Transition("q0", "a", "inc", 2, "q0"),))


def test_ica_round_trip_and_errors():
    for auto in (ifz_automaton(), pump_automaton(), two_state()):
        assert load_automaton(save_automaton(auto)) == auto
    eps = CounterAutomaton(states=("q0",), alphabet=("a",), num_counters=1,
                           init="q0", finals=("q0",),
                           transitions=(Transition("q0", None, "inc", 1,
                                                   "q0"),))
    text = save_automaton(eps)
    assert " eps " in text
    assert load_automaton(text) == eps
    with pytest.raises(AutomatonFormatError):
        load_automaton("")
    with pytest.raises(AutomatonFormatError) as e:
        load_automaton("alphabet a\nstates q0\ninit q0\nfinal q0\n"
                       "counters 1\ntrans q0 a bump 1 q0\n")
    assert e.value.line == 6
    with pytest.raises(AutomatonFormatError) as e:
        load_automaton("states a\ninit a\ncounters 2\ncounters 3\n")
    assert e.value.line == 4 and "duplicate counters line" in str(e.value)
