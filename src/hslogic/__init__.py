"""Reasoning toolkit for interval temporal logic over discrete orders.

Formulas are evaluated on intervals [x, y] with x < y of a finite or an
ultimately periodic linear order, one modality per interval ordering
relation. The package bundles a model checker, a satisfiability decider
for the begins/later family with certificate output, fragment
classification with a definability atlas, counter-automaton run
encodings, and bisimulation-based undefinability certificates.
"""

from .syntax import (
    A, iA, B, iB, D, iD, E, iE, L, iL, O, iO,
    ALL_MODALITIES, MODALITIES_BY_NAME, Modality,
    Atom, TrueConst, FalseConst, Not, And, Or, Implies, Diamond, Box,
    Formula, Fragment, FormulaMetrics, TRUE, FALSE,
    ast_size, box, closure, conj, desugar, dia, disj, fragment_of, iff,
    letters_of, metrics, mirror_formula, mirror_fragment, modal_depth,
    neg, render, subformulas,
)
from .parser import ParseError, parse_formula, parse_fragment
from .models import (
    FiniteDomain, PeriodicDomain, Interval, IntervalModel,
    ModelFormatError, canonical_cells, canonical_interval, finite_model,
    load_model, periodic_model, reverse_interval, reverse_model, save_model,
    valid_interval,
)
from .checking import (
    NotStabilized, allen_related, mc_finite, mc_periodic,
    periodic_stable_tables,
)
from .sat import (
    Sat, Unsat, Unknown, SatResult, UnsupportedFragmentError,
    check_certificate, later_somewhere, sat_bbll, sat_bounded_finite,
)
from .automata import (
    AutomatonFormatError, Config, CounterAutomaton, GuardError,
    Transition, ifz_automaton, load_automaton, pump_automaton, run_exact,
    save_automaton, step_exact, step_incrementing,
)
from .encoding import (
    EncodingError, counter_letter, encode_ae, encode_ae_groups,
    encode_ae_pieces, encode_fragment, ifz_block_model, layout_run,
    universal_ae, universal_abl, verify_encoding,
)
from .bisim import (
    UndefinabilityWitness, certify_undefinability, is_f_bisimulation,
    largest_f_bisimulation, later_witness, meets_witness,
)
from .atlas import (
    Countermodel, NoCountermodel, EquationCheck,
    DECIDABLE_NONPR, EXPSPACE, NEXPTIME, NPC, ORDER_CLASSES, UNDECIDABLE,
    check_equation, cited_equations, classify, definable_closure,
    enumerate_fragments, fragment_leq, hasse_dot,
)

__version__ = "0.1.0"
