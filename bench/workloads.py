"""Turning generated inputs into timed queries, and checking their outputs.

`prepare` is the workload's set-up: it parses formula text and loads .ism
text with hslogic, and returns the rounds of queries. A query is one call
into hslogic's public API on parsed inputs. Every hslogic name is looked up
on the package at call time (`hs.name`), so the traced run can wrap it.

Each query carries a `key` that reduces its output to plain data, and a
`check` that judges one output against the answer made in `inputs.py`, or,
for certificates, by the reference evaluator.
"""

from __future__ import annotations

from typing import Callable, List

import hslogic as hs

import reference as R


class Query:
    __slots__ = ("call", "key", "check", "known_fault")

    def __init__(self, call: Callable, key: Callable, check: Callable,
                 known_fault: bool = False):
        self.call = call
        self.key = key
        self.check = check
        self.known_fault = known_fault


def _tuple(f):
    """Formula tuples come back from JSON as lists."""
    return tuple(_tuple(x) if isinstance(x, list) else x for x in f)


def _verdict(expected: bool):
    return lambda out: out is expected


def _identity(out):
    return out


def _result_key(res):
    """Plain-data form of a Sat / Unsat / Countermodel / NoCountermodel."""
    model = getattr(res, "model", None)
    if model is None:
        return type(res).__name__
    return (type(res).__name__, hs.save_model(model), tuple(res.witness))


def _decide_periodic(model: R.Model, f, i):
    return R.decide(model, f, i, [i[1] + 2 * model.size() * k
                                  for k in (1, 2, 3, 4)])


def _confirms(f, size: int, finite: bool):
    """Check for a certificate: Sat, no larger than the model the query was
    drawn from, and the reference finds f true at the witness."""
    def check(key) -> bool:
        if key[0] != "Sat":
            return False
        model = R.model_from_ism(key[1])
        if model.periodic == finite or model.size() > size:
            return False
        if finite:
            return R.evaluate(model, f, key[2]) is True
        return _decide_periodic(model, f, key[2]) is True
    return check


def _disagree(lhs, rhs):
    """Check for a countermodel: lhs and rhs differ at the witness."""
    def check(key) -> bool:
        if key[0] != "Countermodel":
            return False
        model = R.model_from_ism(key[1])
        return R.evaluate(model, lhs, key[2]) != R.evaluate(model, rhs, key[2])
    return check


def _prepare_sat_unsat(inputs) -> List[List[Query]]:
    rounds = []
    for rnd in inputs["rounds"]:
        qs = []
        for item in rnd:
            phi = hs.parse_formula(item["formula"])
            qs.append(Query(lambda phi=phi: hs.sat_bbll(phi), _result_key,
                            lambda key: key == "Unsat"))
        rounds.append(qs)
    return rounds


def _prepare_sat_models(inputs) -> List[List[Query]]:
    cited = hs.cited_equations()
    rounds = []
    for rnd in inputs["rounds"]:
        qs = []
        for item in rnd:
            kind = item["kind"]
            if kind == "bbll":
                phi = hs.parse_formula(item["f_text"])
                qs.append(Query(
                    lambda phi=phi: hs.sat_bbll(phi), _result_key,
                    _confirms(_tuple(item["f"]), item["source_size"], False)))
            elif kind == "finite":
                phi = hs.parse_formula(item["f_text"])
                n = item["max_points"]
                qs.append(Query(
                    lambda phi=phi, n=n: hs.sat_bounded_finite(phi, n),
                    _result_key,
                    _confirms(_tuple(item["f"]), item["source_size"], True)))
            elif kind == "equation":
                _, lhs, rhs = cited[item["index"]]
                qs.append(Query(
                    lambda lhs=lhs, rhs=rhs: hs.check_equation(lhs, rhs),
                    _result_key, lambda key: key == "NoCountermodel"))
            elif kind == "countermodel":
                lhs = hs.parse_formula(item["lhs_text"])
                rhs = hs.parse_formula(item["rhs_text"])
                qs.append(Query(
                    lambda lhs=lhs, rhs=rhs: hs.check_equation(lhs, rhs),
                    _result_key,
                    _disagree(_tuple(item["lhs"]), _tuple(item["rhs"]))))
            else:
                raise ValueError("unknown query kind %r" % (kind,))
        rounds.append(qs)
    return rounds


def _prepare_mc_periodic(inputs) -> List[List[Query]]:
    models = [hs.load_model(text) for text in inputs["models"]]
    rounds = []
    for rnd in inputs["rounds"]:
        qs = []
        for item in rnd:
            m = models[item["model"]]
            phi = hs.parse_formula(item["formula"])
            i = tuple(item["interval"])
            qs.append(Query(
                lambda m=m, i=i, phi=phi: hs.mc_periodic(m, i, phi),
                _identity, _verdict(item["expected"]),
                item.get("known_fault", False)))
        rounds.append(qs)
    return rounds


class _Group:
    """One FiniteEvaluator per model and round: the first query of a group
    makes it, the rest reuse its tables."""

    __slots__ = ("model", "ev")

    def __init__(self, model):
        self.model = model
        self.ev = None

    def first(self, phi, i):
        self.ev = hs.checking.FiniteEvaluator(self.model)
        return self.ev.value(phi, i)

    def next(self, phi, i):
        return self.ev.value(phi, i)


def _prepare_mc_finite(inputs) -> List[List[Query]]:
    groups = [_Group(hs.load_model(text)) for text in inputs["models"]]
    pieces = hs.encode_ae_pieces(hs.ifz_automaton())
    verify_models = {}
    rounds = []
    for rnd in inputs["rounds"]:
        qs = []
        for item in rnd:
            if item["kind"] == "verify":
                n = item["blocks"]
                if n not in verify_models:
                    verify_models[n] = hs.ifz_block_model(n)
                qs.append(Query(
                    lambda m=verify_models[n], margin=item["margin"]:
                        hs.verify_encoding(m, pieces, margin=margin),
                    lambda res: tuple(res),
                    lambda key: len(key) > 0 and all(ok for _, ok in key)))
                continue
            g = groups[item["model"]]
            call = g.first if item.get("fresh") else g.next
            phi = hs.parse_formula(item["formula"])
            i = tuple(item["interval"])
            qs.append(Query(lambda call=call, phi=phi, i=i: call(phi, i),
                            _identity, _verdict(item["expected"])))
        rounds.append(qs)
    return rounds


PREPARE = {
    "sat_unsat": _prepare_sat_unsat,
    "sat_models": _prepare_sat_models,
    "mc_periodic": _prepare_mc_periodic,
    "mc_finite": _prepare_mc_finite,
}


def prepare(workload: str, inputs: dict) -> List[List[Query]]:
    return PREPARE[workload](inputs)
