"""Outside-in layer tracing for the benchmark's traced run.

`Tracer.install` replaces hslogic's public functions with timing wrappers
in the module namespaces their callers look them up in (for example
`hslogic.sat.metrics`, which is the name `sat_bbll` calls), and `uninstall`
puts the originals back. Nothing in `src/` is edited.

Calls made a few times per query get a span: (id, name, start, end, parent
span id, query id), kept in memory and written out by `write`. Calls made
thousands of times per query (clause loading, atom lookups, interval
canonicalisation) only add to a per-name count and busy time, which is also
charged to the enclosing span so that self times stay right.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import hslogic
import hslogic.atlas
import hslogic.checking
import hslogic.models
import hslogic.sat


# per-layer metric -> the span or timed wrapper whose busy time it reports
PER_QUERY_TIMES = [
    ("syntax.normalise_s", "syntax.normalise"),
    ("solver.load_s", "solver.load"),
    ("solver.solve_s", "solver.solve"),
    ("checking.recheck_s", "checking.recheck"),
    ("checking.check_s", "checking.check"),
    ("checking.reduce_query_s", "checking.reduce_query"),
    ("models.canonical_s", "models.canonical"),
    ("models.allen_related_s", "models.allen_related"),
    ("encoding.verify_s", "encoding.verify"),
]
# per-layer metric -> the counter it reports
PER_QUERY_COUNTS = [
    ("syntax.modal_depth_calls", "syntax.modal_depth"),
    ("sat.candidates", "sat.candidates"),
    ("sat.cnf_vars", "sat.cnf_vars"),
    ("sat.cnf_clauses", "solver.load"),
    ("solver.learnt_clauses", "solver.learnt"),
    ("models.holds_atom_calls", "models.holds_atom"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []          # open spans: [id, time in children, name]
        self.next_id = 0
        self.query = None
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self._saved = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, only_under=None):
        """Wrap fn in a span; with only_under, only calls made directly
        inside a span of that name get one."""
        tr = self

        def wrapper(*args, **kwargs):
            if only_under is not None and (
                    not tr.stack or tr.stack[-1][2] != only_under):
                return fn(*args, **kwargs)
            sid = tr.next_id
            tr.next_id += 1
            parent = tr.stack[-1][0] if tr.stack else None
            tr.stack.append([sid, 0.0, name])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _, children, _ = tr.stack.pop()
                dur = end - start
                if tr.stack:
                    tr.stack[-1][1] += dur
                tr.spans.append((sid, name, start, end, parent, tr.query))
                tr.calls[name] += 1
                tr.busy[name] += dur
                tr.self_time[name] += dur - children
        return wrapper

    def timed(self, name, fn):
        tr = self

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                tr.calls[name] += 1
                tr.busy[name] += dur
                if tr.stack:
                    tr.stack[-1][1] += dur
        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def run_query(self, qid, call):
        self.query = qid
        try:
            return self.span("query", call)()
        finally:
            self.query = None

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        hs, sat, checking, models = (hslogic, hslogic.sat, hslogic.checking,
                                     hslogic.models)
        tr = self
        for name in ("parse_formula", "load_model"):
            self._patch(hs, name, self.span("parser.parse", getattr(hs, name)))
        # calls from the workload
        for name in ("sat_bbll", "sat_bounded_finite"):
            self._patch(hs, name, self.span("sat." + name, getattr(hs, name)))
        self._patch(hs, "check_equation",
                    self.span("atlas.check_equation", hs.check_equation))
        for name in ("mc_periodic", "mc_finite"):
            self._patch(hs, name,
                        self.span("checking.check", getattr(hs, name)))
        self._patch(hs, "verify_encoding",
                    self.span("encoding.verify", hs.verify_encoding))
        base_fe = checking.FiniteEvaluator

        class TracedFiniteEvaluator(base_fe):
            # mc_finite makes evaluators too; only the workload's own
            # FiniteEvaluator.value calls are checking.check
            value = tr.span("checking.check", base_fe.value, "query")
        self._patch(checking, "FiniteEvaluator", TracedFiniteEvaluator)
        # calls made inside the satisfiability module
        self._patch(hslogic.atlas, "sat_bounded_finite",
                    self.span("sat.sat_bounded_finite",
                              hslogic.atlas.sat_bounded_finite))
        for name in ("metrics", "letters_of", "fragment_of"):
            self._patch(sat, name, self.span("syntax.normalise",
                                             getattr(sat, name)))
        for name in ("mc_periodic", "mc_finite"):
            self._patch(sat, name, self.span("checking.recheck",
                                             getattr(sat, name)))
        self._patch(sat, "allen_related",
                    self.timed("models.allen_related", sat.allen_related))
        self._patch(sat, "canonical_interval",
                    self.timed("models.canonical", sat.canonical_interval))
        base_solver = sat.Solver

        class TracedSolver(base_solver):
            def __init__(self):
                tr.calls["sat.candidates"] += 1
                super().__init__()

            def new_var(self):
                tr.calls["sat.cnf_vars"] += 1
                return super().new_var()

            add_clause = tr.timed("solver.load", base_solver.add_clause)

            def solve(self):
                before = len(self.clauses)
                try:
                    return tr.span("solver.solve", super().solve)()
                finally:
                    tr.calls["solver.learnt"] += len(self.clauses) - before
        self._patch(sat, "Solver", TracedSolver)
        # calls made inside the model checker and the model module
        for owner in (sat, checking):
            self._patch(owner, "modal_depth",
                        self.counted("syntax.modal_depth", owner.modal_depth))
        self._patch(checking, "_reduce_query",
                    self.timed("checking.reduce_query",
                               checking._reduce_query))
        self._patch(models, "canonical_interval",
                    self.timed("models.canonical", models.canonical_interval))
        self._patch(models.IntervalModel, "holds_atom",
                    self.counted("models.holds_atom",
                                 models.IntervalModel.holds_atom))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- output -------------------------------------------------------------

    def layer_metrics(self, queries: int, scale: float) -> dict:
        """Per-layer figures per traced query; parse time is per set-up.
        Times are multiplied by scale, counts are not."""
        out = {"parser.parse_s": {"value": self.busy["parser.parse"] * scale,
                                  "unit": "s"}}
        sat_self = (self.self_time["sat.sat_bbll"]
                    + self.self_time["sat.sat_bounded_finite"])
        out["sat.encode_s"] = {"value": sat_self * scale / queries,
                               "unit": "s/query"}
        for metric, source in PER_QUERY_TIMES:
            out[metric] = {"value": self.busy[source] * scale / queries,
                           "unit": "s/query"}
        for metric, source in PER_QUERY_COUNTS:
            out[metric] = {"value": self.calls[source] / queries,
                           "unit": "count/query"}
        return out

    def write(self, path):
        """One JSON array per span, then one object with the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            fh.write(json.dumps({"calls": self.calls, "busy": self.busy,
                                 "self": self.self_time}) + "\n")
