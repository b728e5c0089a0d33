"""Two source trees timed in process on the benchmark's queries.

    python tests/inprocess_ab.py BASE HEAD [--workload W ...] [--seed N]
                                 [--pairs K]

BASE and HEAD are checkouts, each with src/hslogic (for example a
`git archive` of the parent commit unpacked next to the working tree, and
the working tree). The queries are BASE's: its bench/inputs.py draws each
workload's inputs from the seed, and its bench/workloads.py turns them into
calls, in both trees' processes. Neither file is edited; HEAD's bench/ is
not read.

Each pair runs BASE and HEAD once each, in fresh processes, the side that
goes first alternating from pair to pair. A process imports its own tree's
src/ and prepares every query of the workload, which it times once: the
prepare time is the workload's set-up in process, its JSON inputs read and
their formulas parsed and models loaded, as bench/probe.py's set-up does
after the import. It then makes one warm-up pass over the queries and
times five more, each query on its own. Per side it keeps the best of the
five passes for each of three more figures: the pass time, and the median
(p50) and 90th percentile (p90) of the per-query times of a pass. When
the workload's inputs carry more than one query kind (sat_models: bbll,
finite, equation and countermodel; mc_finite: fe and verify), it keeps the
same three figures for each kind's queries alone too. Outputs are reduced
to plain data by the workload's keys, and the two sides' warm-up outputs
are compared.

Per workload it prints, for each figure, the median over the pairs of
HEAD's figure over BASE's, the quartiles of that ratio, the pairs HEAD won
(a ratio below 1) and each side's median in milliseconds, and then one line
per kind with the median ratio, quartiles and pairs won of each of its
three figures. The last line of standard output is one JSON object with
every run. There is no calibration and no memory figure: the pairs are
what keeps host drift out, and bench/run.py remains the end-to-end
measurement. The exit status is 1 when the two sides' outputs differ on a
workload, 2 on bad arguments or a failed process, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

WORKLOADS = ("sat_unsat", "sat_models", "mc_periodic", "mc_finite")
FIGURES = ("pass_s", "p50_ms", "p90_ms")
SETUP = "prepare_s"     # once per process, not per pass
PASSES = 5
TIMEOUT = 900


def _tree(path: str) -> Path:
    tree = Path(path).resolve()
    if not (tree / "src" / "hslogic" / "__init__.py").is_file():
        raise ValueError("no src/hslogic in %s" % tree)
    return tree


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile, as bench/run.py takes it."""
    k = max(0, min(len(sorted_values) - 1,
                   int(-(-q * len(sorted_values) // 1)) - 1))
    return sorted_values[k]


def worker(tree: Path, bench: Path, workload: str, limit: int) -> dict:
    """One side's run in this process: tree's hslogic on bench's queries,
    the first limit of them when limit is positive, read from stdin."""
    sys.path[:0] = [str(tree / "src"), str(bench)]
    import hslogic
    if Path(hslogic.__file__).resolve().parent != tree / "src" / "hslogic":
        raise SystemExit("imported hslogic from %s" % hslogic.__file__)
    import workloads

    inputs = json.loads(sys.stdin.read())
    t0 = perf_counter()
    rounds = workloads.prepare(workload, inputs)
    prepare_s = perf_counter() - t0
    queries = [q for rnd in rounds for q in rnd]
    # prepare makes one query per input item, in order
    kinds = [item["kind"] for rnd in inputs["rounds"] for item in rnd]
    if limit > 0:
        queries, kinds = queries[:limit], kinds[:limit]
    by_kind = {}
    for k, kind in enumerate(kinds):
        by_kind.setdefault(kind, []).append(k)
    if len(by_kind) < 2:
        by_kind = {}

    def call(query):
        try:
            return query.call()
        except Exception as exc:  # a failed query is an output too
            return ("error", repr(exc))

    def figures(times, runs):
        times = sorted(times)
        runs["pass_s"].append(sum(times))
        runs["p50_ms"].append(1000 * _percentile(times, 0.5))
        runs["p90_ms"].append(1000 * _percentile(times, 0.9))

    keys = [repr(q.key(call(q))) for q in queries]
    runs = {name: [] for name in FIGURES}
    kind_runs = {kind: {name: [] for name in FIGURES} for kind in by_kind}
    for _ in range(PASSES):
        times = []
        for q in queries:
            t0 = perf_counter()
            call(q)
            times.append(perf_counter() - t0)
        figures(times, runs)
        for kind, at in by_kind.items():
            figures([times[k] for k in at], kind_runs[kind])
    return {"queries": len(queries),
            "outputs": hashlib.sha256("\n".join(keys).encode()).hexdigest(),
            SETUP: prepare_s,
            **{name: min(values) for name, values in runs.items()},
            "kinds": {kind: {"queries": len(by_kind[kind]),
                             **{name: min(values)
                                for name, values in kr.items()}}
                      for kind, kr in kind_runs.items()}}


def _run_side(tree: Path, bench: Path, workload: str, inputs: str,
              limit: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker",
         str(tree), str(bench), workload, str(limit)],
        input=inputs, capture_output=True, text=True, timeout=TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError("%s on %s failed:\n%s"
                           % (workload, tree, proc.stderr[-2000:]))
    return json.loads(proc.stdout.splitlines()[-1])


def _summary(pairs, names=(SETUP,) + FIGURES) -> dict:
    """Per figure of names: HEAD over BASE per pair, its median and
    quartiles, the pairs HEAD won, and each side's median."""
    out = {}
    for name in names:
        ratios = [head[name] / base[name] for base, head in pairs]
        if len(ratios) > 1:
            q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        else:
            q1 = q3 = ratios[0]
        out[name] = {
            "ratio": statistics.median(ratios), "q1": q1, "q3": q3,
            "won": sum(r < 1 for r in ratios),
            "base": statistics.median(base[name] for base, _ in pairs),
            "head": statistics.median(head[name] for _, head in pairs)}
    return out


def compare(base: Path, head: Path, workloads, seed: int, pairs: int,
            limit: int = 0, out=sys.stdout) -> dict:
    """Every pair of every workload, printed as it goes; returns the runs
    and the summaries by workload."""
    bench = base / "bench"
    report = {}
    for workload in workloads:
        inputs = subprocess.run(
            [sys.executable, str(bench / "inputs.py"), "--workload",
             workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=TIMEOUT,
            check=True).stdout
        runs = []
        for k in range(pairs):
            sides = {}
            for side in (("base", "head") if k % 2 == 0
                         else ("head", "base")):
                tree = base if side == "base" else head
                sides[side] = _run_side(tree, bench, workload, inputs, limit)
            runs.append((sides["base"], sides["head"]))
        summary = _summary(runs)
        kinds = {kind: _summary([(b["kinds"][kind], h["kinds"][kind])
                                 for b, h in runs], FIGURES)
                 for kind in runs[0][0]["kinds"]}
        same = len({r["outputs"] for pair in runs for r in pair}) == 1
        report[workload] = {"runs": runs, "summary": summary,
                            "kinds": kinds, "same_outputs": same}
        print("%s seed %d: %d pairs, %d queries, outputs %s"
              % (workload, seed, pairs, runs[0][0]["queries"],
                 "identical" if same else "DIFFER"), file=out)
        for name in (SETUP,) + FIGURES:
            s = summary[name]
            scale = 1000 if name.endswith("_s") else 1
            print("  %-6s HEAD/BASE %.3f (quartiles %.3f-%.3f), won %d/%d;"
                  " base %.4g ms, head %.4g ms"
                  % (name, s["ratio"], s["q1"], s["q3"], s["won"], pairs,
                     scale * s["base"], scale * s["head"]), file=out)
        for kind, ks in kinds.items():
            print("  kind %s, %d queries: %s" % (
                kind, runs[0][0]["kinds"][kind]["queries"], "; ".join(
                    "%s %.3f (%.3f-%.3f) won %d/%d"
                    % (name, ks[name]["ratio"], ks[name]["q1"],
                       ks[name]["q3"], ks[name]["won"], pairs)
                    for name in FIGURES)), file=out)
        out.flush()
    return report


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        tree, bench, workload, limit = argv[1:]
        print(json.dumps(worker(Path(tree), Path(bench), workload,
                                int(limit))))
        return 0
    ap = argparse.ArgumentParser(
        description="time two source trees in process on the benchmark's "
                    "queries")
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="a workload to run, repeatable (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=3)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    try:
        base, head = _tree(args.base), _tree(args.head)
    except ValueError as exc:
        ap.error(str(exc))
    try:
        report = compare(base, head, args.workload or WORKLOADS, args.seed,
                         args.pairs)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps({"base": str(base), "head": str(head),
                      "seed": args.seed, "workloads": report}))
    return 0 if all(r["same_outputs"] for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
