"""hslogic benchmark: one closed-loop client per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory holding `src/hslogic` and this
`bench/`). Inputs come from `inputs.py` with the given seed; set-up time is
the median of several fresh processes that import hslogic and parse the
inputs (`probe.py`). The timed loop then issues whole rounds of queries, one
at a time, until S seconds have passed and at least MIN_QUERIES queries
have run. Every output is checked after the loop.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the loop alternates an untraced and a
traced pass over each round, the spans are written to bench/out/, and the
JSON object holds the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference as R

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("sat_unsat", "sat_models", "mc_periodic", "mc_finite")
MIN_QUERIES = 100
SETUP_PROBES = 7
CHILD_TIMEOUT = 120

# Times are reported at a nominal host speed. The speed of a shared host
# changes by tens of percent within seconds, and identical work changes with
# it (README.md, "Calibration"). A fixed slice of pure-Python work that does
# not use hslogic runs every CALIBRATE_EVERY_S between queries, and each
# time is scaled by CALIBRATION_S / (slice time around it).
CALIBRATION_S = 0.004
CALIBRATE_EVERY_S = 0.1
_CAL_MODEL = R.Model({"p": {(0, 1), (2, 5), (3, 4), (1, 7)},
                      "q": {(1, 3), (2, 6), (4, 8)}}, last=8)
_CAL_FORMULA = ("or", ("dia", "D", ("box", "iO", ("atom", "p"))),
                ("dia", "L", ("and", ("box", "B", ("atom", "q")),
                              ("dia", "iA", ("not", ("atom", "p"))))))


def calibration_slice() -> float:
    start = perf_counter()
    for _ in range(20):
        for i in _CAL_MODEL.cells():
            R.evaluate(_CAL_MODEL, _CAL_FORMULA, i)
    return perf_counter() - start


class Calibration:
    """Calibration slices taken through a run; `factor(k)` scales a time
    taken after slice k, using the median of slices k-2 to k+2."""

    def __init__(self):
        self.slices = [calibration_slice() for _ in range(3)]
        self.last = perf_counter()

    def tick(self) -> int:
        """Take a slice when one is due; returns the latest slice's index."""
        if perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.slices.append(calibration_slice())
            self.last = perf_counter()
        return len(self.slices) - 1

    def factor(self, k: int) -> float:
        window = self.slices[max(0, k - 2):k + 3]
        return CALIBRATION_S / statistics.median(window)

    def scale(self, timed):
        """[(seconds, slice index)] -> scaled seconds."""
        return [t * self.factor(k) for t, k in timed]


def fail(message: str) -> int:
    sys.stderr.write("bench: %s\n" % message)
    return 2


def generate_inputs(workload: str, seed: int) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
    return proc.stdout


def probe_setup(workload: str, inputs_text: str) -> float:
    """Seconds from starting a process to its first query being ready."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            proc.stdin.write(inputs_text)
            proc.stdin.close()
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.wait(timeout=CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
    return elapsed


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_values) - 1,
                   int(-(-q * len(sorted_values) // 1)) - 1))
    return sorted_values[k]


class Outcomes:
    """Outputs of every query issued, reduced to plain data by the query's
    key; repeated queries must reproduce their first output."""

    def __init__(self):
        self.first = {}
        self.count = {}
        self.unstable = set()

    def record(self, qid, query, output):
        key = query.key(output)
        if qid not in self.first:
            self.first[qid] = (query, key)
            self.count[qid] = 1
            return
        self.count[qid] += 1
        if self.first[qid][1] != key:
            self.unstable.add(qid)

    def judge(self):
        """(attempted, failed, correct). A failing query is counted in
        failed; correct is false when a query other than the one kept for a
        known fault fails."""
        attempted = failed = 0
        correct = True
        for qid, (query, key) in self.first.items():
            attempted += self.count[qid]
            ok = qid not in self.unstable and query.check(key)
            if not ok:
                failed += self.count[qid]
                if not query.known_fault:
                    correct = False
                    sys.stderr.write("bench: wrong output for query %r: %r\n"
                                     % (qid, key))
        return attempted, failed, correct


def call(query):
    try:
        return query.call()
    except Exception as exc:  # a query that raises is a failed query
        return ("error", repr(exc))


def run_rounds(rounds, seconds, outcomes, tracer=None):
    """Issue whole rounds until the time is up and MIN_QUERIES have run,
    traced and untraced together. Returns the untraced latencies and, with a
    tracer, those of a traced second pass over each round, as (seconds,
    slice index) pairs, and the calibration."""
    plain, traced = [], []
    cal = Calibration()
    deadline = perf_counter() + seconds
    r = 0
    while True:
        ri = r % len(rounds)
        for qi, query in enumerate(rounds[ri]):
            k = cal.tick()
            t0 = perf_counter()
            out = call(query)
            plain.append((perf_counter() - t0, k))
            outcomes.record((ri, qi), query, out)
        if tracer is not None:
            tracer.install()
            try:
                for qi, query in enumerate(rounds[ri]):
                    k = cal.tick()
                    t0 = perf_counter()
                    out = tracer.run_query((r, qi), lambda: call(query))
                    traced.append((perf_counter() - t0, k))
                    outcomes.record((ri, qi), query, out)
            finally:
                tracer.uninstall()
        r += 1
        if (perf_counter() >= deadline
                and len(plain) + len(traced) >= MIN_QUERIES):
            cal.slices.append(calibration_slice())
            return plain, traced, cal


def setup_time(workload: str, inputs_text: str) -> float:
    """Median over SETUP_PROBES fresh processes, each scaled by the two
    calibration slices taken just before it and the two just after."""
    probe_setup(workload, inputs_text)  # warms the file caches
    before = [calibration_slice(), calibration_slice()]
    times = []
    for _ in range(SETUP_PROBES):
        t = probe_setup(workload, inputs_text)
        after = [calibration_slice(), calibration_slice()]
        times.append(t * CALIBRATION_S / statistics.median(before + after))
        before = after
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hslogic benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hslogic" / "__init__.py").is_file():
        return fail("no hslogic sources at %s" % SRC)
    try:
        inputs_text = generate_inputs(args.workload, args.seed)
        setup_s = setup_time(args.workload, inputs_text)
    except (subprocess.SubprocessError, RuntimeError, OSError) as exc:
        return fail("set-up failed: %s" % exc)

    sys.path.insert(0, str(SRC))
    import hslogic
    if Path(hslogic.__file__).resolve().parent != SRC / "hslogic":
        return fail("imported hslogic from %s, not %s"
                    % (hslogic.__file__, SRC))
    import workloads

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        rounds = workloads.prepare(args.workload, json.loads(inputs_text))
    finally:
        if tracer is not None:
            tracer.uninstall()

    outcomes = Outcomes()
    plain, traced, cal = run_rounds(rounds, args.seconds, outcomes, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, correct = outcomes.judge()

    if tracer is None:
        lat = sorted(cal.scale(plain))
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "queries_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "latency_p50_ms": {"value": 1000 * percentile(lat, 0.5),
                               "unit": "ms"},
            "latency_p90_ms": {"value": 1000 * percentile(lat, 0.9),
                               "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        plain_s, traced_s = sum(cal.scale(plain)), sum(cal.scale(traced))
        metrics = tracer.layer_metrics(len(traced), plain_s / sum(
            t for t, _ in plain))
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced_s - plain_s) / plain_s, "unit": "%"}
        tracer.write(HERE / "out" / ("trace-%s-%d.jsonl"
                                     % (args.workload, args.seed)))
    raw = sorted(t for t, _ in plain)
    sys.stderr.write("bench: %s seed %d: %d queries, %d failed; raw p50 "
                     "%.4g ms; calibration slices %.4g..%.4g ms\n"
                     % (args.workload, args.seed, attempted, failed,
                        1000 * percentile(raw, 0.5), 1000 * min(cal.slices),
                        1000 * max(cal.slices)))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
