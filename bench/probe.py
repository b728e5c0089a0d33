"""One set-up, timed from outside: `run.py` starts this process, writes the
workload's generated inputs to its standard input, and stops the clock when
it prints "ready". In between: interpreter start, `import hslogic`, and
parsing or loading the inputs.

    python3 bench/probe.py WORKLOAD < inputs.json
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports hslogic)

workloads.prepare(sys.argv[1], json.loads(sys.stdin.read()))
print("ready", flush=True)
