"""Set-up probe: import freesplit and build one workload's inputs in a fresh interpreter.

    python3 bench/probe.py <workload> <seed>

Prints one JSON line, ``{"import_s": ...}``, once the inputs are ready.
``run.py`` times the probe from spawn to that line, which is the set-up a
user pays before the first operation can start.
"""

import json
import os
import sys
from time import perf_counter

start = perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import freesplit.cli  # noqa: E402  (the CLI imports every layer)

import_s = perf_counter() - start

import tracer  # noqa: E402
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]), tracer.load_layers())
print(json.dumps({"import_s": import_s}), flush=True)
