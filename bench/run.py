"""freesplit benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload {battery,census-r5,whitehead} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run's
metadata.  Exits 2, printing no result, when the library sources are missing.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import tracer
import workloads
from workloads import BENCH_DIR, ROOT, SRC

#: Set-up probes per run; the median is reported.
SETUP_PROBES = 7
TRACE_PROBES = 3
#: Iterations of the fixed pure-Python calibration loop.
CALIBRATION_LOOPS = 5_000_000

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "query_p50_ms": "ms", "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
#: Per-layer metrics that a traced run measures outside the tracer.
TRACE_EXTRA_UNITS = {
    "cli.process_s": "s", "cli.import_s": "s", "cli.stdout_bytes": "bytes",
    "bench.self_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
}


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop, to separate machine drift from code change."""
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i
    return perf_counter() - start


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tally:
    """Operations attempted and failed in a run, with the first few errors."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, attempted: int, errors) -> None:
        self.attempted += attempted
        self.failed += len(errors)
        for error in errors:
            if len(self.errors) < 5:
                sys.stderr.write("failed: %s\n" % error)
            self.errors.append(error)

    def result(self, metrics: dict, units: dict) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }


def probe_setup(name: str, seed: int, count: int, tally: Tally):
    """Set-up time and import time of ``count`` fresh probe processes."""
    setup, imports = [], []
    for _ in range(count):
        child = workloads.spawn([os.path.join(BENCH_DIR, "probe.py"), name, str(seed)],
                                workloads.timeout_for("setup"))
        try:
            import_s = json.loads(child.stdout.splitlines()[0])["import_s"]
            error = None if child.status == 0 else "probe exit status %d" % child.status
        except (IndexError, ValueError, KeyError) as exc:
            import_s, error = None, "probe printed no timing (status %d): %r" % (child.status, exc)
        tally.add(1, [error] if error else [])
        if not error:
            setup.append(child.ready_s)
            imports.append(import_s)
    return setup, imports


def run_for(seconds: float, step):
    """Call ``step`` for whole jobs filling ``seconds``, to the nearest job; at least once.

    Another job starts only if, going by the last one's duration, it would
    end less than half a job past the window.
    """
    start = perf_counter()
    results = []
    while True:
        gc.collect()
        began = perf_counter()
        results.append(step())
        took = perf_counter() - began
        if perf_counter() - start + took / 2 > seconds:
            return results


def best_parts_ms(jobs) -> list:
    """Each part of the job at its best (minimum) time over the run's jobs.

    The parts are the job's queries, in their fixed order, and last the rest
    of the job's wall time (the census clique search, loop overhead).  Other
    tenants of a shared host only ever add time to a part, so its minimum
    over passes spread across the run is its steadiest estimate.
    """
    return [min(repeats) for repeats in zip(*(
        itertools.chain(job.latencies_ms, [1000.0 * job.wall_s - sum(job.latencies_ms)])
        for job in jobs))]


def run_untraced(workload, seed: int, seconds: float) -> dict:
    tally = Tally()
    setup, _ = probe_setup(workload.name, seed, SETUP_PROBES, tally)
    lib = tracer.load_layers()
    inputs = workload.setup(seed, lib)
    jobs = run_for(seconds, lambda: workload.untraced_job(inputs, lib))
    for job in jobs:
        tally.add(job.attempted, job.errors)
    best = best_parts_ms(jobs)
    latencies = best[:-1]
    child_rss = [job.peak_rss_mb for job in jobs if job.peak_rss_mb is not None]
    metrics = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "wall_s": sum(best) / 1000.0,
        "query_p50_ms": statistics.median(latencies) if latencies else 0.0,
        "query_p90_ms": percentile(latencies, 0.9) if latencies else 0.0,
        "peak_rss_mb": (statistics.median(child_rss) if child_rss
                        else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
    }
    return tally.result(metrics, END_TO_END_UNITS)


def run_traced(workload, seed: int, seconds: float) -> dict:
    tally = Tally()
    _, imports = probe_setup(workload.name, seed, TRACE_PROBES, tally)
    t = tracer.Tracer()
    inputs = workload.setup(seed, t.plain)
    in_child = hasattr(workload, "process_job")

    def one_round():
        process = workload.process_job(inputs) if in_child else None
        plain = workload.job(inputs, t.plain)
        t.reset()
        with t:
            traced = workload.job(inputs, t.lib)
        errors = plain.errors + traced.errors + (process.errors if process else [])
        consistency = t.accounting_error(traced.wall_s)
        if consistency:
            errors.append(consistency)
        return {
            "errors": errors,
            "attempted": plain.attempted + traced.attempted + (process.attempted if process else 0),
            "layers": t.layer_metrics(),
            "process_s": process.wall_s if process else 0.0,
            "plain_s": plain.wall_s,
            "traced_s": traced.wall_s,
            "bench_s": t.bench_self_s(traced.wall_s),
            "stdout_bytes": traced.stdout_bytes,
        }

    rounds = run_for(seconds, one_round)
    for r in rounds:
        tally.add(r["attempted"], r["errors"])
    metrics, units = {}, {}
    for name in rounds[0]["layers"]:
        values = [r["layers"][name] for r in rounds]
        if tracer.is_count(name):
            if len(set(values)) != 1:
                tally.add(0, ["trace count %s differs between rounds: %r" % (name, values)])
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
        units[name] = tracer.unit_of(name)

    def median(key):
        return statistics.median(r[key] for r in rounds)

    metrics.update({
        "cli.process_s": median("process_s"),
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.stdout_bytes": rounds[0]["stdout_bytes"],
        "bench.self_s": median("bench_s"),
        "trace.wall_s": median("traced_s"),
        "trace.overhead_s": median("traced_s") - median("plain_s"),
    })
    units.update(TRACE_EXTRA_UNITS)
    return tally.result(metrics, units)


def run_metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "calibration_loops": CALIBRATION_LOOPS,
        "calibration_s": calibration_s(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "freesplit", "__init__.py")):
        sys.stderr.write("error: no freesplit sources at %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    print("meta " + json.dumps(run_metadata(args), sort_keys=True), flush=True)
    run = run_traced if args.trace else run_untraced
    print(json.dumps(run(workloads.WORKLOADS[args.workload], args.seed, args.seconds)),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
