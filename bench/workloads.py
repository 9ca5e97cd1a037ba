"""The three freesplit workloads: seeded inputs, one job each, and output checks.

Every job is a closed loop with one operation in flight.  A job returns a
:class:`Job` with its wall time, one latency per operation and the number of
operations that failed: a wrong output, a wrong exit status, an exception or
a timeout.  The ``lib`` argument is the namespace of library modules, plain
or traced (see ``tracer.py``); workloads reach the library only through it.
"""

from __future__ import annotations

import array
import collections
import contextlib
import hashlib
import io
import os
import random
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: An operation fails once it runs this many times longer than it took at the
#: commit that defined the benchmark (2-vCPU virtual machine, Python 3.11).
TIMEOUT_FACTOR = 5
SEED_COMMIT_S = {
    "setup": 1.0,          # a set-up probe: interpreter start, import, inputs
    "battery": 3.2,        # one `python -m freesplit verify battery`
    "census-r5": 16.0,     # one full rank-5 census
    "whitehead-3": 0.12,   # one rank-3 word query
    "whitehead-4": 0.4,    # one rank-4 word query
    "whitehead": 9.5,      # one job of 104 word queries
}


def timeout_for(kind: str) -> float:
    return TIMEOUT_FACTOR * SEED_COMMIT_S[kind]


class OperationTimeout(Exception):
    """An in-process operation ran past its timeout.

    Deliberately not a ``TimeoutError``: that is an ``OSError``, which the
    CLI turns into exit status 2 instead of letting it reach the benchmark.
    """


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise :class:`OperationTimeout` inside the block after ``seconds``."""
    def on_alarm(signum, frame):
        raise OperationTimeout("operation exceeded its %.2f s timeout" % seconds)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Job:
    wall_s: float
    attempted: int
    #: One latency per query, in the same query order on every job of a run.
    latencies_ms: Sequence[float]
    errors: List[str] = field(default_factory=list)
    peak_rss_mb: Optional[float] = None  # set when the work ran in a child process
    stdout_bytes: int = 0

    @property
    def failed(self) -> int:
        return len(self.errors)


@dataclass
class Child:
    stdout: bytes
    status: int        # negative when killed by a signal, as at its timeout
    ready_s: float     # spawn until the first line of stdout (or exit)
    wall_s: float      # spawn until exit
    peak_rss_mb: float


def child_env() -> dict:
    """The caller's environment with ``src`` importable and no freesplit overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FREESPLIT_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def spawn(argv: List[str], timeout: float) -> Child:
    """Run a Python child to completion in the checkout root and wait for it."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - start
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        killer.cancel()
        _, wait_status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
    wall = perf_counter() - start
    return Child(first + rest, proc.returncode, ready, wall, usage.ru_maxrss / 1024.0)


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------

BATTERY_ARGV = ["verify", "battery"]
#: Criterion 5 (cagey-equivalence at rank 3) lacks 48 witnesses by design of
#: the universe restriction, so the battery fails on purpose and exits 1.
BATTERY_STATUS = 1
BATTERY_REFERENCE = os.path.join(BENCH_DIR, "reference", "battery.json")
BATTERY_SHA256 = "4511003974baa7e6178ece6502b0c59945fe23597571217c2da5a7e49e20cd7d"


def battery_reference() -> bytes:
    with open(BATTERY_REFERENCE, "rb") as handle:
        data = handle.read()
    if hashlib.sha256(data).hexdigest() != BATTERY_SHA256:
        raise RuntimeError("%s does not hold the reference battery output" % BATTERY_REFERENCE)
    return data


def check_battery(stdout: bytes, status: Optional[int], reference: bytes) -> Optional[str]:
    """None when a battery run matches the reference, else what differs."""
    if status != BATTERY_STATUS:
        return "battery exit status %r, expected %d" % (status, BATTERY_STATUS)
    if stdout != reference:
        at = next((i for i, (a, b) in enumerate(zip(stdout, reference)) if a != b),
                  min(len(stdout), len(reference)))
        return "battery stdout differs from the reference at byte %d (%d vs %d bytes)" % (
            at, len(stdout), len(reference))
    return None


class Battery:
    """Sequential ``verify battery`` runs; the seed is unused."""

    name = "battery"

    def setup(self, seed: int, lib) -> bytes:
        return battery_reference()

    def process_job(self, reference: bytes) -> Job:
        """One CLI child process, as a user runs it."""
        child = spawn(["-m", "freesplit"] + BATTERY_ARGV, timeout_for("battery"))
        error = check_battery(child.stdout, child.status, reference)
        return Job(child.wall_s, 1, [1000.0 * child.wall_s], [error] if error else [],
                   child.peak_rss_mb, len(child.stdout))

    def job(self, reference: bytes, lib) -> Job:
        """``cli.main`` inside this process, with its stdout captured."""
        buffer = io.StringIO()
        start = perf_counter()
        try:
            with time_limit(timeout_for("battery")), contextlib.redirect_stdout(buffer):
                status = lib.cli.main(BATTERY_ARGV)
            stdout = buffer.getvalue().encode()
            error = check_battery(stdout, status, reference)
        except Exception as exc:
            stdout, error = b"", "battery raised %r" % (exc,)
        wall = perf_counter() - start
        return Job(wall, 1, [1000.0 * wall], [error] if error else [],
                   stdout_bytes=len(stdout))

    def untraced_job(self, reference: bytes, lib) -> Job:
        return self.process_job(reference)


# ---------------------------------------------------------------------------
# census-r5
# ---------------------------------------------------------------------------

CENSUS_RANK = 5
#: Properties of the rank-5 universe; none depends on the order of the classes.
CENSUS_EXPECTED = {
    "classes": 491,
    "pairs": 120295,
    "crossing": 96735,
    "cagey": 79680,
    "rose_compatible": 22690,
    "circle_compatible": 870,
    "maximal_cliques": 889920,
    "cliques_of_size_9": 7680,
    "cliques_of_size_10": 61440,
    "cliques_of_size_11": 257280,
    "cliques_of_size_12": 563520,  # 3N - 3
}


def check_census(counts: dict) -> Optional[str]:
    if counts == CENSUS_EXPECTED:
        return None
    keys = sorted(set(counts) | set(CENSUS_EXPECTED))
    wrong = ["%s=%r (expected %r)" % (k, counts.get(k), CENSUS_EXPECTED.get(k))
             for k in keys if counts.get(k) != CENSUS_EXPECTED.get(k)]
    return "census counts differ: " + ", ".join(wrong)


def census_counts(classes, lib, latencies_ms: list) -> dict:
    """Verdicts for every pair of classes, then the maximal cliques of the rose edges.

    Appends the latency of each pair's verdict to ``latencies_ms``.
    """
    compatible = lib.partitions.classes_compatible
    rose_compatible = lib.partitions.classes_rose_compatible
    cagey = lib.partitions.classes_cagey
    n = len(classes)
    crossing = cagey_pairs = circle = 0
    edges = []
    latency = latencies_ms.append
    last = perf_counter()
    for i in range(n):
        s = classes[i]
        for j in range(i + 1, n):
            t = classes[j]
            if compatible(s, t):
                if rose_compatible(s, t):
                    edges.append((i, j, "rose"))
                else:
                    circle += 1
            else:
                crossing += 1
                cagey_pairs += cagey(s, t)
            now = perf_counter()
            latency(1000.0 * (now - last))
            last = now
    graph = lib.complexes.SplittingGraph(rank=CENSUS_RANK, mode="ens",
                                         vertices=tuple(classes), edges=tuple(edges))
    cliques = lib.complexes.maximal_cliques(graph)
    counts = {
        "classes": n,
        "pairs": n * (n - 1) // 2,
        "crossing": crossing,
        "cagey": cagey_pairs,
        "rose_compatible": len(edges),
        "circle_compatible": circle,
        "maximal_cliques": len(cliques),
    }
    for size, number in collections.Counter(map(len, cliques)).items():
        counts["cliques_of_size_%d" % size] = number
    return counts


class Census:
    """All pair verdicts and maximal rose cliques of the rank-5 universe."""

    name = "census-r5"

    def setup(self, seed: int, lib) -> list:
        classes = lib.partitions.enumerate_splitting_classes(CENSUS_RANK)
        random.Random(seed).shuffle(classes)
        return classes

    def job(self, classes, lib) -> Job:
        """One census; each pair verdict is a query, the clique search is not."""
        latencies = array.array("d")  # 120,295 floats, compactly
        start = perf_counter()
        try:
            with time_limit(timeout_for("census-r5")):
                counts = census_counts(classes, lib, latencies)
            error = check_census(counts)
        except Exception as exc:
            error = "census raised %r" % (exc,)
        wall = perf_counter() - start
        return Job(wall, 1, latencies, [error] if error else [])

    untraced_job = job


# ---------------------------------------------------------------------------
# whitehead
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Base:
    """A word whose simplicity and minimal cyclic length are known by hand."""

    rank: int
    word: str
    simple: bool
    min_length: int
    copies: int  # queries per job pushed from this base


#: Simplicity and minimal cyclic length are invariant under automorphisms,
#: so every pushed query inherits its base's answers.
#:
#: * A word that omits a generator lies in a proper free factor: simple.
#:   ``x1`` and ``x1x2`` are primitive (x1x2 is the image of x1 under a
#:   Nielsen map), so their minimal length is 1, not their length.
#:   ``x1x1`` is the square of a primitive.  ``x1x2X1X2`` and ``x1x1x2x2x3x3``
#:   have cut-vertex-free Whitehead graphs on the generators they use, so
#:   they are minimal inside their factor.
#: * The other words use every generator and have a connected Whitehead graph
#:   without a cut vertex (a 2N-cycle), so by Whitehead's cut-vertex lemma
#:   they are minimal and lie in no proper free factor: not simple.
#:
#: Rank-4 queries cost about five rank-3 queries.  They are a fifth of the
#: mix, so the median is a rank-3 query and p90 a rank-4 one.
WHITEHEAD_BASES = (
    Base(3, "x1", True, 1, 14),
    Base(3, "x1x2", True, 1, 14),
    Base(3, "x1x1", True, 2, 14),
    Base(3, "x1x2X1X2", True, 4, 14),
    Base(3, "x1x1x2x2x3x3", False, 6, 14),
    Base(3, "x1x2X1X2x3x3", False, 6, 14),
    Base(4, "x1x2", True, 1, 4),
    Base(4, "x1x2X1X2", True, 4, 4),
    Base(4, "x1x1x2x2x3x3", True, 6, 4),
    Base(4, "x1x1x2x2x3x3x4x4", False, 8, 4),
    Base(4, "x1x2X1X2x3x4X3X4", False, 8, 4),
)
#: Pushed queries are cyclically reduced words of exactly this many letters.
QUERY_LENGTH = 20


@dataclass(frozen=True)
class Query:
    base: Base
    word: object  # freegroup.Word


def push(rng: random.Random, base: Base, freegroup):
    """A random cyclically reduced word in the automorphism orbit of ``base``.

    Applies random Nielsen maps and their inverses, keeping an image only
    when it is not shorter, until the cyclic length reaches
    :data:`QUERY_LENGTH`; a path that overshoots is restarted.  The result is
    randomly rotated.
    """
    rank = base.rank
    start = freegroup.Word.from_string(rank, base.word)
    while True:
        w = start
        while len(w) < QUERY_LENGTH:
            i, j = rng.sample(range(1, rank + 1), 2)
            phi = freegroup.nielsen(rank, i, j, rng.choice(("right", "left")))
            if rng.random() < 0.5:
                phi = phi.inverse()
            image = freegroup.CyclicWord.of(phi.apply(w)).as_word()
            if len(image) >= len(w):
                w = image
        if len(w) == QUERY_LENGTH:
            k = rng.randrange(len(w))
            return freegroup.Word(rank, w.letters[k:] + w.letters[:k])


def check_whitehead(base: Base, simple: bool, min_length: int) -> Optional[str]:
    if simple != base.simple or min_length != base.min_length:
        return "pushed from %s at rank %d: simple=%s length=%d, expected simple=%s length=%d" % (
            base.word, base.rank, simple, min_length, base.simple, base.min_length)
    return None


class Whitehead:
    """Seeded ``whitehead simple`` queries at ranks 3 and 4."""

    name = "whitehead"

    def setup(self, seed: int, lib) -> List[Query]:
        rng = random.Random(seed)
        queries = [Query(base, push(rng, base, lib.freegroup))
                   for base in WHITEHEAD_BASES for _ in range(base.copies)]
        rng.shuffle(queries)
        return queries

    def job(self, queries: List[Query], lib) -> Job:
        """Every query in order; once the job passes its own timeout the rest fail."""
        is_simple = lib.freegroup.is_simple
        minimize = lib.freegroup.whitehead_minimize
        latencies, errors = [], []
        start = perf_counter()
        for q in queries:
            began = perf_counter()
            if began - start > timeout_for("whitehead"):
                errors.append("whitehead job exceeded its %.0f s timeout" % timeout_for("whitehead"))
                continue
            try:
                with time_limit(timeout_for("whitehead-%d" % q.base.rank)):
                    simple = is_simple(q.word)
                    length = len(minimize(q.word))
                error = check_whitehead(q.base, simple, length)
            except Exception as exc:
                error = "%s raised %r" % (q.word.to_string(), exc)
            latencies.append(1000.0 * (perf_counter() - began))
            if error:
                errors.append(error)
        wall = perf_counter() - start
        return Job(wall, len(queries), latencies, errors)

    untraced_job = job


WORKLOADS = {w.name: w for w in (Battery(), Census(), Whitehead())}
#: The workloads that BENCHMARK.json declares.  ``census-r5`` is run by hand:
#: its 13-16 s job fits only two or three times in a declared run, too few
#: passes to stay steady on a shared host (see README.md).
DECLARED = ("battery", "whitehead")
