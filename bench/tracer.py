"""Layer-boundary tracing for freesplit, done entirely from outside ``src/``.

The layers are the six library modules.  While a :class:`Tracer` is
installed, every binding through which one layer reaches another is
replaced:

* a consumer's reference to another layer's module (``verify`` binds
  ``partitions``, ``cli`` binds ``verify``, ...) becomes a proxy module
  whose public functions are wrapped;
* a consumer's ``from .other import f`` binding of a public function
  becomes the wrapped function;
* the verifier registry ``verify.VERIFIERS`` gets an inclusive timer per
  lemma.

A module's own globals are never touched, so calls inside one layer run at
full speed and only boundary crossings pay for a span.  The benchmark makes
its own calls through :attr:`Tracer.lib`, so bench-to-layer calls are spans
too.  Spans are aggregated in memory into per-function call counts, self
time and inclusive time; no per-call record is kept.
"""

from __future__ import annotations

import importlib
import inspect
import types
from time import perf_counter

LAYERS = ("partitions", "blowup", "complexes", "freegroup", "verify", "cli")

#: Pairwise predicates of the partition layer (L0 in the ROADMAP).
PAIR_PREDICATES = frozenset({
    "crosses", "compatible", "is_cagey", "rose_compatible", "circle_compatible",
    "corner_sets", "aligned_sides", "all_alignments",
    "classes_compatible", "classes_rose_compatible", "classes_cagey",
})
ENUMERATORS = frozenset({
    "enumerate_ideal_edges", "enumerate_splitting_classes", "count_splitting_classes",
})
CLIQUE_SEARCHES = frozenset({"maximal_cliques", "enumerate_cliques"})
#: The verifiers registered in ``verify.VERIFIERS``, each timed inclusively.
LEMMAS = ("rigid-blowup", "three-rose", "clique-rank-3", "boundary-types",
          "cagey-equivalence", "whitehead-factor")


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_us"):
        return "us"
    return "letters" if "letters" in metric else "count"


def is_count(metric: str) -> bool:
    """Counts repeat exactly for a fixed seed; times do not."""
    return unit_of(metric) not in ("s", "us")


def load_layers() -> types.SimpleNamespace:
    """The six library modules, untraced."""
    return types.SimpleNamespace(
        **{name: importlib.import_module("freesplit." + name) for name in LAYERS}
    )


def _count_reports(counters, args, result):
    for report in result if isinstance(result, list) else [result]:
        counters["verify.cases"] += report.cases_checked
        counters["verify.failures"] += len(report.failures)


def _count_family(counters, args, result):
    # One graph edge per distinct family class, however the family was passed.
    counters["blowup.family_size"] += len(result.edges)


def _count_cliques(counters, args, result):
    counters["complexes.cliques_found"] += len(result)


def _count_letters_in(counters, args, result):
    counters["freegroup.letters_in"] += len(args[0].letters)


def _count_minimize(counters, args, result):
    counters["freegroup.letters_in"] += len(args[0].letters)
    counters["freegroup.letters_out"] += len(result)


def _count_factor(counters, args, result):
    counters["freegroup.factor_elements"] += len(result)


#: Work counters read from the arguments or result of a boundary call.
COUNTER_HOOKS = {
    "verify.run_battery": _count_reports,
    "verify.run_verifier": _count_reports,
    "blowup.blow_up": _count_family,
    "complexes.maximal_cliques": _count_cliques,
    "complexes.enumerate_cliques": _count_cliques,
    "freegroup.is_simple": _count_letters_in,
    "freegroup.whitehead_minimize": _count_minimize,
    "freegroup.enumerate_factor_product": _count_factor,
}
COUNTERS = (
    "verify.cases", "verify.failures", "blowup.family_size", "complexes.cliques_found",
    "freegroup.letters_in", "freegroup.letters_out", "freegroup.factor_elements",
)


class Tracer:
    """Aggregated boundary spans for one traced job at a time.

    Use as a context manager around the traced work; :meth:`reset` clears the
    aggregates between jobs while keeping the wrappers installed.
    """

    def __init__(self) -> None:
        self.plain = load_layers()
        # stats[key] = [calls, self_s, inclusive_s, errors] for key "layer.function".
        self.stats = {}
        self.lemma_s = dict.fromkeys(LEMMAS, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        # Each frame is [layer, time covered by child spans].
        self._stack = [["bench", 0.0]]
        self._patches = []
        self._wrapped = {}
        self.lib = self._build_proxies()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        key = "%s.%s" % (layer, name)
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        count = COUNTER_HOOKS.get(key)
        stack = self._stack
        counters = self.counters

        def traced(*args, **kwargs):
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][1] += elapsed
                stat[0] += 1
                stat[1] += elapsed - frame[1]
                stat[2] += elapsed
                stat[3] += raised
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def _build_proxies(self) -> types.SimpleNamespace:
        proxies = {}
        for layer in LAYERS:
            module = getattr(self.plain, layer)
            proxy = types.ModuleType(module.__name__, module.__doc__)
            proxy.__dict__.update(module.__dict__)
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrapped = self._wrap(layer, name, obj)
                    self._wrapped[id(obj)] = wrapped
                    setattr(proxy, name, wrapped)
            proxies[layer] = proxy
        return types.SimpleNamespace(**proxies)

    def _lemma_timer(self, lemma: str, fn):
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.lemma_s[lemma] = self.lemma_s.get(lemma, 0.0) + perf_counter() - start

        return timed

    # -- install / uninstall ----------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = {getattr(self.plain, layer): layer for layer in LAYERS}
        for module, layer in modules.items():
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                if isinstance(obj, types.ModuleType) and modules.get(obj, layer) != layer:
                    replacement = getattr(self.lib, modules[obj])
                elif id(obj) in self._wrapped and obj.__module__ != module.__name__:
                    replacement = self._wrapped[id(obj)]
                else:
                    continue
                self._patches.append((namespace, name, obj))
                namespace[name] = replacement
        registry = self.plain.verify.VERIFIERS
        for lemma, fn in list(registry.items()):
            self._patches.append((registry, lemma, fn))
            registry[lemma] = self._lemma_timer(lemma, fn)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            namespace, name, obj = self._patches.pop()
            namespace[name] = obj

    # -- aggregates -------------------------------------------------------

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0, 0]
        self.lemma_s = dict.fromkeys(LEMMAS, 0.0)
        for key in self.counters:
            self.counters[key] = 0
        del self._stack[1:]
        self._stack[0][1] = 0.0

    def bench_self_s(self, wall_s: float) -> float:
        """The part of a traced job's ``wall_s`` spent outside every layer span."""
        return wall_s - self._stack[0][1]

    def accounting_error(self, wall_s: float):
        """None when layer self times plus the benchmark's own time make ``wall_s``."""
        if len(self._stack) != 1:
            return "trace left %d spans open" % (len(self._stack) - 1)
        layers = sum(stat[1] for stat in self.stats.values())
        bench = self.bench_self_s(wall_s)
        if bench < 0 or abs(layers + bench - wall_s) > 1e-6 * max(wall_s, 1.0):
            return "layer self times %.6f s + benchmark %.6f s != traced wall %.6f s" % (
                layers, bench, wall_s)
        return None

    def _total(self, layer: str, index: int, names=None):
        prefix = layer + "."
        return sum(
            stat[index] for key, stat in self.stats.items()
            if key.startswith(prefix) and (names is None or key[len(prefix):] in names)
        )

    def _stat(self, key: str, index: int):
        stat = self.stats.get(key)
        return stat[index] if stat else 0

    def layer_metrics(self) -> dict:
        """Per-layer counts and times of the spans recorded since :meth:`reset`."""
        m = {}
        for layer in LAYERS:
            m[layer + ".calls"] = self._total(layer, 0)
            m[layer + ".self_s"] = self._total(layer, 1)
        pair_calls = self._total("partitions", 0, PAIR_PREDICATES)
        pair_s = self._total("partitions", 2, PAIR_PREDICATES)
        m["partitions.pair_calls"] = pair_calls
        m["partitions.pair_us"] = 1e6 * pair_s / pair_calls if pair_calls else 0.0
        m["partitions.enumerate_s"] = self._total("partitions", 2, ENUMERATORS)

        blow_ups = self._stat("blowup.blow_up", 0)
        m["blowup.blow_up.calls"] = blow_ups
        m["blowup.blow_up.self_s"] = self._stat("blowup.blow_up", 1)
        m["blowup.family_size_mean"] = (
            self.counters["blowup.family_size"] / blow_ups if blow_ups else 0.0
        )
        m["blowup.classify_shape.self_s"] = self._stat("blowup.classify_shape", 1)
        m["blowup.boundary_splitting.calls"] = self._stat("blowup.boundary_splitting", 0)
        m["blowup.boundary_splitting.self_s"] = self._stat("blowup.boundary_splitting", 1)
        m["blowup.errors"] = self._total("blowup", 3)

        cliques = self.counters["complexes.cliques_found"]
        clique_s = self._total("complexes", 2, CLIQUE_SEARCHES)
        m["complexes.build_star_graph.self_s"] = self._stat("complexes.build_star_graph", 1)
        m["complexes.maximal_cliques.self_s"] = self._stat("complexes.maximal_cliques", 1)
        m["complexes.cliques_found"] = cliques
        m["complexes.clique_us"] = 1e6 * clique_s / cliques if cliques else 0.0

        m["freegroup.is_simple.calls"] = self._stat("freegroup.is_simple", 0)
        m["freegroup.whitehead_minimize.self_s"] = self._stat("freegroup.whitehead_minimize", 1)
        m["freegroup.letters_in"] = self.counters["freegroup.letters_in"]
        m["freegroup.letters_out"] = self.counters["freegroup.letters_out"]
        m["freegroup.enumerate_factor_product.self_s"] = self._stat(
            "freegroup.enumerate_factor_product", 1)
        m["freegroup.factor_elements"] = self.counters["freegroup.factor_elements"]

        m["verify.cases"] = self.counters["verify.cases"]
        m["verify.failures"] = self.counters["verify.failures"]
        for lemma in LEMMAS:
            m["verify.%s.s" % lemma] = self.lemma_s[lemma]
        return m
