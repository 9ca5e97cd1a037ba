"""Runnable verifiers, one per combinatorial statement, with witness reports.

Every verifier is deterministic: the same inputs give the same report,
including the order of failure witnesses.  Reports serialize without
timing data by default so that repeated runs are byte identical.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import complexes, freegroup, partitions
from .blowup import boundary_splitting, blow_up, classify_shape
from .partitions import (
    Partition,
    class_of,
    classes_cagey,
    classes_compatible,
    classes_rose_compatible,
    direction_bit,
    enumerate_ideal_edges,
    enumerate_splitting_classes,
    is_cagey,
    petal_class,
)


@dataclass(frozen=True)
class VerificationReport:
    lemma: str
    rank: Optional[int]
    cases_checked: int
    failures: Tuple[str, ...]
    elapsed_s: float
    details: Tuple[Tuple[str, object], ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self, include_timing: bool = False) -> dict:
        out = {
            "lemma": self.lemma,
            "rank": self.rank,
            "cases_checked": self.cases_checked,
            "failures": list(self.failures),
            "passed": self.passed,
            "details": {k: v for k, v in self.details},
        }
        if include_timing:
            out["elapsed_s"] = self.elapsed_s
        return out


class _Recorder:
    """Collects case counts and failure witnesses for a verifier run."""

    def __init__(self) -> None:
        self.cases = 0
        self.failures: List[str] = []
        self.details: Dict[str, object] = {}

    def check(self, ok: bool, witness: str) -> bool:
        self.cases += 1
        if not ok:
            self.failures.append(witness)
        return ok

    def report(self, lemma: str, rank: Optional[int], started: float) -> VerificationReport:
        return VerificationReport(
            lemma=lemma,
            rank=rank,
            cases_checked=self.cases,
            failures=tuple(self.failures),
            elapsed_s=time.perf_counter() - started,
            details=tuple(sorted(self.details.items())),
        )


# ---------------------------------------------------------------------------
# Families used by the verifiers
# ---------------------------------------------------------------------------


def _edge(rank: int, *side: Tuple[int, int]) -> Partition:
    """The partition with the given (index, sign) directions as one side."""
    return Partition.from_mask(rank, sum(direction_bit(i, sign) for i, sign in side))


def chain_partition(rank: int, k: int) -> Partition:
    """The thick edge with side {x_k^-, x_{k+1}^+}, petal indices mod rank."""
    return _edge(rank, (k, -1), (k % rank + 1, 1))


def interval_partition(rank: int, k: int) -> Partition:
    """The thick edge whose side collects x1- and the full pairs 2..k plus x_{k+1}^+."""
    pairs = ((i, sign) for i in range(2, k + 1) for sign in (1, -1))
    return _edge(rank, (1, -1), (k + 1, 1), *pairs)


def sign_partition(rank: int) -> Partition:
    """The thick edge separating all minus directions from all plus directions."""
    return _edge(rank, *((i, -1) for i in range(1, rank + 1)))


def rigid_blowup_family(rank: int):
    """The petals, the chain and interval edges, and the sign edge.

    Returns (petal classes, companion classes, sign class); petals plus
    companions form the distinguished clique of 3N-3 classes.
    """
    petals = [petal_class(rank, i) for i in range(1, rank + 1)]
    companions = [class_of(chain_partition(rank, k)) for k in range(1, rank + 1)]
    companions += [class_of(interval_partition(rank, k)) for k in range(2, rank - 1)]
    return petals, companions, class_of(sign_partition(rank))


def three_rose_data(rank: int):
    """The 3-rose family (two chain edges plus a petal) and its two companions."""
    if rank == 3:
        tau1 = _edge(rank, (2, 1), (3, -1))
        tau2 = _edge(rank, (1, 1), (2, -1))
    elif rank == 4:
        tau1 = _edge(rank, (2, 1), (4, -1))
        tau2 = _edge(rank, (3, 1), (4, 1))
    else:
        raise ValueError("the 3-rose configuration is built at ranks 3 and 4")
    sigmas = [
        class_of(chain_partition(rank, 1)),
        class_of(chain_partition(rank, 2)),
        petal_class(rank, 3),
    ]
    return sigmas, [class_of(tau1), class_of(tau2)]


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


def verify_rigid_blowup(rank: int, mutated: bool = False) -> VerificationReport:
    """The distinguished blow-up: a maximal (3N-3)-clique plus a sign edge
    that is rose compatible with every petal and cagey with every companion.

    ``mutated`` flips the signs of the first chain edge, a negative control
    that must fail.
    """
    if not (4 <= rank <= 6):
        raise ValueError("rigid blow-up verification runs at ranks 4..6")
    started = time.perf_counter()
    rec = _Recorder()

    petals, companions, tau = rigid_blowup_family(rank)
    if mutated:
        broken = _edge(rank, (1, 1), (2, -1))
        companions = [class_of(broken)] + companions[1:]
    family = petals + companions

    rec.check(len(set(family)) == 3 * rank - 3,
              "family size %d != %d" % (len(set(family)), 3 * rank - 3))
    for a, b in itertools.combinations(family, 2):
        rec.check(
            classes_compatible(a, b) and classes_rose_compatible(a, b),
            "family pair not rose compatible: %s / %s" % (a.encode(), b.encode()),
        )

    universe = enumerate_splitting_classes(rank)
    members = set(family)
    for cls in universe:
        if cls in members:
            continue
        adjacent_to_all = all(
            classes_compatible(cls, f) and classes_rose_compatible(cls, f) for f in family
        )
        rec.check(not adjacent_to_all,
                  "clique not maximal: %s extends it" % cls.encode())

    try:
        graph = blow_up(family, rank)
    except ValueError as exc:
        rec.check(False, "family does not blow up: %s" % exc)
    else:
        report = classify_shape(graph)
        rec.check(set(report.vertex_ranks) == {0},
                  "blow-up has nontrivial vertex ranks %r" % (report.vertex_ranks,))

    for p in petals:
        rec.check(classes_rose_compatible(tau, p),
                  "sign edge not rose compatible with %s" % p.encode())
    for c in companions:
        rec.check(classes_cagey(tau, c),
                  "sign edge not cagey with %s" % c.encode())

    return rec.report("rigid-blowup", rank, started)


def verify_three_rose(rank: int, mutated: bool = False) -> VerificationReport:
    """The 3-rose companions: mutual rose compatibility, caginess with their
    partners, compatibility with the others, and the rank-4 strengthening.
    """
    if rank not in (3, 4):
        raise ValueError("three-rose verification runs at ranks 3 and 4")
    started = time.perf_counter()
    rec = _Recorder()

    sigmas, taus = three_rose_data(rank)
    if mutated:
        taus = [class_of(_edge(rank, (2, 1), (3, 1))), taus[1]]

    rose_graph = blow_up(sigmas, rank)
    shape = classify_shape(rose_graph)
    rec.check(shape.rose == 3, "sigma family is not a 3-rose: %r" % (shape,))

    rec.check(classes_rose_compatible(taus[0], taus[1]),
              "tau1/tau2 not rose compatible")

    for i in (0, 1):
        rec.check(classes_cagey(taus[i], sigmas[i]),
                  "tau%d not cagey with sigma%d" % (i + 1, i + 1))

    circle_pairs = []
    for i in (0, 1):
        for j in (0, 1, 2):
            if i == j:
                continue
            pair = "tau%d/sigma%d" % (i + 1, j + 1)
            ok = rec.check(classes_compatible(taus[i], sigmas[j]),
                           "%s not compatible" % pair)
            if rank == 4:
                rec.check(ok and classes_rose_compatible(taus[i], sigmas[j]),
                          "%s not rose compatible" % pair)
            elif ok and not classes_rose_compatible(taus[i], sigmas[j]):
                circle_pairs.append(pair)
    if rank == 3:
        rec.details["circle_pairs"] = circle_pairs
        rec.check(circle_pairs == ["tau1/sigma2", "tau2/sigma1"],
                  "unexpected circle-compatible pairs %r" % (circle_pairs,))

    return rec.report("three-rose", rank, started)


def verify_clique_rank3(mutated: bool = False) -> VerificationReport:
    """Every 4-clique at rank 3 blows up to a 4-edge cage or a theta graph
    with a loop, with trivial vertex groups; both shapes occur.
    """
    started = time.perf_counter()
    rec = _Recorder()
    graph = complexes.build_star_graph(3, mode="ens")
    cliques = complexes.enumerate_cliques(graph, 4)
    if mutated:
        tau1 = graph.index_of(class_of(_edge(3, (2, 1), (3, -1))))
        sigma2 = graph.index_of(class_of(_edge(3, (2, -1), (3, 1))))
        p1 = graph.index_of(petal_class(3, 1))
        p2 = graph.index_of(petal_class(3, 2))
        cliques = cliques + [tuple(sorted((tau1, sigma2, p1, p2)))]

    shapes_seen = {"cage": 0, "theta_with_loop": 0}
    for indices in cliques:
        fam = [graph.vertices[i] for i in indices]
        label = ",".join(c.encode() for c in fam)
        g = blow_up(fam, 3)
        report = classify_shape(g)
        is_cage4 = report.cage == 4
        is_theta = report.theta_with_loop
        if is_cage4:
            shapes_seen["cage"] += 1
        if is_theta:
            shapes_seen["theta_with_loop"] += 1
        rec.check(is_cage4 or is_theta,
                  "4-clique has unexpected shape: %s" % label)
        rec.check(set(report.vertex_ranks) == {0},
                  "4-clique has nontrivial vertex groups: %s" % label)
    rec.details["clique_count"] = len(cliques)
    rec.details["shape_census"] = dict(sorted(shapes_seen.items()))
    rec.check(shapes_seen["cage"] > 0 and shapes_seen["theta_with_loop"] > 0,
              "expected both shapes to occur among 4-cliques")
    return rec.report("clique-rank-3", 3, started)


def _crossing_thick_pairs(rank: int):
    thick = enumerate_ideal_edges(rank, thick_only=True)
    for p, q in itertools.combinations(thick, 2):
        if partitions.crosses(p, q):
            yield p, q


def verify_boundary_types(rank: int, mutated: bool = False) -> VerificationReport:
    """Every crossing ideal pair yields a boundary splitting with 3 or 4
    distinct edges whose quotient is one of the six recognized shapes;
    cagey pairs land on the cage.
    """
    if rank not in (3, 4):
        raise ValueError("boundary-type verification runs at ranks 3 and 4")
    started = time.perf_counter()
    rec = _Recorder()
    census: Dict[str, int] = {}
    for p, q in _crossing_thick_pairs(rank):
        label = "{%s} vs {%s}" % (p.encode(), q.encode())
        try:
            boundary = boundary_splitting(p, q)
        except ValueError as exc:
            rec.check(False, "%s: %s" % (label, exc))
            continue
        census[boundary.tag] = census.get(boundary.tag, 0) + 1
        rec.check(boundary.edge_count in (3, 4),
                  "%s: %d boundary edges" % (label, boundary.edge_count))
        if is_cagey(p, q):
            rec.check(boundary.tag == "cage-3",
                      "%s: cagey pair classified %s" % (label, boundary.tag))
    if mutated:
        p = chain_partition(rank, 1)
        q = chain_partition(rank, 2)
        try:
            boundary_splitting(p, q)
            rec.check(False, "mutated: compatible pair accepted")
        except ValueError as exc:
            rec.check(False, "mutated: %s" % exc)
    rec.details["census"] = dict(sorted(census.items()))
    rec.check(len(census) <= 6, "observed %d > 6 boundary classes" % len(census))
    return rec.report("boundary-types", rank, started)


def verify_cagey_equivalence(rank: int = 3, mutated: bool = False) -> VerificationReport:
    """Direct corner-set caginess agrees with the (3N-3)-clique
    characterization on every distinct pair of universe classes.
    """
    if rank != 3:
        raise ValueError("the exhaustive equivalence scan runs at rank 3")
    started = time.perf_counter()
    rec = _Recorder()
    graph = complexes.build_star_graph(rank, mode="ens")
    classes = graph.vertices
    target = 3 * rank - 4
    if mutated:
        target += 1
    cagey_pairs = 0
    witnessed = 0
    false_positives = 0
    for s, t in itertools.combinations(classes, 2):
        direct = classes_cagey(s, t)
        i, j = graph.index_of(s), graph.index_of(t)
        common = graph.adjacency[i] & graph.adjacency[j]
        searched = complexes._exists_clique(graph.adjacency, common, target)
        cagey_pairs += direct
        witnessed += direct and searched
        false_positives += searched and not direct
        rec.check(direct == searched,
                  "disagreement on %s / %s: direct=%s clique=%s"
                  % (s.encode(), t.encode(), direct, searched))
    rec.details["cagey_pairs"] = cagey_pairs
    rec.details["universe_witnessed"] = witnessed
    rec.details["clique_without_caginess"] = false_positives
    return rec.report("cagey-equivalence", rank, started)


def verify_whitehead_factor(a_rank: int = 2, w: Optional[freegroup.Word] = None,
                            max_len: int = 8, mutated: bool = False) -> VerificationReport:
    """Every simple element of A * <t w t^-1> with reduced length <= max_len
    is conjugate into A or conjugate to t w t^-1.

    Requires w nonsimple in the rank-a_rank factor; the default w is the
    commutator of the first two generators.  The bound max_len truncates a
    statement quantified over the whole subgroup; it is recorded in the
    report.
    """
    started = time.perf_counter()
    rec = _Recorder()
    if w is None:
        w = freegroup.Word.make(a_rank, (1, 2, -1, -2))
    if w.rank != a_rank:
        raise ValueError("w must be a word of rank %d" % a_rank)
    if freegroup.is_simple(w):
        raise ValueError("hypothesis violated: w is simple in the factor")

    u = freegroup.stable_conjugate(a_rank, w)
    factor_rank = a_rank - 1 if mutated else a_rank
    elements = freegroup.enumerate_factor_product(a_rank, w, max_len)
    rec.details["max_len"] = max_len
    rec.details["elements"] = len(elements)
    for g in elements:
        label = g.to_string()
        if freegroup.conjugate_into_factor(g, factor_rank):
            rec.check(True, label)
            continue
        if freegroup.is_conjugate(g, u):
            rec.check(True, label)
            continue
        rec.check(not freegroup.is_simple(g),
                  "simple element outside both alternatives: %s" % label)
    return rec.report("whitehead-factor", a_rank + 1, started)


# ---------------------------------------------------------------------------
# Battery
# ---------------------------------------------------------------------------

VERIFIERS = {
    "rigid-blowup": verify_rigid_blowup,
    "three-rose": verify_three_rose,
    "clique-rank-3": lambda rank=None, **kw: verify_clique_rank3(**kw),
    "boundary-types": verify_boundary_types,
    "cagey-equivalence": verify_cagey_equivalence,
    "whitehead-factor": lambda rank=None, **kw: verify_whitehead_factor(**kw),
}

BATTERY: Tuple[Tuple[str, Optional[int]], ...] = (
    ("rigid-blowup", 4),
    ("rigid-blowup", 5),
    ("rigid-blowup", 6),
    ("three-rose", 3),
    ("three-rose", 4),
    ("clique-rank-3", None),
    ("boundary-types", 3),
    ("boundary-types", 4),
    ("cagey-equivalence", 3),
    ("whitehead-factor", None),
)


def run_verifier(lemma: str, rank: Optional[int] = None, **kwargs) -> VerificationReport:
    if lemma not in VERIFIERS:
        raise ValueError("unknown lemma id %r" % (lemma,))
    fn = VERIFIERS[lemma]
    if rank is None:
        return fn(**kwargs)
    return fn(rank, **kwargs)


def run_battery() -> List[VerificationReport]:
    return [run_verifier(lemma, rank) for lemma, rank in BATTERY]


def battery_json(reports: Sequence[VerificationReport]) -> str:
    """Canonical JSON for a battery run; timing is omitted so bytes repeat."""
    payload = [r.to_json(include_timing=False) for r in reports]
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
