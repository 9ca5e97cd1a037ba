"""Runnable verifiers, one per combinatorial statement, with witness reports.

Every verifier is deterministic: the same inputs give an equal report,
including the order of failure witnesses.  Reports carry no timing data,
so repeated runs compare equal and serialize byte for byte alike.
"""

from __future__ import annotations

import itertools
import json
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from . import complexes, freegroup, partitions
from .blowup import blow_up, boundary_splitting
from .partitions import (
    Partition,
    bit_positions,
    class_of,
    compatible,
    direction_bit,
    encode_class,
    enumerate_ideal_edges,
    ideal_masks,
    is_cagey,
    petal_class,
    rose_compatible,
    rose_compatible_masks,
)
from .values import Value


class VerificationReport(Value):
    """One verifier run: its cases, failure witnesses and details."""

    __slots__ = _fields = ("lemma", "rank", "cases_checked", "failures", "details")
    __hash__ = None  # detail values may be lists or dicts

    def __init__(self, lemma: str, rank: Optional[int], cases_checked: int,
                 failures: Tuple[str, ...], details: Tuple[Tuple[str, object], ...] = ()):
        super().__init__(lemma, rank, cases_checked, tuple(failures),
                         tuple((key, value) for key, value in details))

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        """The report as a JSON object, with ``passed`` derived from the failures."""
        return {
            "lemma": self.lemma,
            "rank": self.rank,
            "cases_checked": self.cases_checked,
            "failures": list(self.failures),
            "passed": self.passed,
            "details": {k: v for k, v in self.details},
        }


class _Recorder:
    """Collects case counts and failure witnesses for a verifier run."""

    def __init__(self) -> None:
        self.cases = 0
        self.failures: List[str] = []
        self.details: Dict[str, object] = {}

    def check(self, ok: bool, witness: str, *args) -> bool:
        """Count one case; on failure record ``witness % args``.

        Callable arguments are called first, so labels that cost work to
        build (``p.encode``, ``g.to_string``) are built only for failures.
        """
        self.cases += 1
        if not ok:
            self.failures.append(witness % tuple(a() if callable(a) else a for a in args))
        return ok

    def report(self, lemma: str, rank: Optional[int]) -> VerificationReport:
        return VerificationReport(
            lemma=lemma,
            rank=rank,
            cases_checked=self.cases,
            failures=tuple(self.failures),
            details=tuple(sorted(self.details.items())),
        )


# ---------------------------------------------------------------------------
# Families used by the verifiers
# ---------------------------------------------------------------------------


def _edge(rank: int, *side: Tuple[int, int]) -> Partition:
    """The partition with the given (index, sign) directions as one side."""
    return Partition(rank, sum(direction_bit(i, sign) for i, sign in side))


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
    rec = _Recorder()

    petals, companions, tau = rigid_blowup_family(rank)
    if mutated:
        broken = _edge(rank, (1, 1), (2, -1))
        companions = [class_of(broken)] + companions[1:]
    family = petals + companions

    rec.check(len(set(family)) == 3 * rank - 3,
              "family size %d != %d", len(set(family)), 3 * rank - 3)
    for a, b in itertools.combinations(family, 2):
        rec.check(
            rose_compatible(a, b),
            "family pair not rose compatible: %s / %s",
            partial(encode_class, a), partial(encode_class, b),
        )

    # Every petal is a member, so a class that could extend the clique is a
    # thick ideal side mask outside it.  Each member, from the last companion
    # back, narrows those candidates through the unchecked mask kernel: the
    # candidates are ideal by construction and the family was checked above.
    members = {f.mask for f in family}
    outside = [m for m in ideal_masks(rank, thick_only=True) if m not in members]
    extenders = outside
    for f in reversed(family):
        extenders = [m for m in extenders if rose_compatible_masks(m, f.mask, rank)]
    rec.cases += len(outside) - len(extenders)
    for mask in sorted(extenders, key=bit_positions):
        rec.check(False, "clique not maximal: %s extends it", Partition(rank, mask).encode)

    try:
        graph = blow_up(family, rank)
    except ValueError as exc:
        rec.check(False, "family does not blow up: %s", exc)
    else:
        ranks = graph.vertex_ranks()
        rec.check(set(ranks) == {0}, "blow-up has nontrivial vertex ranks %r", ranks)

    for p in petals:
        rec.check(rose_compatible(tau, p),
                  "sign edge not rose compatible with %s", partial(encode_class, p))
    for c in companions:
        rec.check(is_cagey(tau, c), "sign edge not cagey with %s", partial(encode_class, c))

    return rec.report("rigid-blowup", rank)


def verify_three_rose(rank: int, mutated: bool = False) -> VerificationReport:
    """The 3-rose family sigma (two chain edges plus a petal) and its two
    companions tau: mutual rose compatibility, caginess with their partners,
    compatibility with the others, and the rank-4 strengthening.

    ``mutated`` makes tau1 the edge {x2+, x3+}, a negative control that must fail.
    """
    if rank not in (3, 4):
        raise ValueError("three-rose verification runs at ranks 3 and 4")
    rec = _Recorder()

    sigmas = [class_of(chain_partition(rank, k)) for k in (1, 2)] + [petal_class(rank, 3)]
    if rank == 3:
        taus = [_edge(rank, (2, 1), (3, -1)), _edge(rank, (1, 1), (2, -1))]
    else:
        taus = [_edge(rank, (2, 1), (4, -1)), _edge(rank, (3, 1), (4, 1))]
    if mutated:
        taus[0] = _edge(rank, (2, 1), (3, 1))
    taus = [class_of(tau) for tau in taus]

    shape = blow_up(sigmas, rank).shape()
    rec.check(shape == (3, ()), "sigma family is not a 3-rose: %r", shape)

    rec.check(rose_compatible(taus[0], taus[1]),
              "tau1/tau2 not rose compatible")

    for i in (0, 1):
        rec.check(is_cagey(taus[i], sigmas[i]),
                  "tau%d not cagey with sigma%d", i + 1, i + 1)

    circle_pairs = []
    for i in (0, 1):
        for j in (0, 1, 2):
            if i == j:
                continue
            pair = "tau%d/sigma%d" % (i + 1, j + 1)
            ok = rec.check(compatible(taus[i], sigmas[j]), "%s not compatible", pair)
            if rank == 4:
                rec.check(ok and rose_compatible(taus[i], sigmas[j]),
                          "%s not rose compatible", pair)
            elif ok and not rose_compatible(taus[i], sigmas[j]):
                circle_pairs.append(pair)
    if rank == 3:
        rec.details["circle_pairs"] = circle_pairs
        rec.check(circle_pairs == ["tau1/sigma2", "tau2/sigma1"],
                  "unexpected circle-compatible pairs %r", circle_pairs)

    return rec.report("three-rose", rank)


def verify_clique_rank3(mutated: bool = False) -> VerificationReport:
    """Every 4-clique at rank 3 blows up to a 4-edge cage or a theta graph
    with a loop, with trivial vertex groups; both shapes occur.

    Each clique is blown up once and its quotient read through its shape
    key: the cage is ``(0, (4,))`` and the theta with a loop ``(1, (3,))``.
    """
    rec = _Recorder()
    graph = complexes.build_star_graph(3)
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
        quotient = blow_up(fam, 3)
        shape = quotient.shape()
        is_cage4 = shape == (0, (4,))
        is_theta = shape == (1, (3,))
        shapes_seen["cage"] += is_cage4
        shapes_seen["theta_with_loop"] += is_theta

        def label():
            return ",".join(map(encode_class, fam))

        rec.check(is_cage4 or is_theta, "4-clique has unexpected shape: %s", label)
        rec.check(set(quotient.vertex_ranks()) == {0},
                  "4-clique has nontrivial vertex groups: %s", label)
    rec.details["clique_count"] = len(cliques)
    rec.details["shape_census"] = dict(sorted(shapes_seen.items()))
    rec.check(shapes_seen["cage"] > 0 and shapes_seen["theta_with_loop"] > 0,
              "expected both shapes to occur among 4-cliques")
    return rec.report("clique-rank-3", 3)


def verify_boundary_types(rank: int, mutated: bool = False) -> VerificationReport:
    """Every crossing ideal pair yields a boundary splitting with 3 or 4
    distinct edges whose quotient is one of the six recognized shapes;
    cagey pairs land on the cage.

    The boundary type and the caginess are constant on each group of
    :func:`partitions.crossing_pair_orbits`, so :func:`boundary_splitting`
    runs once per group, on its first pair.  Its outcome (the tag, the cases
    a pair counts and the failure texts) counts for every pair of the group,
    and failures are reported in pair order.  Labels are built only for
    failures.
    """
    if rank not in (3, 4, 5):
        raise ValueError("boundary-type verification runs at ranks 3 to 5")
    rec = _Recorder()
    census: Dict[str, int] = {}
    edges = enumerate_ideal_edges(rank, thick_only=True)
    failing = []
    for group in partitions.crossing_pair_orbits(rank, [p.mask for p in edges]):
        p, q = (edges[k] for k in group[0])
        try:
            boundary = boundary_splitting(p, q)
        except ValueError as exc:
            cases, witnesses = 1, [str(exc)]
        else:
            tag, cagey = boundary.tag, is_cagey(p, q)
            census[tag] = census.get(tag, 0) + len(group)
            cases, witnesses = 1 + cagey, []
            if len(boundary.family) not in (3, 4):
                witnesses.append("%d boundary edges" % len(boundary.family))
            if cagey and tag != "cage-3":
                witnesses.append("cagey pair classified %s" % tag)
        rec.cases += cases * len(group)
        failing += [(pair, witness) for pair in group for witness in witnesses]
    # A stable sort by pair: a pair's witnesses keep their order.
    for (i, j), witness in sorted(failing, key=lambda entry: entry[0]):
        rec.failures.append("{%s} vs {%s}: %s" % (edges[i].encode(), edges[j].encode(), witness))
    if mutated:
        p = chain_partition(rank, 1)
        q = chain_partition(rank, 2)
        try:
            boundary_splitting(p, q)
            rec.check(False, "mutated: compatible pair accepted")
        except ValueError as exc:
            rec.check(False, "mutated: %s", exc)
    rec.details["census"] = dict(sorted(census.items()))
    rec.check(len(census) <= 6, "observed %d > 6 boundary classes", len(census))
    return rec.report("boundary-types", rank)


def verify_cagey_equivalence(rank: int = 3, mutated: bool = False) -> VerificationReport:
    """Direct corner-set caginess agrees with the (3N-3)-clique
    characterization on every distinct pair of universe classes.
    """
    if rank != 3:
        raise ValueError("the exhaustive equivalence scan runs at rank 3")
    rec = _Recorder()
    graph = complexes.build_star_graph(rank)
    adj = graph.adjacency
    target = 3 * rank - 4
    if mutated:
        target += 1
    cagey_pairs = 0
    witnessed = 0
    false_positives = 0
    for (i, s), (j, t) in itertools.combinations(enumerate(graph.vertices), 2):
        direct = is_cagey(s, t)
        searched = any(complexes.cliques_within(graph, adj[i] & adj[j], target))
        cagey_pairs += direct
        witnessed += direct and searched
        false_positives += searched and not direct
        rec.check(direct == searched, "disagreement on %s / %s: direct=%s clique=%s",
                  partial(encode_class, s), partial(encode_class, t), direct, searched)
    rec.details["cagey_pairs"] = cagey_pairs
    rec.details["universe_witnessed"] = witnessed
    rec.details["clique_without_caginess"] = false_positives
    return rec.report("cagey-equivalence", rank)


def verify_whitehead_factor(a_rank: int = 2, w: Optional[freegroup.Word] = None,
                            max_len: int = 8, mutated: bool = False) -> VerificationReport:
    """Every simple element of A * <t w t^-1> with reduced length <= max_len
    is conjugate into A or conjugate to t w t^-1.

    Requires w nonsimple in the rank-a_rank factor; the default w is the
    commutator of the first two generators.  The bound max_len truncates a
    statement quantified over the whole subgroup; it is recorded in the
    report.  Both alternatives are tested by conjugacy in F_{a_rank+1},
    where t w t^-1 is conjugate to w, which lies in A: unmutated, the second
    alternative passes no element the first has not, and the check amounts
    to "conjugate into A in F".
    """
    rec = _Recorder()
    if w is None:
        w = freegroup.Word.make(a_rank, (1, 2, -1, -2))
    if w.rank != a_rank:
        raise ValueError("w must be a word of rank %d" % a_rank)
    if freegroup.is_simple(w):
        raise ValueError("hypothesis violated: w is simple in the factor")

    ambient = a_rank + 1
    factor_rank = a_rank - 1 if mutated else a_rank
    u = freegroup.stable_conjugate(a_rank, w)
    u_cycle = freegroup.canonical_cycle(freegroup.cyclic_reduce_letters(u.letters))
    # Each word of the factor passes, in the factor: counted, not walked.
    f = factor_rank
    elements = sum(2 * f * (2 * f - 1) ** (k - 1) for k in range(1, max_len + 1))
    failing = []
    for g in freegroup.factor_product_letters(a_rank, w, max_len, factor_rank):
        elements += 1
        cyc = freegroup.cyclic_reduce_letters(g)
        if -factor_rank <= min(cyc) and max(cyc) <= factor_rank:
            continue  # in the factor, up to conjugacy
        if len(cyc) == len(u_cycle) and freegroup.canonical_cycle(cyc) == u_cycle:
            continue  # conjugate to u
        word = freegroup.Word(ambient, g)
        if freegroup.is_simple(word):
            failing.append(word)
    rec.details["max_len"] = max_len
    rec.details["elements"] = elements
    rec.cases += elements - len(failing)
    for word in sorted(failing, key=lambda word: freegroup.length_then_letter_key(word.letters)):
        rec.check(False, "simple element outside both alternatives: %s", word.to_string)
    return rec.report("whitehead-factor", ambient)


# ---------------------------------------------------------------------------
# Battery
# ---------------------------------------------------------------------------

VERIFIERS = {
    "rigid-blowup": verify_rigid_blowup,
    "three-rose": verify_three_rose,
    "clique-rank-3": verify_clique_rank3,
    "boundary-types": verify_boundary_types,
    "cagey-equivalence": verify_cagey_equivalence,
    "whitehead-factor": verify_whitehead_factor,
}

#: The verifiers whose statement fixes the rank, and that rank; every other
#: verifier needs a rank.
_FIXED_RANK = {"clique-rank-3": 3, "whitehead-factor": 3}

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


def run_verifier(lemma: str, rank: Optional[int] = None) -> VerificationReport:
    if lemma not in VERIFIERS:
        raise ValueError("unknown lemma id %r" % (lemma,))
    fn = VERIFIERS[lemma]
    if lemma not in _FIXED_RANK:
        if rank is None:
            raise ValueError("verifier %s needs a rank" % lemma)
        return fn(rank)
    fixed = _FIXED_RANK[lemma]
    if rank not in (None, fixed):
        raise ValueError("verifier %s runs at rank %d only, not rank %d" % (lemma, fixed, rank))
    return fn()


def run_battery() -> List[VerificationReport]:
    return [run_verifier(lemma, rank) for lemma, rank in BATTERY]


def battery_json(reports: Sequence[VerificationReport]) -> str:
    """Canonical JSON for a battery run: sorted keys, no whitespace, one line."""
    payload = [r.to_json() for r in reports]
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
