"""Finite induced splitting graphs on the partition universe, and cliques.

The vertices are the splitting classes of the universe at a fixed rank; an
edge records either rose compatibility (mode "ens") or any compatibility
between distinct splittings (mode "ns", where non-rose edges are circle
edges).  Clique machinery is deterministic so verification logs reproduce.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .blowup import blow_up, classify_shape
from .partitions import (
    MAX_RANK,
    SplittingClass,
    classes_compatible,
    classes_rose_compatible,
    enumerate_splitting_classes,
)


@dataclass(frozen=True)
class SplittingGraph:
    rank: int
    mode: str  # "ens" | "ns"
    vertices: Tuple[SplittingClass, ...]
    edges: Tuple[Tuple[int, int, str], ...]  # (i, j, kind) with i < j

    def __post_init__(self):
        if self.mode not in ("ens", "ns"):
            raise ValueError("mode must be 'ens' or 'ns'")
        for i, j, kind in self.edges:
            if not (0 <= i < j < len(self.vertices)):
                raise ValueError("bad edge endpoints (%d, %d)" % (i, j))
            if kind not in ("rose", "circle"):
                raise ValueError("bad edge kind %r" % (kind,))
            if self.mode == "ens" and kind != "rose":
                raise ValueError("ens graphs carry only rose edges")

    @cached_property
    def adjacency(self) -> Tuple[FrozenSet[int], ...]:
        adj: List[set] = [set() for _ in self.vertices]
        for i, j, _ in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return tuple(frozenset(s) for s in adj)

    def index_of(self, cls: SplittingClass) -> int:
        try:
            return self.vertices.index(cls)
        except ValueError:
            raise KeyError("class %s is not a vertex" % cls.encode()) from None

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.adjacency[i]

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "mode": self.mode,
            "vertices": [c.encode() for c in self.vertices],
            "edges": [[i, j, kind] for i, j, kind in self.edges],
        }

    def to_dot(self) -> str:
        lines = ["graph splittings {"]
        for n, c in enumerate(self.vertices):
            lines.append('  %d [label="%s"];' % (n, c.encode()))
        for i, j, kind in self.edges:
            style = "" if kind == "rose" else ' [style=dashed]'
            lines.append("  %d -- %d%s;" % (i, j, style))
        lines.append("}")
        return "\n".join(lines)


def build_star_graph(rank: int, mode: str = "ens", max_rank: int = MAX_RANK) -> SplittingGraph:
    """Induced splitting graph on all universe classes at the given rank."""
    classes = tuple(enumerate_splitting_classes(rank, max_rank=max_rank))
    edges: List[Tuple[int, int, str]] = []
    for i, j in itertools.combinations(range(len(classes)), 2):
        s, t = classes[i], classes[j]
        if not classes_compatible(s, t):
            continue
        kind = "rose" if classes_rose_compatible(s, t) else "circle"
        if mode == "ens" and kind != "rose":
            continue
        edges.append((i, j, kind))
    return SplittingGraph(rank=rank, mode=mode, vertices=classes, edges=tuple(edges))


def enumerate_cliques(g: SplittingGraph, size: int) -> List[Tuple[int, ...]]:
    """All cliques of exactly ``size`` vertices, in lexicographic index order."""
    if size < 1:
        raise ValueError("clique size must be >= 1")
    adj = g.adjacency
    out: List[Tuple[int, ...]] = []

    def grow(chosen: Tuple[int, ...], candidates: Sequence[int]) -> None:
        if len(chosen) == size:
            out.append(chosen)
            return
        needed = size - len(chosen)
        for pos, v in enumerate(candidates):
            rest = [u for u in candidates[pos + 1:] if u in adj[v]]
            if len(rest) + 1 >= needed:
                grow(chosen + (v,), rest)

    grow((), tuple(range(len(g.vertices))))
    return out


def maximal_cliques(g: SplittingGraph) -> List[Tuple[int, ...]]:
    """All maximal cliques (pivoted branch and bound), sorted for determinism.

    Pivot rule: largest candidate-neighborhood, ties to the smallest index.
    """
    adj = g.adjacency
    out: List[Tuple[int, ...]] = []

    def expand(clique: set, candidates: set, excluded: set) -> None:
        if not candidates and not excluded:
            out.append(tuple(sorted(clique)))
            return
        pool = candidates | excluded
        pivot = min(pool, key=lambda v: (-len(adj[v] & candidates), v))
        for v in sorted(candidates - adj[pivot]):
            expand(clique | {v}, candidates & adj[v], excluded & adj[v])
            candidates.remove(v)
            excluded.add(v)

    expand(set(), set(range(len(g.vertices))), set())
    return sorted(out)


def cliques_to_json(g: SplittingGraph, cliques: Iterable[Tuple[int, ...]]) -> list:
    """Clique lists as arrays of class encodings, for export."""
    return [[g.vertices[i].encode() for i in clique] for clique in cliques]


def _exists_clique(adj: Tuple[FrozenSet[int], ...], candidates: FrozenSet[int], size: int) -> bool:
    if size == 0:
        return True
    if len(candidates) < size:
        return False
    for v in sorted(candidates):
        if _exists_clique(adj, candidates & adj[v], size - 1):
            return True
        candidates = candidates - {v}
        if len(candidates) < size:
            return False
    return False


def cagey_by_cliques(s: SplittingClass, t: SplittingClass,
                     graph: Optional[SplittingGraph] = None) -> bool:
    """Clique characterization of caginess inside the universe star graph.

    True iff some clique of 3N-4 common neighbors of s and t exists, i.e.
    both extensions by s and by t are (3N-3)-cliques.
    """
    if s == t:
        raise ValueError("caginess is defined for distinct splittings")
    if graph is None:
        graph = build_star_graph(s.rank, mode="ens")
    i, j = graph.index_of(s), graph.index_of(t)
    common = graph.adjacency[i] & graph.adjacency[j]
    return _exists_clique(graph.adjacency, common, 3 * graph.rank - 4)


@dataclass(frozen=True)
class RoseVertex:
    """A set of N splitting classes blowing up to an N-rose with trivial ranks."""

    classes: Tuple[SplittingClass, ...]

    def encode(self) -> Tuple[str, ...]:
        return tuple(c.encode() for c in self.classes)


def is_rose_family(classes: Iterable[SplittingClass], rank: int) -> bool:
    fam = tuple(classes)
    if len(set(fam)) != rank:
        return False
    try:
        graph = blow_up(fam, rank)
    except ValueError:
        return False
    report = classify_shape(graph)
    return report.rose == rank and set(report.vertex_ranks) == {0}


def rose_vertices(rank: int, graph: Optional[SplittingGraph] = None,
                  limit: Optional[int] = None) -> List[RoseVertex]:
    """All N-subsets of universe classes forming an N-rose, at rank 3 or 4.

    The scan is exhaustive unless the caller passes ``limit``, which keeps
    only the first ``limit`` candidate N-cliques in lexicographic order.
    """
    if rank not in (3, 4):
        raise ValueError("rose vertices are enumerated at ranks 3 and 4 only")
    if graph is None:
        graph = build_star_graph(rank, mode="ens")
    cliques = enumerate_cliques(graph, rank)
    if limit is not None:
        cliques = cliques[:limit]
    out = []
    for indices in cliques:
        fam = tuple(graph.vertices[i] for i in indices)
        if is_rose_family(fam, rank):
            out.append(RoseVertex(classes=fam))
    return out


@dataclass(frozen=True)
class KLocalGraph:
    """Graph of N-roses joined along fat one-edge common refinements."""

    rank: int
    vertices: Tuple[RoseVertex, ...]
    edges: Tuple[Tuple[int, int], ...]

    def degree(self, i: int) -> int:
        return sum(1 for a, b in self.edges if i in (a, b))

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "vertices": [list(v.encode()) for v in self.vertices],
            "edges": [list(e) for e in self.edges],
        }

    def to_dot(self) -> str:
        lines = ["graph roses {"]
        for n, v in enumerate(self.vertices):
            lines.append('  %d [label="%s"];' % (n, "|".join(v.encode())))
        for a, b in self.edges:
            lines.append("  %d -- %d;" % (a, b))
        lines.append("}")
        return "\n".join(lines)


def k_graph_local(rank: int) -> KLocalGraph:
    """The rose graph on the universe: N-roses, joined when N+1 pairwise
    rose compatible classes contain both roses as N-subsets.

    Only rank 3 is exhaustive (the rose list is complete there).
    """
    if rank != 3:
        raise ValueError("the local rose graph is built exhaustively at rank 3 only")
    graph = build_star_graph(rank, mode="ens")
    roses = rose_vertices(rank, graph=graph)
    edges = set()
    for a, b in itertools.combinations(range(len(roses)), 2):
        fa, fb = set(roses[a].classes), set(roses[b].classes)
        union = fa | fb
        if len(union) != rank + 1 or len(fa & fb) != rank - 1:
            continue
        idx = [graph.index_of(c) for c in union]
        if all(graph.has_edge(i, j) for i, j in itertools.combinations(idx, 2)):
            edges.add((a, b))
    return KLocalGraph(rank=rank, vertices=tuple(roses), edges=tuple(sorted(edges)))
