"""Finite induced splitting graphs on the partition universe, and cliques.

The vertices are the splitting classes of the universe at a fixed rank; an
edge records either rose compatibility (mode "ens") or any compatibility
between distinct splittings (mode "ns", where non-rose edges are circle
edges).  Adjacency is one int row per vertex, bit j of row i set iff {i, j}
is an edge, and vertex sets are bitsets over the vertex indices.

One lazy search, ``cliques_within``, yields the cliques of an exact size
inside a candidate bitset in lexicographic order; exact enumeration, the
clique characterization of caginess and rose vertices all use it.
``maximal_cliques`` is pivoted Bron-Kerbosch on the same rows.  Both are
deterministic so verification logs reproduce.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .blowup import blow_up
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
    def adjacency(self) -> Tuple[int, ...]:
        """One int row per vertex: bit j of row i is set iff {i, j} is an edge."""
        rows = [0] * len(self.vertices)
        for i, j, _ in self.edges:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return tuple(rows)

    @cached_property
    def _index(self) -> Dict[SplittingClass, int]:
        return {cls: n for n, cls in enumerate(self.vertices)}

    def index_of(self, cls: SplittingClass) -> int:
        try:
            return self._index[cls]
        except KeyError:
            raise KeyError("class %s is not a vertex" % cls.encode()) from None


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


def cliques_within(g: SplittingGraph, candidates: int, size: int) -> Iterator[Tuple[int, ...]]:
    """The cliques of exactly ``size`` vertices inside the bitset ``candidates``.

    Lazy, in lexicographic index order: each step takes the least candidate
    and narrows the rest to its row, and a branch stops as soon as fewer
    candidates remain than vertices are still needed.
    """
    if size < 1:
        raise ValueError("clique size must be >= 1")
    adj = g.adjacency

    def grow(chosen: Tuple[int, ...], cand: int, needed: int) -> Iterator[Tuple[int, ...]]:
        while cand.bit_count() >= needed:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            if needed == 1:
                yield chosen + (v,)
                continue
            rest = cand & adj[v]
            if rest.bit_count() >= needed - 1:
                yield from grow(chosen + (v,), rest, needed - 1)

    return grow((), candidates, size)


def enumerate_cliques(g: SplittingGraph, size: int) -> List[Tuple[int, ...]]:
    """All cliques of exactly ``size`` vertices, in lexicographic index order."""
    return list(cliques_within(g, (1 << len(g.vertices)) - 1, size))


def maximal_cliques(g: SplittingGraph) -> List[Tuple[int, ...]]:
    """All maximal cliques (pivoted Bron-Kerbosch on bitsets), sorted for determinism.

    Pivot rule: largest candidate-neighborhood, ties to the smallest index.
    """
    adj = g.adjacency
    out: List[Tuple[int, ...]] = []

    def expand(clique: Tuple[int, ...], cand: int, excl: int) -> None:
        if not cand:
            if not excl:
                out.append(tuple(sorted(clique)))
            return
        best = -1
        pool = cand | excl
        while pool:
            low = pool & -pool
            pool ^= low
            v = low.bit_length() - 1
            n = (adj[v] & cand).bit_count()
            if n > best:
                best, pivot = n, v
        todo = cand & ~adj[pivot]
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            expand(clique + (v,), cand & adj[v], excl & adj[v])
            cand ^= low
            excl |= low

    expand((), (1 << len(g.vertices)) - 1, 0)
    return sorted(out)


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
    common = graph.adjacency[graph.index_of(s)] & graph.adjacency[graph.index_of(t)]
    return any(cliques_within(graph, common, 3 * graph.rank - 4))


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
    # N edges on one vertex: the Euler identity makes every edge a loop and the vertex rank 0.
    return len(graph.vertices) == 1


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
    cliques = cliques_within(graph, (1 << len(graph.vertices)) - 1, rank)
    out = []
    for indices in itertools.islice(cliques, limit):
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
    adj = graph.adjacency
    roses = rose_vertices(rank, graph=graph)
    members = [[graph.index_of(c) for c in r.classes] for r in roses]
    masks = [sum(1 << i for i in m) for m in members]
    edges = []
    for a, b in itertools.combinations(range(len(roses)), 2):
        if (masks[a] & masks[b]).bit_count() != rank - 1:
            continue
        union = masks[a] | masks[b]
        # A clique: every member's row, plus the member itself, covers the union.
        if all(union & ~adj[i] == 1 << i for i in members[a] + members[b]):
            edges.append((a, b))
    return KLocalGraph(rank=rank, vertices=tuple(roses), edges=tuple(edges))
