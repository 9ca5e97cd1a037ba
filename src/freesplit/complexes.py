"""Finite induced splitting graphs on the partition universe, and cliques.

The vertices are the splitting classes of the universe at a fixed rank, and
an edge joins two rose compatible classes.  Adjacency is one int row per
vertex, bit j of row i set iff {i, j} is an edge, and vertex sets are
bitsets over the vertex indices.

One lazy search, ``cliques_within``, yields the cliques of an exact size
inside a candidate bitset in lexicographic order; exact enumeration, rose
vertices and the cagey-equivalence verifier all use it.
``maximal_cliques`` is pivoted Bron-Kerbosch on the same rows.  Both are
deterministic so verification logs reproduce.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Tuple

from .blowup import blow_up
from .partitions import (
    Partition,
    class_of,
    encode_class,
    enumerate_splitting_classes,
    rose_compatible_masks,
)
from .values import Value


class SplittingGraph(Value):
    """The rose graph on splitting classes; the constructor also builds its
    ``adjacency`` rows and vertex index, which take no part in the value."""

    _fields = ("rank", "mode", "vertices", "edges")
    __slots__ = _fields + ("adjacency", "_index")

    def __init__(self, rank: int,
                 mode: str,  # always "ens": rose edges only
                 vertices: Tuple[Partition, ...],  # classes, as canonical partitions
                 edges: Tuple[Tuple[int, int, str], ...]):  # (i, j, "rose") with i < j
        if mode != "ens":
            raise ValueError("mode must be 'ens'")
        vertices = tuple(vertices)
        rows = [0] * len(vertices)
        triples = []
        for i, j, kind in edges:
            if not (0 <= i < j < len(vertices)):
                raise ValueError("bad edge endpoints (%d, %d)" % (i, j))
            if kind != "rose":
                raise ValueError("bad edge kind %r" % (kind,))
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            triples.append((i, j, kind))
        index = {cls: n for n, cls in enumerate(vertices)}
        if len(index) != len(vertices) or any(class_of(c) != c for c in vertices):
            raise ValueError("vertices must be distinct splitting classes")
        super().__init__(rank, mode, vertices, tuple(triples), tuple(rows), index)

    def index_of(self, cls: Partition) -> int:
        """The index of the vertex holding the class of ``cls``."""
        try:
            return self._index[class_of(cls)]
        except KeyError:
            raise KeyError("class %s is not a vertex" % encode_class(cls)) from None


def build_star_graph(rank: int) -> SplittingGraph:
    """Rose compatibility graph on all universe classes at the given rank."""
    classes = tuple(enumerate_splitting_classes(rank))
    # Universe classes are distinct and ideal, so the unchecked mask kernel
    # decides; it is False on a crossing pair.
    masks = [c.mask for c in classes]
    edges = tuple(
        (i, j, "rose") for (i, a), (j, b) in itertools.combinations(enumerate(masks), 2)
        if rose_compatible_masks(a, b, rank)
    )
    return SplittingGraph(rank=rank, mode="ens", vertices=classes, edges=edges)


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


def is_rose_family(classes: Iterable[Partition], rank: int) -> bool:
    """True iff the classes blow up to N loops (one per distinct class) on one vertex,
    which the Euler identity makes an N-rose; a family that does not blow up is none."""
    try:
        return blow_up(classes, rank).shape() == (rank, ())
    except ValueError:
        return False


def rose_vertices(graph: SplittingGraph) -> List[Tuple[Partition, ...]]:
    """All N-cliques of ``graph`` forming an N-rose, at rank 3 or 4.

    On the universe graph ``build_star_graph(N)`` these are all the N-roses.
    A rose is the tuple of its classes in vertex order; it blows up to an
    N-rose with trivial vertex ranks.
    """
    rank = graph.rank
    if rank not in (3, 4):
        raise ValueError("rose vertices are enumerated at ranks 3 and 4 only")
    out = []
    for indices in cliques_within(graph, (1 << len(graph.vertices)) - 1, rank):
        fam = tuple(graph.vertices[i] for i in indices)
        if is_rose_family(fam, rank):
            out.append(fam)
    return out


class KLocalGraph(Value):
    """Graph of N-roses joined along fat one-edge common refinements."""

    __slots__ = _fields = ("rank", "vertices", "edges")

    def __init__(self, rank: int,
                 vertices: Tuple[Tuple[Partition, ...], ...],  # roses, as tuples of classes
                 edges: Tuple[Tuple[int, int], ...]):
        super().__init__(rank, tuple(map(tuple, vertices)), tuple((a, b) for a, b in edges))

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "vertices": [list(map(encode_class, v)) for v in self.vertices],
            "edges": [list(e) for e in self.edges],
        }

    def to_dot(self) -> str:
        lines = ["graph roses {"]
        for n, v in enumerate(self.vertices):
            lines.append('  %d [label="%s"];' % (n, "|".join(map(encode_class, v))))
        for a, b in self.edges:
            lines.append("  %d -- %d;" % (a, b))
        lines.append("}")
        return "\n".join(lines)


def k_graph_local(rank: int) -> KLocalGraph:
    """The rose graph on the universe: N-roses, joined when N+1 pairwise
    rose compatible classes contain both roses as N-subsets.

    Each (N+1)-clique is such a set, and two roses lie in at most one, so
    the edges are the pairs of roses among the N-subsets of each clique.
    Only rank 3 is exhaustive (the rose list is complete there).
    """
    if rank != 3:
        raise ValueError("the local rose graph is built exhaustively at rank 3 only")
    graph = build_star_graph(rank)
    roses = rose_vertices(graph)
    position = {rose: n for n, rose in enumerate(roses)}
    edges = set()
    for indices in cliques_within(graph, (1 << len(graph.vertices)) - 1, rank + 1):
        fam = tuple(graph.vertices[i] for i in indices)
        found = [position[sub] for sub in itertools.combinations(fam, rank) if sub in position]
        edges.update(itertools.combinations(found, 2))
    return KLocalGraph(rank=rank, vertices=tuple(roses), edges=tuple(sorted(edges)))
