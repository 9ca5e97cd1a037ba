"""Blow-ups of the rose along compatible families, and quotient-shape reports.

A compatible family of splitting classes determines a graph of groups: the
thick partitions assemble into the dual tree of the family, every petal is
attached by side membership, and petals absent from the family are
collapsed (a loop collapse adds one to the free rank at its vertex, a
non-loop collapse merges the two endpoints).  The result always satisfies
the Euler identity  (#edges - #vertices + 1) + sum of vertex ranks = N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from .partitions import (
    Partition,
    SplittingClass,
    bit_positions,
    class_of,
    classes_compatible,
    corner_masks,
    crosses,
    direction_bit,
    full_mask,
    is_ideal,
)


class IncompatibleFamilyError(ValueError):
    """Raised when a blow-up is requested for a family with a crossing pair."""


@dataclass(frozen=True)
class GraphOfGroups:
    """A finite connected graph with a free-rank label on each vertex.

    ``vertices`` is a tuple of (vertex id, free rank); ``edges`` is a tuple
    of (edge id, (end id, end id), label).  Edges carry no orientation.
    """

    rank: int
    vertices: Tuple[Tuple[str, int], ...]
    edges: Tuple[Tuple[str, Tuple[str, str], str], ...]

    def __post_init__(self):
        ids = [vid for vid, _ in self.vertices]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex ids")
        known = set(ids)
        for eid, (u, v), _ in self.edges:
            if u not in known or v not in known:
                raise ValueError("edge %r has unknown endpoint" % (eid,))
        if not self._connected():
            raise ValueError("graph of groups must be connected")
        euler = len(self.edges) - len(self.vertices) + 1
        total = euler + sum(r for _, r in self.vertices)
        if total != self.rank:
            raise ValueError(
                "rank conservation violated: cycles %d + vertex ranks %d != %d"
                % (euler, total - euler, self.rank)
            )

    # -- basic structure ---------------------------------------------------

    def degree(self, vid: str) -> int:
        deg = 0
        for _, (u, v), _ in self.edges:
            if u == vid:
                deg += 1
            if v == vid:
                deg += 1
        return deg

    def loops(self) -> Tuple[str, ...]:
        return tuple(eid for eid, (u, v), _ in self.edges if u == v)

    def bundles(self) -> Tuple[int, ...]:
        """Sorted multiplicities of the non-loop edge bundles between vertex pairs."""
        counts: Dict[Tuple[str, str], int] = {}
        for _, (u, v), _ in self.edges:
            if u != v:
                pair = (u, v) if u <= v else (v, u)
                counts[pair] = counts.get(pair, 0) + 1
        return tuple(sorted(counts.values()))

    def valence_profile(self) -> Tuple[int, ...]:
        return tuple(sorted(self.degree(vid) for vid, _ in self.vertices))

    def _connected(self, skip: frozenset = frozenset()) -> bool:
        uf = _UnionFind(vid for vid, _ in self.vertices)
        for eid, (u, v), _ in self.edges:
            if eid not in skip:
                uf.union(u, v)
        return len({uf.find(vid) for vid, _ in self.vertices}) <= 1

    def disconnects_without(self, edge_ids: Iterable[str]) -> bool:
        return not self._connected(frozenset(edge_ids))

    # -- exports -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "vertices": [{"id": vid, "free_rank": r} for vid, r in self.vertices],
            "edges": [
                {"id": eid, "ends": [u, v], "label": label}
                for eid, (u, v), label in self.edges
            ],
        }

    def to_dot(self) -> str:
        lines = ["graph blowup {"]
        for vid, r in self.vertices:
            lines.append('  "%s" [label="%s (rank %d)"];' % (vid, vid, r))
        for eid, (u, v), label in self.edges:
            lines.append('  "%s" -- "%s" [label="%s"];' % (u, v, label))
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Dual-tree construction
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self, items: Iterable[Hashable]):
        self.parent = {i: i for i in items}

    def find(self, i: Hashable) -> Hashable:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a: Hashable, b: Hashable) -> Hashable:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
        return ra


def blow_up(family: Iterable[SplittingClass], rank: int) -> GraphOfGroups:
    """Graph of groups determined by a pairwise compatible family of classes.

    The output is canonical: vertex ids depend only on the family, not on
    iteration order.  Raises :class:`IncompatibleFamilyError` on a crossing
    pair and ``ValueError`` on an empty family.
    """
    fam = sorted(set(family), key=lambda c: c.key)
    if not fam:
        raise ValueError("cannot blow up an empty family")
    for c in fam:
        if c.rank != rank:
            raise ValueError("family member %s has rank %d, expected %d"
                             % (c.encode(), c.rank, rank))
    for a, b in itertools.combinations(fam, 2):
        if not classes_compatible(a, b):
            raise IncompatibleFamilyError(
                "family members cross: {%s} and {%s}" % (a.encode(), b.encode())
            )

    # The dual tree of the thick members is their laminar family of side1
    # masks: canonical side1s never hold x1+, so those of a compatible
    # family are nested or disjoint.  A vertex is a member mask (or the
    # root, ``full``) holding its directions minus its children's, and each
    # member's edge joins it to its smallest strict superset or the root.
    full = full_mask(rank)
    thick = {c.representative.mask: c for c in fam if c.kind == "thick"}
    dirs = {m: m for m in thick}
    dirs[full] = full
    ends: Dict[SplittingClass, Tuple[int, int]] = {}
    for m, c in thick.items():
        parent = min((o for o in thick if o != m and not m & ~o),
                     key=int.bit_count, default=full)
        dirs[parent] &= ~m
        ends[c] = (m, parent)

    owner = {1 << b: vid for vid, own in dirs.items() for b in bit_positions(own)}
    petal_ends = {
        i: (owner[direction_bit(i, 1)], owner[direction_bit(i, -1)])
        for i in range(1, rank + 1)
    }
    kept_petals = {c.petal_index for c in fam if c.kind == "petal"}

    uf = _UnionFind(dirs)
    extra_rank = {vid: 0 for vid in dirs}
    for i in range(1, rank + 1):
        if i in kept_petals:
            continue
        u, v = (uf.find(x) for x in petal_ends[i])
        if u == v:
            extra_rank[u] += 1
        else:
            root = uf.union(u, v)
            other = v if root == u else u
            extra_rank[root] += extra_rank.pop(other)
            dirs[root] |= dirs.pop(other)

    edge_records = []
    for c in fam:
        u, v = ends[c] if c.kind == "thick" else petal_ends[c.petal_index]
        edge_records.append((c.encode(), uf.find(u), uf.find(v)))

    incident: Dict[int, List[str]] = {root: [] for root in dirs}
    for label, u, v in edge_records:
        incident[u].append(label)
        if v != u:
            incident[v].append(label)

    keys = {
        root: (0, bit_positions(own)) if own else (1, tuple(sorted(incident[root])))
        for root, own in dirs.items()
    }
    names = {
        root: "v%d" % n
        for n, root in enumerate(sorted(keys, key=lambda r: keys[r]))
    }

    vertices = tuple(
        sorted((names[root], extra_rank[root]) for root in keys)
    )
    edges = tuple(
        sorted(
            (label, tuple(sorted((names[u], names[v]))), label)
            for label, u, v in edge_records
        )
    )
    return GraphOfGroups(rank=rank, vertices=vertices, edges=edges)


# ---------------------------------------------------------------------------
# Shape classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapeReport:
    """Structural summary of a quotient graph of groups."""

    valence_profile: Tuple[int, ...]
    vertex_ranks: Tuple[int, ...]
    rose: Optional[int]
    cage: Optional[int]
    theta_with_loop: bool
    has_separating_edge: bool
    has_separating_edge_pair: bool

    def to_json(self) -> dict:
        return {
            "valence_profile": list(self.valence_profile),
            "vertex_ranks": list(self.vertex_ranks),
            "rose": self.rose,
            "cage": self.cage,
            "theta_with_loop": self.theta_with_loop,
            "has_separating_edge": self.has_separating_edge,
            "has_separating_edge_pair": self.has_separating_edge_pair,
        }


def classify_shape(g: GraphOfGroups) -> ShapeReport:
    """Report valences, ranks, rose/cage/theta recognition and separating edges."""
    n_vertices = len(g.vertices)
    n_edges = len(g.edges)
    loops = g.loops()
    bundles = g.bundles()

    rose = n_edges if (n_vertices == 1 and len(loops) == n_edges) else None
    cage = (
        n_edges
        if (n_vertices == 2 and not loops and bundles == (n_edges,))
        else None
    )
    theta_with_loop = n_vertices == 2 and n_edges == 4 and len(loops) == 1 and bundles == (3,)

    sep_edge = any(g.disconnects_without([eid]) for eid, _, _ in g.edges)
    sep_pair = any(
        g.disconnects_without([a, b])
        for (a, _, _), (b, _, _) in itertools.combinations(g.edges, 2)
    )

    return ShapeReport(
        valence_profile=g.valence_profile(),
        vertex_ranks=tuple(sorted(r for _, r in g.vertices)),
        rose=rose,
        cage=cage,
        theta_with_loop=theta_with_loop,
        has_separating_edge=sep_edge,
        has_separating_edge_pair=sep_pair,
    )


#: The six quotient shapes a crossing pair's boundary splitting can take.
#: The names are stable artifact labels for the observed isomorphism
#: classes (vertex ranks vary with N and are not part of the class):
#:
#:   cage-3            two vertices joined by four parallel edges (the cage;
#:                     the defining shape of a cagey pair)
#:   separating-bridge a three-edge bundle plus a separating bridge
#:   theta-variant     two two-edge bundles sharing a vertex
#:   two-loops-bridge  a two-edge bundle plus two separating bridges, each
#:                     ending in a positive-rank vertex
#:   cage-2-plus-loop  a two-edge bundle plus a loop at the shared vertex
#:   loop-plus-bridge  a loop plus two separating bridges
BOUNDARY_TAGS = (
    "separating-bridge",
    "loop-plus-bridge",
    "cage-3",
    "cage-2-plus-loop",
    "two-loops-bridge",
    "theta-variant",
)


def _boundary_tag(g: GraphOfGroups) -> str:
    shape = (len(g.loops()), g.bundles())
    table = {
        (0, (4,)): "cage-3",
        (0, (1, 3)): "separating-bridge",
        (0, (2, 2)): "theta-variant",
        (0, (1, 1, 2)): "two-loops-bridge",
        (1, (2,)): "cage-2-plus-loop",
        (1, (1, 1)): "loop-plus-bridge",
    }
    tag = table.get(shape)
    if tag is None:
        raise ValueError("unrecognized boundary shape: loops=%d bundles=%r" % shape)
    return tag


@dataclass(frozen=True)
class BoundaryType:
    """Classified boundary splitting of a crossing ideal pair."""

    tag: str
    graph: GraphOfGroups
    family: Tuple[SplittingClass, ...]

    @property
    def edge_count(self) -> int:
        return len(self.family)


def boundary_classes(p: Partition, q: Partition) -> Tuple[SplittingClass, ...]:
    """Distinct splitting classes of the four corner sets of a crossing pair."""
    if not is_ideal(p) or not is_ideal(q):
        raise ValueError("boundary splittings are computed for ideal pairs")
    if not crosses(p, q):
        raise ValueError("boundary splittings are defined for crossing pairs")
    seen = []
    for corner in corner_masks(p, q):
        cls = class_of(Partition(p.rank, corner))
        if cls not in seen:
            seen.append(cls)
    return tuple(sorted(seen, key=lambda c: c.key))


def classify_boundary(family: Tuple[SplittingClass, ...], rank: int) -> BoundaryType:
    """Blow up the rose along a boundary family and classify the quotient.

    The result depends only on the family (``blow_up`` is canonical in it),
    so pairs that share their corner classes share their boundary type.
    Raises ``ValueError`` when the family does not blow up or its quotient
    is none of the six shapes in :data:`BOUNDARY_TAGS`.
    """
    graph = blow_up(family, rank)
    return BoundaryType(tag=_boundary_tag(graph), graph=graph, family=family)


def boundary_splitting(p: Partition, q: Partition) -> BoundaryType:
    """Blow up the rose along the corner classes of a crossing pair and classify.

    The resulting quotient graph falls into one of the six shapes listed in
    :data:`BOUNDARY_TAGS`; the raw graph is returned alongside the tag.
    """
    return classify_boundary(boundary_classes(p, q), p.rank)
