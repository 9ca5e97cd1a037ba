"""Blow-ups of the rose along compatible families, and their boundary shapes.

A compatible family of splitting classes determines a graph of groups: the
thick partitions assemble into the dual tree of the family, every petal is
attached by side membership, and petals absent from the family are
collapsed (a loop collapse adds one to the free rank at its vertex, a
non-loop collapse merges the two endpoints).  The result always satisfies
the Euler identity  (#edges - #vertices + 1) + sum of vertex ranks = N.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Tuple

from .partitions import (
    Partition,
    bit_positions,
    class_key,
    class_of,
    corner_masks,
    crosses,
    encode_class,
    full_mask,
    is_ideal,
    side_names,
)
from .values import Value


class IncompatibleFamilyError(ValueError):
    """Raised when a blow-up is requested for a family with a crossing pair."""


class GraphOfGroups(Value):
    """A finite connected graph with a free-rank label on each vertex.

    ``vertices`` is a tuple of (vertex id, free rank); ``edges`` is a tuple
    of (label, (end id, end id)).  A label names one edge, as an id names
    one vertex, and edges carry no orientation.
    """

    __slots__ = _fields = ("rank", "vertices", "edges")

    def __init__(self, rank: int, vertices: Tuple[Tuple[str, int], ...],
                 edges: Tuple[Tuple[str, Tuple[str, str]], ...]):
        vertices = tuple((vid, r) for vid, r in vertices)
        if rank < 1 or not vertices or min(r for _, r in vertices) < 0:
            raise ValueError("graph of groups needs rank >= 1, a vertex, and free ranks >= 0")
        edges = tuple(edges)
        known = {vid for vid, _ in vertices}
        if len(known) != len(vertices):
            raise ValueError("duplicate vertex ids")
        if len({label for label, _ in edges}) != len(edges):
            raise ValueError("duplicate edge labels")
        pairs = []
        for label, (u, v) in edges:
            if u not in known or v not in known:
                raise ValueError("edge %r has unknown endpoint" % (label,))
            pairs.append((label, (u, v)))
        super().__init__(rank, vertices, tuple(pairs))
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

    def shape(self) -> Tuple[int, Tuple[int, ...]]:
        """The shape key: (loop count, sorted sizes of the non-loop edge bundles).

        The graph is connected, so no bundle means one vertex (an N-rose is
        ``(N, ())``) and no loop with one bundle means two (the k-edge cage
        is ``(0, (k,))``).
        """
        loops = 0
        counts: Dict[Tuple[str, str], int] = {}
        for _, (u, v) in self.edges:
            if u == v:
                loops += 1
            else:
                pair = (u, v) if u <= v else (v, u)
                counts[pair] = counts.get(pair, 0) + 1
        return loops, tuple(sorted(counts.values()))

    def vertex_ranks(self) -> Tuple[int, ...]:
        """Sorted free ranks of the vertices."""
        return tuple(sorted(r for _, r in self.vertices))

    def valence_profile(self) -> Tuple[int, ...]:
        """Sorted vertex degrees; a loop adds two to its vertex."""
        degree = {vid: 0 for vid, _ in self.vertices}
        for _, (u, v) in self.edges:
            degree[u] += 1
            degree[v] += 1
        return tuple(sorted(degree.values()))

    def _connected(self, skip: frozenset = frozenset()) -> bool:
        neighbours: Dict[str, List[str]] = {}
        for label, (u, v) in self.edges:
            if label not in skip and u != v:
                neighbours.setdefault(u, []).append(v)
                neighbours.setdefault(v, []).append(u)
        start = self.vertices[0][0]
        seen, todo = {start}, [start]
        while todo:
            for w in neighbours.get(todo.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return len(seen) == len(self.vertices)

    def disconnects_without(self, labels: Iterable[str]) -> bool:
        return not self._connected(frozenset(labels))

    # -- exports -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "vertices": [{"id": vid, "free_rank": r} for vid, r in self.vertices],
            "edges": [
                {"id": label, "ends": [u, v], "label": label}
                for label, (u, v) in self.edges
            ],
        }

    def to_dot(self) -> str:
        lines = ["graph blowup {"]
        for vid, r in self.vertices:
            lines.append('  "%s" [label="%s (rank %d)"];' % (vid, vid, r))
        for label, (u, v) in self.edges:
            lines.append('  "%s" -- "%s" [label="%s"];' % (u, v, label))
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Dual-tree construction
# ---------------------------------------------------------------------------


def blow_up(family: Iterable[Partition], rank: int) -> GraphOfGroups:
    """Graph of groups determined by a pairwise compatible family of classes.

    Both petal partitions {xi+} and {xi-} name petal i's edge.  The output
    is canonical: vertex ids depend only on the family, not on iteration
    order.  Raises :class:`IncompatibleFamilyError` on a crossing pair and
    ``ValueError`` on an empty family.
    """
    family = list(family)
    if not family:
        raise ValueError("cannot blow up an empty family")

    # A member's mask is its class mask but for {xi-}, whose one bit is read
    # as petal i; a side of 2N - 1 bits is petal 1.  Petals cross nothing.
    kept_petals, thick = set(), set()
    for p in family:
        if p.rank != rank:
            _refuse(family, rank)
        size = p.mask.bit_count()
        if size == 1:
            kept_petals.add((p.mask.bit_length() + 1) // 2)
        elif size == 2 * rank - 1:
            kept_petals.add(1)
        else:
            thick.add(p.mask)
    thick = sorted(thick)

    # The dual tree of the thick members is their laminar family of side1
    # masks: canonical side1s never hold x1+, so those of a compatible
    # family are nested or disjoint.  A vertex is a member mask (or the
    # root, ``full``) holding its directions minus its children's, and each
    # member's edge joins it to its smallest strict superset or the root.
    # The supersets of a mask are a chain of larger ints, so the smallest is
    # the first after it in numeric order; a larger mask that meets it and
    # is no superset crosses it.
    full = full_mask(rank)
    dirs = {m: m for m in thick}
    dirs[full] = full
    edge_records = []
    for n, m in enumerate(thick):
        parent = full
        for o in thick[n + 1:]:
            if m & o:
                if m & ~o:
                    _refuse(family, rank)
                if parent == full:
                    parent = o
        dirs[parent] &= ~m
        edge_records.append((",".join(side_names(m)), m, parent))

    owner = [full] * (2 * rank)  # the vertex owning each direction bit
    for vid, own in dirs.items():
        for b in bit_positions(own):
            owner[b] = vid

    # Collapsing a petal merges its end vertices into the first end's root;
    # root_of maps every dual-tree vertex to the root holding it.
    root_of = {vid: vid for vid in dirs}
    extra_rank = dict.fromkeys(dirs, 0)
    for i in range(1, rank + 1):
        u, v = owner[2 * i - 2], owner[2 * i - 1]
        if i in kept_petals:
            edge_records.append(("petal:%d" % i, u, v))
            continue
        u, v = root_of[u], root_of[v]
        if u == v:
            extra_rank[u] += 1
        else:
            for vid, root in root_of.items():
                if root == v:
                    root_of[vid] = u
            extra_rank[u] += extra_rank.pop(v)
            dirs[u] |= dirs.pop(v)

    # A vertex is keyed by its own directions, or by its edge labels when it
    # owns none.  Own direction sets are disjoint, so the lowest bit orders
    # them as their direction lists would.
    keys = {
        root: (0, own & -own) if own
        else (1, tuple(sorted(label for label, u, v in edge_records
                              if root in (root_of[u], root_of[v]))))
        for root, own in dirs.items()
    }
    names = {root: "v%d" % n for n, root in enumerate(sorted(keys, key=keys.get))}
    vertices = tuple(sorted((names[root], extra_rank[root]) for root in keys))
    edges = tuple(sorted((label, (a, b) if a <= b else (b, a)) for label, u, v in edge_records
                         for a, b in [(names[root_of[u]], names[root_of[v]])]))
    return GraphOfGroups(rank=rank, vertices=vertices, edges=edges)


def _refuse(family: List[Partition], rank: int) -> None:
    """Refuse a family, naming its first member of another rank in class order,
    or else its first crossing pair; only a failing family is sorted."""
    fam = sorted(set(map(class_of, family)), key=class_key)
    for c in fam:
        if c.rank != rank:
            raise ValueError("family member %s has rank %d, expected %d"
                             % (encode_class(c), c.rank, rank))
    a, b = next(pair for pair in itertools.combinations(fam, 2) if crosses(*pair))
    raise IncompatibleFamilyError(
        "family members cross: {%s} and {%s}" % (encode_class(a), encode_class(b)))


# ---------------------------------------------------------------------------
# Boundary splittings
# ---------------------------------------------------------------------------


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
#:
#: Each shape is keyed by the quotient's :meth:`GraphOfGroups.shape`.
_BOUNDARY_SHAPES = {
    (0, (4,)): "cage-3",
    (0, (1, 3)): "separating-bridge",
    (0, (2, 2)): "theta-variant",
    (0, (1, 1, 2)): "two-loops-bridge",
    (1, (2,)): "cage-2-plus-loop",
    (1, (1, 1)): "loop-plus-bridge",
}
BOUNDARY_TAGS = tuple(_BOUNDARY_SHAPES.values())


class BoundaryType(Value):
    """Classified boundary splitting of a crossing ideal pair: ``tag`` names
    the quotient ``blow_up(family, rank)`` of its corner classes."""

    __slots__ = _fields = ("tag", "family")

    def __init__(self, tag: str, family: Tuple[Partition, ...]):
        super().__init__(tag, tuple(family))


def boundary_classes(p: Partition, q: Partition) -> Tuple[Partition, ...]:
    """Distinct splitting classes of the four corner sets of a crossing pair."""
    if not is_ideal(p) or not is_ideal(q):
        raise ValueError("boundary splittings are computed for ideal pairs")
    corners = corner_masks(p, q)
    if not all(corners):
        raise ValueError("boundary splittings are defined for crossing pairs")
    classes = {class_of(Partition(p.rank, corner)) for corner in corners}
    return tuple(sorted(classes, key=class_key))


def boundary_splitting(p: Partition, q: Partition) -> BoundaryType:
    """Blow up the rose along the corner classes of a crossing pair and classify.

    The result depends only on the corner classes (``blow_up`` is canonical
    in its family), so pairs that share them share their boundary type,
    one of the six shapes in :data:`BOUNDARY_TAGS`.  Raises ``ValueError``
    when the family does not blow up or its quotient is none of the six.
    """
    family = boundary_classes(p, q)
    shape = blow_up(family, p.rank).shape()
    if shape not in _BOUNDARY_SHAPES:
        raise ValueError("unrecognized boundary shape: loops=%d bundles=%r" % shape)
    return BoundaryType(tag=_BOUNDARY_SHAPES[shape], family=family)
