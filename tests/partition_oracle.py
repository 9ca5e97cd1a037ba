"""Frozenset reference predicates and dual-tree blow-up, independent of the mask kernel.

Sides are decoded here from ``p.rank`` and ``p.mask`` (``xi+`` at bit
2i-2, ``xi-`` at bit 2i-1) into frozensets of ``(index, sign)``
directions, without the library's own decoder, and every verdict is set
arithmetic on them: the four corner sets, the disjoint alignments, and the
separation of a pair {xi+, xi-}.  ``blow_up`` grows the dual tree one edge
at a time, finding for each new partition the unique vertex that no
existing edge's far side crosses.  Classes are decoded here too: a side of
one direction names a petal, whose class is the partition of its plus
direction, and a class sorts by petal index or by its side's directions.
The library computes the same verdicts and graphs from integer side masks
and a laminar family; the differential tests compare the two exhaustively.
"""

import itertools

from freesplit.blowup import GraphOfGroups
from freesplit.partitions import Partition


def all_directions(rank):
    """The 2N directions in bit order: (1, 1), (1, -1), (2, 1), ..."""
    return tuple((i, s) for i in range(1, rank + 1) for s in (1, -1))


def side(rank, mask):
    """The directions whose bits are set in ``mask``."""
    return frozenset(d for k, d in enumerate(all_directions(rank)) if mask >> k & 1)


def side1(p):
    return side(p.rank, p.mask)


def side2(p):
    return frozenset(all_directions(p.rank)) - side1(p)


def partition_of(rank, directions):
    """The library partition with the given set of directions as one side."""
    return Partition(rank, sum(1 << k for k, d in enumerate(all_directions(rank))
                               if d in directions))


def _order(d):
    # x1+ < x1- < x2+ < x2- < ...
    return (d[0], d[1] < 0)


def _key(directions):
    return tuple(sorted(map(_order, directions)))


def encode(directions):
    """Text of a side, in direction order."""
    return ",".join("x%d%s" % (i, "+" if s > 0 else "-")
                    for i, s in sorted(directions, key=_order))


def signed_permutations(rank):
    """The 2^N * N! signed permutations of the petals, each as a map on partitions."""
    maps = []
    for perm in itertools.permutations(range(1, rank + 1)):
        for flips in itertools.product((1, -1), repeat=rank):
            def g(p, perm=perm, flips=flips):
                return partition_of(p.rank, {(perm[i - 1], s * flips[i - 1])
                                             for i, s in side1(p)})
            maps.append(g)
    return maps


def separates_some_pair(directions, rank):
    return any(((i, 1) in directions) != ((i, -1) in directions) for i in range(1, rank + 1))


def is_thick(p):
    return len(side1(p)) >= 2 and len(side2(p)) >= 2


def is_ideal(p):
    return separates_some_pair(side1(p), p.rank)


def corner_sets(p, q):
    """(k11, k12, k21, k22), with ``k_ij = side_i(p) & side_j(q)``."""
    p1, p2, q1, q2 = side1(p), side2(p), side1(q), side2(q)
    return (p1 & q1, p1 & q2, p2 & q1, p2 & q2)


def crosses(p, q):
    return all(corner_sets(p, q))


def all_alignments(p, q):
    """Every ordered choice (side of p, side of q) with empty intersection."""
    return tuple(
        (a, b) for a in (side1(p), side2(p)) for b in (side1(q), side2(q)) if not (a & b)
    )


def rose_compatible(p, q):
    """For distinct partitions, which have at most one alignment."""
    alignments = all_alignments(p, q)
    if not alignments:
        return False
    (a, b), = alignments
    return separates_some_pair(a | b, p.rank)


def petal_of(p):
    """The petal index of a partition with a one-direction side, else None."""
    for directions in (side1(p), side2(p)):
        if len(directions) == 1:
            ((index, _),) = directions
            return index
    return None


def class_of(p):
    index = petal_of(p)
    return p if index is None else partition_of(p.rank, {(index, 1)})


def class_key(c):
    """Petals by index, then thick edges in direction order."""
    index = petal_of(c)
    return (1, _key(side1(c))) if index is None else (0, index)


def label(c):
    index = petal_of(c)
    return encode(side1(c)) if index is None else "petal:%d" % index


def splitting_classes(rank):
    """The classes of every ideal partition, in class order."""
    masks = range(1, 2 ** (2 * rank) - 1)
    ideal = {class_of(Partition(rank, m)) for m in masks
             if separates_some_pair(side(rank, m), rank)}
    return sorted(ideal, key=class_key)


def circle_compatible(p, q):
    if class_of(p) == class_of(q):
        return False
    return not crosses(p, q) and not rose_compatible(p, q)


def is_cagey(p, q):
    if not crosses(p, q):
        return False
    corners = corner_sets(p, q)
    rank = p.rank
    if not all(separates_some_pair(c, rank) for c in corners):
        return False
    return all(
        separates_some_pair(a | b, rank) for a, b in itertools.combinations(corners, 2)
    )


def classes_compatible(s, t):
    if petal_of(s) is not None or petal_of(t) is not None:
        return True
    return not crosses(s, t)


# ---------------------------------------------------------------------------
# Dual tree grown one edge at a time
# ---------------------------------------------------------------------------


class _Tree:
    """Vertices hold disjoint direction sets covering all 2N directions;
    cutting an edge splits the directions into that partition's two sides."""

    def __init__(self, rank):
        self.dirs = {0: set(all_directions(rank))}
        self.ends = {}
        self.adj = {0: set()}

    def _far_dirs(self, label, vid):
        u, v = self.ends[label]
        start = v if u == vid else u
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for lab in self.adj[cur]:
                if lab == label:
                    continue
                a, b = self.ends[lab]
                nxt = b if a == cur else a
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        out = set()
        for w in seen:
            out |= self.dirs[w]
        return out

    def insert(self, part, label):
        s1, s2 = side1(part), side2(part)
        hosts = []
        for vid in self.dirs:
            far = {lab: self._far_dirs(lab, vid) for lab in self.adj[vid]}
            if not any(f & s1 and f & s2 for f in far.values()):
                hosts.append((vid, far))
        assert len(hosts) == 1, "a compatible new edge has exactly one host vertex"
        host, host_far = hosts[0]
        new = len(self.dirs)
        self.dirs[new] = self.dirs[host] & s1
        self.dirs[host] -= self.dirs[new]
        self.adj[new] = set()
        for lab in list(self.adj[host]):
            if host_far[lab] <= s1:
                a, b = self.ends[lab]
                self.ends[lab] = (new, b) if a == host else (a, new)
                self.adj[host].discard(lab)
                self.adj[new].add(lab)
        self.ends[label] = (new, host)
        self.adj[new].add(label)
        self.adj[host].add(label)

    def locate(self, d):
        (vid,) = [vid for vid, ds in self.dirs.items() if d in ds]
        return vid


def blow_up(family, rank):
    """The graph of groups of a pairwise compatible family of classes."""
    fam = sorted({class_of(c) for c in family}, key=class_key)
    assert fam and all(c.rank == rank for c in fam)
    assert all(classes_compatible(a, b) for a, b in itertools.combinations(fam, 2))

    tree = _Tree(rank)
    for c in fam:
        if petal_of(c) is None:
            tree.insert(c, label(c))
    petal_ends = {
        i: (tree.locate((i, 1)), tree.locate((i, -1)))
        for i in range(1, rank + 1)
    }
    kept = {petal_of(c) for c in fam}

    # Collapse the petals absent from the family: merge distinct ends, or
    # add one to the free rank of a vertex the petal loops at.
    rep = {vid: vid for vid in tree.dirs}

    def find(v):
        while rep[v] != v:
            v = rep[v]
        return v

    extra = {vid: 0 for vid in tree.dirs}
    for i in range(1, rank + 1):
        if i in kept:
            continue
        u, v = (find(x) for x in petal_ends[i])
        if u == v:
            extra[u] += 1
        else:
            rep[v] = u
            extra[u] += extra.pop(v)
            tree.dirs[u] |= tree.dirs.pop(v)

    records = []
    for c in fam:
        index = petal_of(c)
        u, v = tree.ends[label(c)] if index is None else petal_ends[index]
        records.append((label(c), find(u), find(v)))
    roots = sorted({find(v) for v in rep})
    incident = {r: sorted({label for label, u, v in records if r in (u, v)}) for r in roots}
    keys = {
        r: (0, _key(tree.dirs[r])) if tree.dirs[r] else (1, tuple(incident[r]))
        for r in roots
    }
    names = {r: "v%d" % n for n, r in enumerate(sorted(roots, key=keys.get))}
    return GraphOfGroups(
        rank=rank,
        vertices=tuple(sorted((names[r], extra[r]) for r in roots)),
        edges=tuple(sorted(
            (label, tuple(sorted((names[u], names[v])))) for label, u, v in records
        )),
    )
