"""Frozenset reference predicates and dual-tree blow-up, independent of the mask kernel.

Every verdict here is set arithmetic on the decoded sides (``p.side1``,
``p.side2``) of library partitions: the four corner sets, the aligned
disjoint sides, and the separation of a pair {xi+, xi-}.  ``blow_up``
grows the dual tree one edge at a time, finding for each new partition
the unique vertex that no existing edge's far side crosses.  The library
computes the same verdicts and graphs from integer side masks and a
laminar family; the differential tests compare the two exhaustively.
"""

import itertools

from freesplit.blowup import GraphOfGroups
from freesplit.partitions import Direction, SplittingClass, all_directions, petal_class


def _key(side):
    return tuple(sorted(d.key for d in side))


def separates_some_pair(side, rank):
    return any(
        (Direction(i, 1) in side) != (Direction(i, -1) in side) for i in range(1, rank + 1)
    )


def is_thick(p):
    return len(p.side1) >= 2 and len(p.side2) >= 2


def is_ideal(p):
    return separates_some_pair(p.side1, p.rank)


def corner_sets(p, q):
    """(k11, k12, k21, k22), with ``k_ij = side_i(p) & side_j(q)``."""
    return (p.side1 & q.side1, p.side1 & q.side2, p.side2 & q.side1, p.side2 & q.side2)


def crosses(p, q):
    return all(corner_sets(p, q))


def aligned_sides(p, q):
    choices = [
        (a, b) for a in (p.side1, p.side2) for b in (q.side1, q.side2) if not (a & b)
    ]
    if not choices:
        return None
    return min(choices, key=lambda ab: (_key(ab[0]), _key(ab[1])))


def rose_compatible(p, q):
    sides = aligned_sides(p, q)
    if sides is None:
        return False
    a, b = sides
    return separates_some_pair(a | b, p.rank)


def class_of(p):
    for side in (p.side1, p.side2):
        if len(side) == 1:
            (d,) = side
            return petal_class(p.rank, d.index)
    return SplittingClass("thick", None, p)


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
    if s.kind == "petal" or t.kind == "petal":
        return True
    return not crosses(s.representative, t.representative)


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
        hosts = []
        for vid in self.dirs:
            far = {lab: self._far_dirs(lab, vid) for lab in self.adj[vid]}
            if not any(f & part.side1 and f & part.side2 for f in far.values()):
                hosts.append((vid, far))
        assert len(hosts) == 1, "a compatible new edge has exactly one host vertex"
        host, host_far = hosts[0]
        new = len(self.dirs)
        self.dirs[new] = {d for d in self.dirs[host] if d in part.side1}
        self.dirs[host] -= self.dirs[new]
        self.adj[new] = set()
        for lab in list(self.adj[host]):
            if host_far[lab] <= part.side1:
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
    fam = sorted(set(family), key=lambda c: c.key)
    assert fam and all(c.rank == rank for c in fam)
    assert all(classes_compatible(a, b) for a, b in itertools.combinations(fam, 2))

    tree = _Tree(rank)
    for c in fam:
        if c.kind == "thick":
            tree.insert(c.representative, c.encode())
    petal_ends = {
        i: (tree.locate(Direction(i, 1)), tree.locate(Direction(i, -1)))
        for i in range(1, rank + 1)
    }
    kept = {c.petal_index for c in fam if c.kind == "petal"}

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
        u, v = tree.ends[c.encode()] if c.kind == "thick" else petal_ends[c.petal_index]
        records.append((c.encode(), find(u), find(v)))
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
            (label, tuple(sorted((names[u], names[v]))), label) for label, u, v in records
        )),
    )
