"""Set-based clique searches, independent of the bitset rows in ``complexes``.

Adjacency is rebuilt here from the graph's ``(i, j, kind)`` edge triples as
one Python set per vertex, and the three searches run on set arithmetic:
exact-size cliques by growing sorted candidate lists, a clique-existence
test that drops each tried vertex from the candidates, and pivoted
Bron-Kerbosch with the library's pivot rule (the largest candidate
neighbourhood, ties to the least index).  The differential tests compare
them with the library's searches at ranks 3 and 4.
"""


def set_adjacency(g):
    """The neighbours of each vertex, as frozensets of indices."""
    adj = [set() for _ in g.vertices]
    for i, j, _ in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    return tuple(frozenset(s) for s in adj)


def enumerate_cliques(g, size):
    """All cliques of exactly ``size`` vertices, in lexicographic index order."""
    adj = set_adjacency(g)
    out = []

    def grow(chosen, candidates):
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


def exists_clique(adj, candidates, size):
    """True iff the vertex set ``candidates`` holds a clique of ``size`` vertices."""
    if size == 0:
        return True
    if len(candidates) < size:
        return False
    for v in sorted(candidates):
        if exists_clique(adj, candidates & adj[v], size - 1):
            return True
        candidates = candidates - {v}
        if len(candidates) < size:
            return False
    return False


def maximal_cliques(g):
    """All maximal cliques, each a sorted tuple, in sorted order."""
    adj = set_adjacency(g)
    out = []

    def expand(clique, candidates, excluded):
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
