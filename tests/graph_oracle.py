"""Reference graph-of-groups checks, used only by the tests.

``canonical_form`` decides whether two blow-ups are isomorphic graphs (vertex
ranks optional), independently of the library's shape tags: a test can check
that each boundary tag names exactly one isomorphism class.
``disconnects_without`` is a set-BFS connectivity test on the graph with
some edges removed.
"""

from typing import Dict, Iterable, List, Tuple

from freesplit.blowup import GraphOfGroups


def canonical_form(g: GraphOfGroups, include_ranks: bool = True) -> Tuple:
    """Canonical encoding deciding graph isomorphism (ranks optional).

    Individualize-and-refine: vertex classes start from (rank, degree,
    loop count), are refined by neighbor-class multisets to a fixed
    point, and remaining ties are broken by individualizing one vertex
    of the first ambiguous class per branch.  The minimum encoding
    over all branches is canonical.  Graphs here are small, so the
    branch count stays tiny.
    """
    vids = [vid for vid, _ in g.vertices]
    loops_at: Dict[str, int] = {vid: 0 for vid in vids}
    degree: Dict[str, int] = {vid: 0 for vid in vids}
    adj: Dict[str, List[str]] = {vid: [] for vid in vids}
    for _, (u, v) in g.edges:
        degree[u] += 1
        degree[v] += 1
        if u == v:
            loops_at[u] += 1
        else:
            adj[u].append(v)
            adj[v].append(u)
    base = {
        vid: (r if include_ranks else 0, degree[vid], loops_at[vid])
        for vid, r in g.vertices
    }

    def renumber(values: Dict[str, Tuple]) -> Dict[str, int]:
        codes = {value: n for n, value in enumerate(sorted(set(values.values())))}
        return {vid: codes[values[vid]] for vid in vids}

    def refine(code: Dict[str, int]) -> Dict[str, int]:
        while True:
            refined = renumber({
                vid: (code[vid], tuple(sorted(code[w] for w in adj[vid])))
                for vid in vids
            })
            if len(set(refined.values())) == len(set(code.values())):
                return refined
            code = refined

    def encode(code: Dict[str, int]) -> Tuple:
        order = sorted(vids, key=lambda vid: code[vid])
        label = {vid: n for n, vid in enumerate(order)}
        vert_code = tuple(base[vid] for vid in order)
        edge_code = tuple(sorted(
            tuple(sorted((label[u], label[v]))) for _, (u, v) in g.edges
        ))
        return (vert_code, edge_code)

    best = None
    branches = 0

    def search(code: Dict[str, int]) -> None:
        nonlocal best, branches
        branches += 1
        if branches > 20000:
            raise ValueError("canonical labeling branch budget exceeded")
        code = refine(code)
        groups: Dict[int, List[str]] = {}
        for vid in vids:
            groups.setdefault(code[vid], []).append(vid)
        ambiguous = [c for c in sorted(groups) if len(groups[c]) > 1]
        if not ambiguous:
            candidate = encode(code)
            if best is None or candidate < best:
                best = candidate
            return
        target = ambiguous[0]
        for vid in groups[target]:
            search(renumber({
                w: (code[w], 1 if w == vid else 0) for w in vids
            }))

    search(renumber(base))
    return best


def disconnects_without(g: GraphOfGroups, labels: Iterable[str]) -> bool:
    """Whether removing the edges with the given labels leaves the graph disconnected."""
    skip = set(labels)
    adj: Dict[str, set] = {vid: set() for vid, _ in g.vertices}
    for label, (u, v) in g.edges:
        if label not in skip:
            adj[u].add(v)
            adj[v].add(u)
    start = g.vertices[0][0]
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) != len(adj)
