"""Reference rank-3 clique verifier: one ``blow_up`` per 4-clique.

Every 4-clique of the rank-3 rose graph is blown up, and its loops, edge
bundles and vertex ranks are counted here off the graph's vertices and
edges, with its own case counting and eagerly built witness labels.  A test
can then require ``verify_clique_rank3``, which reads the library's shape
key through its recorder and lazy labels, to give the identical report,
failure witnesses and their order included.
"""

from typing import Dict, FrozenSet, List

from freesplit import complexes
from freesplit.blowup import blow_up
from freesplit.partitions import Partition, encode_class, petal_class
from freesplit.verify import VerificationReport


def oracle_clique_rank3(mutated: bool = False) -> VerificationReport:
    cases = 0
    failures: List[str] = []

    def check(ok, witness):
        nonlocal cases
        cases += 1
        if not ok:
            failures.append(witness)

    graph = complexes.build_star_graph(3)
    cliques = complexes.enumerate_cliques(graph, 4)
    if mutated:
        # tau1 = {x2+, x3-} and sigma2 = {x2-, x3+} with petals 1 and 2
        extra = (Partition(3, 0b100100), Partition(3, 0b011000),
                 petal_class(3, 1), petal_class(3, 2))
        cliques = cliques + [tuple(sorted(map(graph.index_of, extra)))]

    shapes_seen = {"cage": 0, "theta_with_loop": 0}
    for indices in cliques:
        fam = [graph.vertices[i] for i in indices]
        g = blow_up(fam, 3)
        loops = 0
        bundles: Dict[FrozenSet[str], int] = {}
        for _, (u, v) in g.edges:
            if u == v:
                loops += 1
            else:
                ends = frozenset((u, v))
                bundles[ends] = bundles.get(ends, 0) + 1
        sizes = sorted(bundles.values())
        # two vertices: four parallel edges, or three plus a loop
        is_cage4 = len(g.vertices) == 2 and loops == 0 and sizes == [4]
        is_theta = len(g.vertices) == 2 and loops == 1 and sizes == [3]
        shapes_seen["cage"] += is_cage4
        shapes_seen["theta_with_loop"] += is_theta
        label = ",".join(map(encode_class, fam))
        check(is_cage4 or is_theta, "4-clique has unexpected shape: %s" % label)
        check(all(r == 0 for _, r in g.vertices),
              "4-clique has nontrivial vertex groups: %s" % label)
    check(shapes_seen["cage"] > 0 and shapes_seen["theta_with_loop"] > 0,
          "expected both shapes to occur among 4-cliques")
    return VerificationReport(
        lemma="clique-rank-3",
        rank=3,
        cases_checked=cases,
        failures=tuple(failures),
        details=(("clique_count", len(cliques)),
                 ("shape_census", dict(sorted(shapes_seen.items())))),
    )
