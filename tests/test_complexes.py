import itertools

import pytest

from freesplit.blowup import blow_up, classify_shape
from freesplit.complexes import (
    build_star_graph,
    cagey_by_cliques,
    enumerate_cliques,
    is_rose_family,
    k_graph_local,
    maximal_cliques,
    rose_vertices,
)
from freesplit.partitions import (
    Partition,
    class_of,
    classes_cagey,
    petal_class,
)
from freesplit.verify import chain_partition, rigid_blowup_family


@pytest.fixture(scope="module")
def ens3():
    return build_star_graph(3, "ens")


@pytest.fixture(scope="module")
def ns3():
    return build_star_graph(3, "ns")


def test_star_graph_vertex_count(ens3):
    assert len(ens3.vertices) == 25


def test_every_ens_edge_is_an_ns_edge(ens3, ns3):
    assert ens3.vertices == ns3.vertices
    ens_edges = {(i, j) for i, j, _ in ens3.edges}
    ns_edges = {(i, j) for i, j, _ in ns3.edges}
    assert ens_edges <= ns_edges
    assert all(kind == "rose" for _, _, kind in ens3.edges)
    circle = [e for e in ns3.edges if e[2] == "circle"]
    assert circle and all((i, j) not in ens_edges for i, j, _ in circle)


def test_chain_edges_span_an_ens_edge(ens3):
    i = ens3.index_of(class_of(chain_partition(3, 1)))
    j = ens3.index_of(class_of(chain_partition(3, 2)))
    assert ens3.adjacency[i] >> j & 1
    assert (i, j, "rose") in ens3.edges


def test_index_of_reads_every_vertex_and_rejects_others(ens3):
    assert [ens3.index_of(c) for c in ens3.vertices] == list(range(25))
    with pytest.raises(KeyError, match="is not a vertex"):
        ens3.index_of(petal_class(4, 4))


def test_mode_validation():
    with pytest.raises(ValueError):
        build_star_graph(3, "bogus")


# ---------------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------------


def test_no_ens_clique_exceeds_3n_minus_3(ens3):
    assert max(len(c) for c in maximal_cliques(ens3)) == 6
    assert enumerate_cliques(ens3, 7) == []


def test_rigid_family_is_a_maximal_six_clique(ens3):
    petals, companions, _ = rigid_blowup_family(3)
    family = petals + companions
    assert len(family) == 6
    indices = tuple(sorted(ens3.index_of(c) for c in family))
    assert indices in set(maximal_cliques(ens3))


def test_exact_size_cliques_are_cliques_and_sorted(ens3):
    cliques = enumerate_cliques(ens3, 4)
    assert cliques == sorted(cliques)
    adj = ens3.adjacency
    for c in cliques[:50]:
        assert all(adj[a] >> b & 1 for a, b in itertools.combinations(c, 2))
    with pytest.raises(ValueError):
        enumerate_cliques(ens3, 0)


def test_maximal_cliques_are_maximal(ens3):
    adj = ens3.adjacency
    for clique in maximal_cliques(ens3):
        members = set(clique)
        for v in range(len(ens3.vertices)):
            if v in members:
                continue
            assert not all(adj[v] >> u & 1 for u in members)


# ---------------------------------------------------------------------------
# cagey_by_cliques
# ---------------------------------------------------------------------------


def test_known_cagey_pair_has_a_witness(ens3):
    sigma1 = class_of(chain_partition(3, 1))
    tau1 = class_of(Partition.parse(3, "x2+,x3-"))
    assert classes_cagey(sigma1, tau1)
    assert cagey_by_cliques(sigma1, tau1, graph=ens3)


def test_rose_compatible_pair_has_no_witness(ens3):
    assert not cagey_by_cliques(petal_class(3, 1), petal_class(3, 2), graph=ens3)
    sigma1 = class_of(chain_partition(3, 1))
    sigma2 = class_of(chain_partition(3, 2))
    assert not cagey_by_cliques(sigma1, sigma2, graph=ens3)


def test_equal_splittings_are_rejected(ens3):
    with pytest.raises(ValueError):
        cagey_by_cliques(petal_class(3, 1), petal_class(3, 1), graph=ens3)


def test_witness_implies_caginess_exhaustively(ens3):
    # One direction of the clique characterization holds inside the universe.
    for s, t in itertools.combinations(ens3.vertices, 2):
        if cagey_by_cliques(s, t, graph=ens3):
            assert classes_cagey(s, t)


# ---------------------------------------------------------------------------
# rose vertices and the local rose graph
# ---------------------------------------------------------------------------


def test_base_rose_is_a_rose_vertex(ens3):
    roses = rose_vertices(3, graph=ens3)
    base = {petal_class(3, i) for i in (1, 2, 3)}
    assert any(set(r.classes) == base for r in roses)


def test_mixed_rose_vertex_appears(ens3):
    roses = rose_vertices(3, graph=ens3)
    mixed = {
        class_of(chain_partition(3, 1)),
        class_of(chain_partition(3, 2)),
        petal_class(3, 3),
    }
    assert any(set(r.classes) == mixed for r in roses)
    assert is_rose_family(tuple(mixed), 3)


def test_rose_vertices_blow_up_to_roses(ens3):
    for r in rose_vertices(3, graph=ens3)[:40]:
        report = classify_shape(blow_up(list(r.classes), 3))
        assert report.rose == 3
        assert report.vertex_ranks == (0,)


def rose_by_shape(fam, rank):
    """The rose test read off the full shape report."""
    try:
        report = classify_shape(blow_up(fam, rank))
    except ValueError:
        return False
    return report.rose == rank and set(report.vertex_ranks) == {0}


def test_rose_test_agrees_with_the_shape_report(ens3):
    ens4 = build_star_graph(4, "ens")
    for graph, rank, cliques in ((ens3, 3, enumerate_cliques(ens3, 3)),
                                 (ens4, 4, itertools.islice(enumerate_cliques(ens4, 4), 2000))):
        verdicts = []
        for indices in cliques:
            fam = tuple(graph.vertices[i] for i in indices)
            verdicts.append(is_rose_family(fam, rank))
            assert verdicts[-1] == rose_by_shape(fam, rank)
        assert True in verdicts and False in verdicts


def test_rank_guard_for_rose_enumeration():
    with pytest.raises(ValueError):
        rose_vertices(5)
    with pytest.raises(ValueError):
        k_graph_local(4)


def test_rank4_rose_scan_is_truncated_but_productive():
    graph = build_star_graph(4, "ens")
    roses = rose_vertices(4, graph=graph, limit=500)
    assert roses
    for r in roses[:10]:
        assert is_rose_family(r.classes, 4)


def test_k_graph_is_nonempty_with_finite_degrees():
    k = k_graph_local(3)
    assert len(k.vertices) > 0
    assert len(k.edges) > 0
    touched = {v for edge in k.edges for v in edge}
    assert touched == set(range(len(k.vertices)))


def test_k_graph_edges_are_ens_cliques(ens3):
    k = k_graph_local(3)
    for a, b in k.edges[:80]:
        union = set(k.vertices[a].classes) | set(k.vertices[b].classes)
        assert len(union) == 4
        idx = [ens3.index_of(c) for c in union]
        assert all(ens3.adjacency[i] >> j & 1 for i, j in itertools.combinations(idx, 2))


def test_graph_exports():
    k = k_graph_local(3)
    assert k.to_json()["rank"] == 3
    assert "--" in k.to_dot()
