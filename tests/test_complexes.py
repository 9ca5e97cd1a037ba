import itertools

import pytest

from freesplit.blowup import blow_up
from freesplit.complexes import (
    SplittingGraph,
    build_star_graph,
    cliques_within,
    enumerate_cliques,
    is_rose_family,
    k_graph_local,
    maximal_cliques,
    rose_vertices,
)
from freesplit.partitions import (
    Partition,
    circle_compatible,
    class_of,
    classes_cagey,
    classes_compatible,
    petal_class,
)
from freesplit.verify import chain_partition, rigid_blowup_family


@pytest.fixture(scope="module")
def ens3():
    return build_star_graph(3)


def test_star_graph_vertex_count(ens3):
    assert len(ens3.vertices) == 25


def test_every_ens_edge_is_an_ns_edge(ens3):
    # The ns edges are the compatible pairs: the rose edges and the circle pairs.
    vertices = ens3.vertices
    ens_edges = {(i, j) for i, j, _ in ens3.edges}
    assert all(classes_compatible(vertices[i], vertices[j]) for i, j in ens_edges)
    assert all(kind == "rose" for _, _, kind in ens3.edges)
    circle = [(i, j) for i, j in itertools.combinations(range(len(vertices)), 2)
              if circle_compatible(vertices[i], vertices[j])]
    assert circle and all(pair not in ens_edges for pair in circle)


def test_chain_edges_span_an_ens_edge(ens3):
    i = ens3.index_of(class_of(chain_partition(3, 1)))
    j = ens3.index_of(class_of(chain_partition(3, 2)))
    assert ens3.adjacency[i] >> j & 1
    assert (i, j, "rose") in ens3.edges


def test_index_of_reads_every_vertex_and_rejects_others(ens3):
    assert [ens3.index_of(c) for c in ens3.vertices] == list(range(25))
    with pytest.raises(KeyError, match="is not a vertex"):
        ens3.index_of(petal_class(4, 4))


def test_index_of_finds_a_petal_by_either_partition(ens3):
    petal2 = ens3.index_of(petal_class(3, 2))
    assert ens3.index_of(Partition.parse(3, "x2-")) == petal2
    assert ens3.index_of(Partition.parse(3, "x2+")) == petal2


def test_vertices_must_be_distinct_classes(ens3):
    p = ens3.vertices[3]
    with pytest.raises(ValueError, match="distinct splitting classes"):
        SplittingGraph(3, "ens", (p, p), ())
    # {x2-} names petal 2, whose class is the partition {x2+}.
    with pytest.raises(ValueError, match="distinct splitting classes"):
        SplittingGraph(3, "ens", (Partition.parse(3, "x2-"), p), ())


def test_mode_validation(ens3):
    with pytest.raises(ValueError, match="mode"):
        SplittingGraph(rank=3, mode="ns", vertices=ens3.vertices, edges=())
    with pytest.raises(ValueError, match="edge kind"):
        SplittingGraph(rank=3, mode="ens", vertices=ens3.vertices, edges=((0, 1, "circle"),))
    with pytest.raises(TypeError):
        build_star_graph(3, "ens")


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


def test_known_cagey_pair_has_a_witness(ens3):
    # 3N-4 = 5 pairwise adjacent common neighbours: with either class, a 3N-3 clique.
    sigma1 = class_of(chain_partition(3, 1))
    tau1 = class_of(Partition.parse(3, "x2+,x3-"))
    assert classes_cagey(sigma1, tau1)
    common = ens3.adjacency[ens3.index_of(sigma1)] & ens3.adjacency[ens3.index_of(tau1)]
    assert any(cliques_within(ens3, common, 5))


# ---------------------------------------------------------------------------
# rose vertices and the local rose graph
# ---------------------------------------------------------------------------


def test_base_rose_is_a_rose_vertex(ens3):
    roses = rose_vertices(ens3)
    base = {petal_class(3, i) for i in (1, 2, 3)}
    assert any(set(r) == base for r in roses)


def test_mixed_rose_vertex_appears(ens3):
    roses = rose_vertices(ens3)
    mixed = {
        class_of(chain_partition(3, 1)),
        class_of(chain_partition(3, 2)),
        petal_class(3, 3),
    }
    assert any(set(r) == mixed for r in roses)
    assert is_rose_family(tuple(mixed), 3)


def test_rose_vertices_blow_up_to_roses(ens3):
    for r in rose_vertices(ens3)[:40]:
        g = blow_up(list(r), 3)
        assert g.shape() == (3, ())
        assert g.vertex_ranks() == (0,)


def test_two_partitions_of_one_class_are_not_a_rose():
    # x1+ and x1- name petal 1 twice: two loops on a vertex of rank 1.
    fam = (Partition.parse(3, "x1+"), Partition.parse(3, "x1-"), petal_class(3, 2))
    assert not is_rose_family(fam, 3)
    assert not rose_by_shape(fam, 3)
    assert is_rose_family((Partition.parse(3, "x1+"), petal_class(3, 2), petal_class(3, 3)), 3)


def rose_by_shape(fam, rank):
    """The rose test counted off the blow-up's vertices and edges: one vertex
    of rank 0 holding N loops."""
    try:
        g = blow_up(fam, rank)
    except ValueError:
        return False
    loops = sum(u == v for _, (u, v) in g.edges)
    return [r for _, r in g.vertices] == [0] and loops == len(g.edges) == rank


def test_rose_test_agrees_with_the_shape_report(ens3):
    ens4 = build_star_graph(4)
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
        rose_vertices(SplittingGraph(5, "ens", (), ()))
    with pytest.raises(ValueError):
        k_graph_local(4)


def test_rank4_rose_scan_is_exhaustive():
    roses = rose_vertices(build_star_graph(4))
    assert len(roses) == 22809
    assert len({frozenset(r) for r in roses}) == 22809
    for r in roses[:10]:
        assert is_rose_family(r, 4)


def test_k_graph_is_nonempty_with_finite_degrees():
    k = k_graph_local(3)
    assert len(k.vertices) > 0
    assert len(k.edges) > 0
    touched = {v for edge in k.edges for v in edge}
    assert touched == set(range(len(k.vertices)))


def test_k_graph_edges_are_ens_cliques(ens3):
    k = k_graph_local(3)
    for a, b in k.edges[:80]:
        union = set(k.vertices[a]) | set(k.vertices[b])
        assert len(union) == 4
        idx = [ens3.index_of(c) for c in union]
        assert all(ens3.adjacency[i] >> j & 1 for i, j in itertools.combinations(idx, 2))


def test_graph_exports():
    k = k_graph_local(3)
    assert k.to_json()["rank"] == 3
    assert "--" in k.to_dot()
