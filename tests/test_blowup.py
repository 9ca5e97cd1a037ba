import itertools
import json
import random

import pytest

from freesplit.blowup import (
    BOUNDARY_TAGS,
    GraphOfGroups,
    IncompatibleFamilyError,
    blow_up,
    boundary_classes,
    boundary_splitting,
    classify_shape,
)
from freesplit.complexes import build_star_graph, enumerate_cliques
from freesplit.partitions import (
    Partition,
    class_of,
    classes_compatible,
    classes_rose_compatible,
    crosses,
    enumerate_ideal_edges,
    enumerate_splitting_classes,
    is_cagey,
    petal_class,
)
from freesplit.verify import chain_partition, interval_partition, sign_partition

from boundary_oracle import crossing_thick_pairs
from graph_oracle import canonical_form, disconnects_without


def thick(rank, text):
    return class_of(Partition.parse(rank, text))


# ---------------------------------------------------------------------------
# blow_up
# ---------------------------------------------------------------------------


def test_two_chain_edges_give_two_petal_rose_with_rank_one_vertex():
    g = blow_up([thick(3, "x1-,x2+"), thick(3, "x2-,x3+")], 3)
    report = classify_shape(g)
    assert report.rose == 2
    assert report.vertex_ranks == (1,)


def test_all_petals_give_the_base_rose():
    g = blow_up([petal_class(3, i) for i in (1, 2, 3)], 3)
    report = classify_shape(g)
    assert report.rose == 3
    assert report.vertex_ranks == (0,)


def test_maximal_rank6_family_is_a_trivalent_graph():
    family = [petal_class(6, i) for i in range(1, 7)]
    family += [class_of(chain_partition(6, k)) for k in range(1, 7)]
    family += [class_of(interval_partition(6, k)) for k in range(2, 5)]
    g = blow_up(family, 6)
    assert len(g.edges) == 15
    assert len(g.vertices) == 10
    assert all(r == 0 for _, r in g.vertices)
    assert g.valence_profile() == (3,) * 10


def test_blow_up_rejects_empty_and_incompatible_families():
    with pytest.raises(ValueError):
        blow_up([], 3)
    with pytest.raises(IncompatibleFamilyError):
        blow_up([class_of(sign_partition(6)), class_of(interval_partition(6, 2))], 6)


def test_blow_up_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        blow_up([petal_class(4, 1)], 3)


def test_blow_up_is_insertion_order_independent():
    base = [
        thick(4, "x1-,x2+"),
        thick(4, "x2-,x3+"),
        petal_class(4, 4),
        petal_class(4, 1),
    ]
    rng = random.Random(11)
    reference = blow_up(base, 4)
    for _ in range(10):
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert blow_up(shuffled, 4) == reference


def test_rank_conservation_on_random_compatible_families():
    rng = random.Random(23)
    for _ in range(120):
        rank = rng.choice((3, 4, 5))
        classes = enumerate_splitting_classes(rank)
        rng.shuffle(classes)
        family = []
        for cls in classes:
            if len(family) == 2 * rank - 1:
                break
            if all(classes_compatible(cls, other) for other in family):
                family.append(cls)
        g = blow_up(family, rank)
        cycles = len(g.edges) - len(g.vertices) + 1
        assert cycles + sum(r for _, r in g.vertices) == rank


# ---------------------------------------------------------------------------
# classify_shape
# ---------------------------------------------------------------------------


def test_shape_of_a_four_edge_cage():
    g = blow_up(boundary_classes(chain_partition(3, 1), Partition.parse(3, "x2+,x3-")), 3)
    report = classify_shape(g)
    assert report.cage == 4
    assert not report.has_separating_edge
    assert not report.has_separating_edge_pair


def test_shape_of_a_single_loop():
    g = blow_up([petal_class(3, 1)], 3)
    report = classify_shape(g)
    assert report.rose == 1
    assert report.vertex_ranks == (2,)


def test_theta_with_loop_is_recognized():
    family = [
        petal_class(3, 1),
        petal_class(3, 2),
        petal_class(3, 3),
        thick(3, "x1-,x2+"),
    ]
    g = blow_up(family, 3)
    report = classify_shape(g)
    assert report.theta_with_loop
    assert report.vertex_ranks == (0, 0)


def test_separating_edge_detection():
    g = GraphOfGroups(
        rank=2,
        vertices=(("a", 1), ("b", 1)),
        edges=(("e", ("a", "b"), "e"),),
    )
    report = classify_shape(g)
    assert report.has_separating_edge
    assert report.has_separating_edge_pair is False  # only one edge


def test_separating_pair_without_separating_edge():
    g = GraphOfGroups(
        rank=2,
        vertices=(("a", 0), ("b", 1)),
        edges=(("e1", ("a", "b"), "e1"), ("e2", ("a", "b"), "e2")),
    )
    report = classify_shape(g)
    assert not report.has_separating_edge
    assert report.has_separating_edge_pair


def test_graph_validation_rejects_rank_violations():
    with pytest.raises(ValueError):
        GraphOfGroups(rank=5, vertices=(("a", 0),), edges=(("e", ("a", "a"), "e"),))
    with pytest.raises(ValueError):
        GraphOfGroups(
            rank=3,
            vertices=(("a", 1), ("b", 2)),
            edges=(),
        )

    with pytest.raises(ValueError, match="must be connected"):
        GraphOfGroups(
            rank=2,
            vertices=(("a", 1), ("b", 1)),
            edges=(("e", ("a", "a"), "e"),),
        )


@pytest.fixture(scope="module")
def boundary_and_clique_graphs():
    """The blow-ups of the 1,761 boundary families of the 4,717 crossing thick
    pairs at ranks 3 and 4, and of the 328 rank-3 4-cliques."""
    families = {(rank, boundary_classes(p, q)) for rank in (3, 4)
                for p, q in crossing_thick_pairs(rank)}
    graphs = [blow_up(family, rank) for rank, family in families]
    ens3 = build_star_graph(3, "ens")
    for indices in enumerate_cliques(ens3, 4):
        graphs.append(blow_up([ens3.vertices[i] for i in indices], 3))
    return graphs


def test_separating_edges_match_the_set_bfs_reference(boundary_and_clique_graphs):
    assert len(boundary_and_clique_graphs) == 1761 + 328
    for g in boundary_and_clique_graphs:
        assert not disconnects_without(g, ())
        eids = [eid for eid, _, _ in g.edges]
        for size in (1, 2):
            for removed in itertools.combinations(eids, size):
                assert g.disconnects_without(removed) == disconnects_without(g, removed)


# ---------------------------------------------------------------------------
# boundary splittings
# ---------------------------------------------------------------------------


def test_sign_vs_interval_boundary_is_the_cage():
    b = boundary_splitting(sign_partition(6), interval_partition(6, 2))
    assert b.tag == "cage-3"
    assert b.edge_count == 4
    assert classify_shape(b.graph).cage == 4


def test_boundary_requires_a_crossing_ideal_pair():
    with pytest.raises(ValueError):
        boundary_splitting(chain_partition(3, 1), chain_partition(3, 2))
    with pytest.raises(ValueError):
        boundary_splitting(Partition.parse(3, "x1+,x1-"), Partition.parse(3, "x2+,x2-,x3+"))


def exhaustive_boundaries(rank):
    thick_edges = enumerate_ideal_edges(rank, thick_only=True)
    for p, q in itertools.combinations(thick_edges, 2):
        if crosses(p, q):
            yield p, q, boundary_splitting(p, q)


def test_boundary_census_rank3_is_frozen():
    census = {}
    for _, _, b in exhaustive_boundaries(3):
        census[b.tag] = census.get(b.tag, 0) + 1
    assert census == {
        "cage-3": 96,
        "separating-bridge": 36,
        "cage-2-plus-loop": 18,
        "loop-plus-bridge": 3,
    }


def test_boundary_edge_counts_and_cagey_pairs_land_on_the_cage():
    for rank in (3, 4):
        for p, q, b in exhaustive_boundaries(rank):
            assert b.edge_count in (3, 4)
            assert b.tag in BOUNDARY_TAGS
            if is_cagey(p, q):
                assert b.tag == "cage-3"


def test_boundary_tag_matches_unranked_isomorphism_class():
    forms = {}
    for rank in (3, 4):
        for _, _, b in exhaustive_boundaries(rank):
            form = canonical_form(b.graph, include_ranks=False)
            forms.setdefault(form, set()).add(b.tag)
    assert len(forms) == 6
    assert all(len(tags) == 1 for tags in forms.values())


def test_rose_compatibility_agrees_with_blow_up_shapes():
    # Dual route: the side-arithmetic predicate against the quotient shape
    # of the two-element blow-up (two-petal rose vs two-edge loop).
    for rank in (3, 4):
        classes = enumerate_splitting_classes(rank)
        for s, t in itertools.combinations(classes, 2):
            if not classes_compatible(s, t):
                continue
            report = classify_shape(blow_up([s, t], rank))
            assert classes_rose_compatible(s, t) == (report.rose == 2)
            if not classes_rose_compatible(s, t):
                assert report.cage == 2


def test_cagey_iff_cage_boundary_with_pairwise_rose_compatible_edges():
    for rank in (3, 4):
        for p, q, b in exhaustive_boundaries(rank):
            via_boundary = b.tag == "cage-3" and all(
                classes_rose_compatible(a, c)
                for a, c in itertools.combinations(b.family, 2)
            )
            assert via_boundary == is_cagey(p, q)


def test_three_edge_boundaries_exist_and_dedup_petal_corners():
    smallest = min(
        (b for _, _, b in exhaustive_boundaries(3)), key=lambda b: b.edge_count
    )
    assert smallest.edge_count == 3
    kinds = [c.kind for c in smallest.family]
    assert "petal" in kinds


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def relabeled(g, prefix="w"):
    names = {vid: "%s%d" % (prefix, i) for i, (vid, _) in enumerate(reversed(g.vertices))}
    return GraphOfGroups(
        rank=g.rank,
        vertices=tuple(sorted((names[v], r) for v, r in g.vertices)),
        edges=tuple(sorted(
            (eid, tuple(sorted((names[u], names[v]))), label)
            for eid, (u, v), label in g.edges
        )),
    )


def test_canonical_form_is_relabeling_invariant():
    from freesplit.verify import rigid_blowup_family

    petals, companions, _ = rigid_blowup_family(6)
    regular = blow_up(petals + companions, 6)  # trivalent, highly symmetric
    assert canonical_form(relabeled(regular)) == canonical_form(regular)

    bigon = GraphOfGroups(
        rank=2, vertices=(("a", 0), ("b", 1)),
        edges=(("e1", ("a", "b"), "e1"), ("e2", ("a", "b"), "e2")),
    )
    loop = GraphOfGroups(
        rank=2, vertices=(("a", 1),), edges=(("e1", ("a", "a"), "e1"),),
    )
    assert canonical_form(bigon) != canonical_form(loop)
    ranked = GraphOfGroups(
        rank=3, vertices=(("a", 1), ("b", 1)),
        edges=(("e1", ("a", "b"), "e1"), ("e2", ("a", "b"), "e2")),
    )
    assert canonical_form(bigon) != canonical_form(ranked)
    assert canonical_form(bigon, include_ranks=False) == canonical_form(ranked, include_ranks=False)


def test_json_and_dot_exports():
    g = blow_up([petal_class(3, 1), petal_class(3, 2), petal_class(3, 3)], 3)
    payload = g.to_json()
    assert json.dumps(payload)
    assert {v["id"] for v in payload["vertices"]} == {"v0"}
    dot = g.to_dot()
    assert dot.startswith("graph") and "petal:1" in dot
