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
)
from freesplit.cli import _shape_json
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
    petal_index,
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
    assert g.shape() == (2, ())
    assert g.vertex_ranks() == (1,)


def test_all_petals_give_the_base_rose():
    g = blow_up([petal_class(3, i) for i in (1, 2, 3)], 3)
    assert g.shape() == (3, ())
    assert g.vertex_ranks() == (0,)


def test_maximal_rank6_family_is_a_trivalent_graph():
    family = [petal_class(6, i) for i in range(1, 7)]
    family += [class_of(chain_partition(6, k)) for k in range(1, 7)]
    family += [class_of(interval_partition(6, k)) for k in range(2, 5)]
    g = blow_up(family, 6)
    assert len(g.edges) == 15
    assert len(g.vertices) == 10
    assert all(r == 0 for _, r in g.vertices)
    assert g.valence_profile() == (3,) * 10


def test_both_partitions_of_a_petal_name_one_edge():
    # {x2-} is the other partition of petal 2: the family has two members.
    family = [Partition.parse(3, "x2-"), petal_class(3, 2), thick(3, "x1-,x2+")]
    g = blow_up(family, 3)
    assert [label for label, _ in g.edges] == ["petal:2", "x1-,x2+"]
    assert g == blow_up(family[1:], 3)


def test_blow_up_rejects_empty_and_incompatible_families():
    with pytest.raises(ValueError, match="^cannot blow up an empty family$"):
        blow_up([], 3)
    with pytest.raises(IncompatibleFamilyError, match=r"^family members cross: "
                       r"\{x1-,x2\+,x2-,x3\+\} and \{x1-,x2-,x3-,x4-,x5-,x6-\}$"):
        blow_up([class_of(sign_partition(6)), class_of(interval_partition(6, 2))], 6)


def test_blow_up_names_the_first_crossing_pair_in_class_order():
    # Two crossing pairs: {x1-,x4-} / {x3-,x4-} comes first in class order,
    # {x2+,x3+} / {x2+,x4+} first in numeric mask order.  The petal named by
    # {x3-}, the repeated member and the shuffles do not change the message.
    family = [thick(4, side) for side in ("x1-,x4-", "x2+,x3+", "x2+,x4+", "x3-,x4-")]
    family += [Partition.parse(4, "x3-"), petal_class(4, 3), family[2]]
    rng = random.Random(29)
    for _ in range(10):
        rng.shuffle(family)
        with pytest.raises(IncompatibleFamilyError,
                           match=r"^family members cross: \{x1-,x4-\} and \{x3-,x4-\}$"):
            blow_up(family, 4)


def test_blow_up_rejects_rank_mismatch():
    with pytest.raises(ValueError, match="^family member petal:1 has rank 4, expected 3$"):
        blow_up([petal_class(4, 1)], 3)
    # The first mismatched member in class order is named, as its class.
    family = [Partition.parse(3, "x1-,x2+"), petal_class(4, 1), Partition.parse(5, "x2-")]
    with pytest.raises(ValueError, match="^family member petal:2 has rank 5, expected 4$"):
        blow_up(family, 4)


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


def test_boundary_classes_refuses_a_non_ideal_pair_before_a_compatible_pair():
    # {x2+, x2-} and {x3+, x3-} separate no pair and are disjoint: both
    # refusals apply, and the ideal one is named first.
    with pytest.raises(ValueError, match="^boundary splittings are computed for ideal pairs$"):
        boundary_classes(Partition.parse(3, "x2+,x2-"), Partition.parse(3, "x3+,x3-"))
    with pytest.raises(ValueError,
                       match="^boundary splittings are defined for crossing pairs$"):
        boundary_classes(chain_partition(3, 1), petal_class(3, 2))


# ---------------------------------------------------------------------------
# shape keys
# ---------------------------------------------------------------------------


def test_shape_of_a_four_edge_cage():
    g = blow_up(boundary_classes(chain_partition(3, 1), Partition.parse(3, "x2+,x3-")), 3)
    assert g.shape() == (0, (4,))
    report = _shape_json(g)
    assert report["cage"] == 4
    assert not report["has_separating_edge"]
    assert not report["has_separating_edge_pair"]


def test_shape_of_a_single_loop():
    g = blow_up([petal_class(3, 1)], 3)
    assert g.shape() == (1, ())
    assert g.vertex_ranks() == (2,)


def test_theta_with_loop_is_recognized():
    family = [
        petal_class(3, 1),
        petal_class(3, 2),
        petal_class(3, 3),
        thick(3, "x1-,x2+"),
    ]
    g = blow_up(family, 3)
    assert g.shape() == (1, (3,))
    assert g.vertex_ranks() == (0, 0)


def test_separating_edge_detection():
    g = GraphOfGroups(
        rank=2,
        vertices=(("a", 1), ("b", 1)),
        edges=(("e", ("a", "b")),),
    )
    report = _shape_json(g)
    assert report["has_separating_edge"]
    assert report["has_separating_edge_pair"] is False  # only one edge


def test_separating_pair_without_separating_edge():
    g = GraphOfGroups(
        rank=2,
        vertices=(("a", 0), ("b", 1)),
        edges=(("e1", ("a", "b")), ("e2", ("a", "b"))),
    )
    report = _shape_json(g)
    assert not report["has_separating_edge"]
    assert report["has_separating_edge_pair"]


def test_separating_edge_scans_run_only_in_to_json(monkeypatch):
    calls = []
    real = GraphOfGroups.disconnects_without

    def counting_disconnects_without(graph, labels):
        calls.append(tuple(labels))
        return real(graph, labels)

    monkeypatch.setattr(GraphOfGroups, "disconnects_without", counting_disconnects_without)
    g = blow_up([petal_class(3, 1), petal_class(3, 2), petal_class(3, 3)], 3)
    # The shape key scans nothing; the CLI's shape object runs the scans.
    assert g.shape() == (3, ()) and calls == []
    first = _shape_json(g)
    assert first["rose"] == 3
    assert len(calls) == 3 + 3  # each edge, then each pair of edges
    assert _shape_json(g) == first and len(calls) == 12


def test_graph_validation_rejects_rank_violations():
    with pytest.raises(ValueError):
        GraphOfGroups(rank=5, vertices=(("a", 0),), edges=(("e", ("a", "a")),))
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
            edges=(("e", ("a", "a")),),
        )


@pytest.mark.parametrize("rank, vertices, edges", [
    (1, (), ()),  # no vertex
    (0, (("v0", 0),), ()),  # rank 0
    (2, (("v0", -1),), tuple(("e%d" % i, ("v0", "v0")) for i in range(3))),  # free rank -1
])
def test_graph_validation_rejects_what_the_schema_refuses(rank, vertices, edges):
    # Each of these conserves rank and would write JSON that
    # graph_of_groups.schema.json refuses.
    with pytest.raises(ValueError, match="rank >= 1, a vertex, and free ranks >= 0"):
        GraphOfGroups(rank, vertices, edges)


def test_graph_validation_rejects_a_repeated_edge_label():
    # Two edges named "e" would both be skipped by disconnects_without(["e"]),
    # so this bigon would report a separating edge it does not have.
    with pytest.raises(ValueError, match="duplicate edge labels"):
        GraphOfGroups(
            rank=2,
            vertices=(("a", 0), ("b", 1)),
            edges=(("e", ("a", "b")), ("e", ("a", "b"))),
        )


@pytest.fixture(scope="module")
def boundary_and_clique_graphs():
    """The blow-ups of the 1,761 boundary families of the 4,717 crossing thick
    pairs at ranks 3 and 4, and of the 328 rank-3 4-cliques."""
    families = {(rank, boundary_classes(p, q)) for rank in (3, 4)
                for p, q in crossing_thick_pairs(rank)}
    graphs = [blow_up(family, rank) for rank, family in families]
    ens3 = build_star_graph(3)
    for indices in enumerate_cliques(ens3, 4):
        graphs.append(blow_up([ens3.vertices[i] for i in indices], 3))
    return graphs


def test_separating_edges_match_the_set_bfs_reference(boundary_and_clique_graphs):
    assert len(boundary_and_clique_graphs) == 1761 + 328
    for g in boundary_and_clique_graphs:
        assert not disconnects_without(g, ())
        labels = [label for label, _ in g.edges]
        for size in (1, 2):
            for removed in itertools.combinations(labels, size):
                assert g.disconnects_without(removed) == disconnects_without(g, removed)


# ---------------------------------------------------------------------------
# boundary splittings
# ---------------------------------------------------------------------------


def test_sign_vs_interval_boundary_is_the_cage():
    b = boundary_splitting(sign_partition(6), interval_partition(6, 2))
    assert b.tag == "cage-3"
    assert len(b.family) == 4
    assert blow_up(b.family, 6).shape() == (0, (4,))


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
            assert len(b.family) in (3, 4)
            assert b.tag in BOUNDARY_TAGS
            if is_cagey(p, q):
                assert b.tag == "cage-3"


def test_boundary_tags_are_the_six_readme_tags():
    assert BOUNDARY_TAGS == ("cage-3", "separating-bridge", "theta-variant",
                             "two-loops-bridge", "cage-2-plus-loop", "loop-plus-bridge")


def test_boundary_tag_matches_unranked_isomorphism_class():
    forms = {}
    for rank in (3, 4):
        for _, _, b in exhaustive_boundaries(rank):
            form = canonical_form(blow_up(b.family, rank), include_ranks=False)
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
            shape = blow_up([s, t], rank).shape()
            assert classes_rose_compatible(s, t) == (shape == (2, ()))
            if not classes_rose_compatible(s, t):
                assert shape == (0, (2,))


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
        (b for _, _, b in exhaustive_boundaries(3)), key=lambda b: len(b.family)
    )
    assert len(smallest.family) == 3
    assert any(petal_index(c) is not None for c in smallest.family)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def relabeled(g, prefix="w"):
    names = {vid: "%s%d" % (prefix, i) for i, (vid, _) in enumerate(reversed(g.vertices))}
    return GraphOfGroups(
        rank=g.rank,
        vertices=tuple(sorted((names[v], r) for v, r in g.vertices)),
        edges=tuple(sorted(
            (label, tuple(sorted((names[u], names[v]))))
            for label, (u, v) in g.edges
        )),
    )


def test_canonical_form_is_relabeling_invariant():
    from freesplit.verify import rigid_blowup_family

    petals, companions, _ = rigid_blowup_family(6)
    regular = blow_up(petals + companions, 6)  # trivalent, highly symmetric
    assert canonical_form(relabeled(regular)) == canonical_form(regular)

    bigon = GraphOfGroups(
        rank=2, vertices=(("a", 0), ("b", 1)),
        edges=(("e1", ("a", "b")), ("e2", ("a", "b"))),
    )
    loop = GraphOfGroups(
        rank=2, vertices=(("a", 1),), edges=(("e1", ("a", "a")),),
    )
    assert canonical_form(bigon) != canonical_form(loop)
    ranked = GraphOfGroups(
        rank=3, vertices=(("a", 1), ("b", 1)),
        edges=(("e1", ("a", "b")), ("e2", ("a", "b"))),
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
