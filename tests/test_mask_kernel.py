"""The side-mask kernel against the frozenset oracle in ``partition_oracle``.

Exhaustive at ranks 3 and 4: every predicate on every ordered pair of
ideal edges, and the blow-up of every boundary family; plus the 1,000
seeded families of acceptance criterion 8 at ranks 3 to 5.
"""

import itertools
import random

import pytest

import partition_oracle as oracle
from freesplit.blowup import blow_up, boundary_classes
from freesplit.partitions import (
    Partition,
    aligned_sides,
    circle_compatible,
    class_of,
    classes_compatible,
    compatible,
    corner_sets,
    crosses,
    enumerate_ideal_edges,
    enumerate_splitting_classes,
    full_mask,
    is_cagey,
    is_ideal,
    is_thick,
    rose_compatible,
)


@pytest.mark.parametrize("rank", [3, 4])
def test_single_partition_predicates_match_the_oracle(rank):
    for mask in range(2, full_mask(rank), 2):
        p = Partition.from_mask(rank, mask)
        assert Partition.of(rank, p.side1) == p
        assert is_ideal(p) == oracle.is_ideal(p)
        assert is_thick(p) == oracle.is_thick(p)
        assert class_of(p) == oracle.class_of(p)


@pytest.mark.parametrize("rank", [3, 4])
def test_pair_predicates_match_the_oracle_on_every_ordered_pair(rank):
    edges = enumerate_ideal_edges(rank)
    for p, q in itertools.product(edges, repeat=2):
        assert crosses(p, q) == oracle.crosses(p, q)
        assert compatible(p, q) != oracle.crosses(p, q)
        assert corner_sets(p, q).as_tuple() == oracle.corner_sets(p, q)
        assert aligned_sides(p, q) == oracle.aligned_sides(p, q)
        assert is_cagey(p, q) == oracle.is_cagey(p, q)
        if p != q:
            assert rose_compatible(p, q) == oracle.rose_compatible(p, q)
            assert circle_compatible(p, q) == oracle.circle_compatible(p, q)


@pytest.mark.parametrize("rank", [3, 4])
def test_blow_up_matches_the_oracle_on_every_boundary_family(rank):
    thick = enumerate_ideal_edges(rank, thick_only=True)
    for p, q in itertools.combinations(thick, 2):
        if crosses(p, q):
            family = boundary_classes(p, q)
            assert blow_up(family, rank) == oracle.blow_up(family, rank)


def test_blow_up_matches_the_oracle_on_the_seeded_families():
    # The family generator of acceptance criterion 8.
    rng = random.Random(2024)
    for _ in range(1000):
        rank = rng.choice((3, 4, 5))
        classes = enumerate_splitting_classes(rank)
        rng.shuffle(classes)
        family = []
        for cls in classes:
            if len(family) == rng.randint(1, 2 * rank - 1):
                break
            if all(classes_compatible(cls, other) for other in family):
                family.append(cls)
        if not family:
            family = [classes[0]]
        assert blow_up(family, rank) == oracle.blow_up(family, rank)
