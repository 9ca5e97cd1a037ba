"""The side-mask kernel against the frozenset oracle in ``partition_oracle``.

Exhaustive at ranks 3 and 4: every predicate on every ordered pair of
ideal edges, the blow-up of every boundary family, and the group that the
signed-permutation tables generate.  Blow-ups are also compared on the 328
rank-3 4-cliques, on 2,000 seeded rank-4 4-cliques, on the 1,000 seeded
families of acceptance criterion 8 at ranks 3 to 5, and on seeded families
at ranks 3 to 7 whose petals are named by either partition, with a member
repeated, in shuffled order.
"""

import itertools
import math
import os
import random
import subprocess
import sys

import pytest

import freesplit
import partition_oracle as oracle
from freesplit.blowup import blow_up, boundary_classes
from freesplit.complexes import build_star_graph, enumerate_cliques
from freesplit.partitions import (
    Partition,
    circle_compatible,
    class_of,
    classes_compatible,
    classes_rose_compatible,
    compatible,
    corner_masks,
    crosses,
    crossing_pair_orbits,
    direction_bit,
    enumerate_ideal_edges,
    enumerate_splitting_classes,
    full_mask,
    is_cagey,
    is_ideal,
    is_thick,
    petal_index,
    rose_compatible,
    rose_compatible_masks,
    signed_permutation_tables,
)


@pytest.mark.parametrize("rank", [3, 4])
def test_single_partition_predicates_match_the_oracle(rank):
    for mask in range(2, full_mask(rank), 2):
        p = Partition(rank, mask)
        assert p.encode() == oracle.encode(oracle.side1(p))
        assert Partition.parse(rank, p.encode()) == p
        assert is_ideal(p) == oracle.is_ideal(p)
        assert is_thick(p) == oracle.is_thick(p)
        assert class_of(p) == oracle.class_of(p)


@pytest.mark.parametrize("rank", [3, 4])
def test_pair_predicates_match_the_oracle_on_every_ordered_pair(rank):
    edges = enumerate_ideal_edges(rank)
    for p, q in itertools.product(edges, repeat=2):
        assert crosses(p, q) == oracle.crosses(p, q)
        assert compatible(p, q) != oracle.crosses(p, q)
        corners = tuple(oracle.side(rank, k) for k in corner_masks(p, q))
        assert corners == oracle.corner_sets(p, q)
        if class_of(p) == class_of(q):
            # p itself, or {xi+} against {xi-}: one splitting named twice.
            assert oracle.class_of(p) == oracle.class_of(q) and not oracle.is_cagey(p, q)
            for relation in (is_cagey, rose_compatible, circle_compatible):
                with pytest.raises(ValueError, match="distinct splittings"):
                    relation(p, q)
        else:
            assert is_cagey(p, q) == oracle.is_cagey(p, q)
            assert rose_compatible(p, q) == oracle.rose_compatible(p, q)
            assert circle_compatible(p, q) == oracle.circle_compatible(p, q)


@pytest.mark.parametrize("rank", [3, 4, 5])
def test_rose_compatible_masks_matches_the_class_predicates(rank):
    classes = enumerate_splitting_classes(rank)
    masks = [c.mask for c in classes]
    for (s, a), (t, b) in itertools.permutations(zip(classes, masks), 2):
        assert rose_compatible_masks(a, b, rank) == (
            classes_compatible(s, t) and classes_rose_compatible(s, t)), (s, t)


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


def test_blow_up_matches_the_oracle_on_every_rank3_four_clique():
    graph = build_star_graph(3)
    cliques = enumerate_cliques(graph, 4)
    assert len(cliques) == 328
    for indices in cliques:
        family = [graph.vertices[i] for i in indices]
        assert blow_up(family, 3) == oracle.blow_up(family, 3)


def test_blow_up_matches_the_oracle_on_seeded_rank4_four_cliques():
    graph = build_star_graph(4)
    cliques = enumerate_cliques(graph, 4)
    assert len(cliques) == 40777
    for indices in random.Random(4).sample(cliques, 2000):
        family = [graph.vertices[i] for i in indices]
        assert blow_up(family, 4) == oracle.blow_up(family, 4)


@pytest.mark.parametrize("rank", [3, 4, 5, 6, 7])
def test_blow_up_matches_the_oracle_on_renamed_repeated_and_shuffled_members(rank):
    # Seeded compatible families of up to 3N - 3 classes, about half the
    # petals among them.  Each is blown up again with about half its petals
    # named by {xi-}, one member repeated and the members shuffled: the
    # graph must not change.
    rng = random.Random(100 + rank)
    classes = enumerate_splitting_classes(rank)
    petals, thick = classes[:rank], classes[rank:]
    for _ in range(40):
        rng.shuffle(thick)
        size = rng.randint(1, 3 * rank - 3)
        family = [c for c in petals if rng.random() < 0.5][:size]
        for cls in thick:
            if len(family) == size:
                break
            if all(classes_compatible(cls, other) for other in family):
                family.append(cls)
        graph = blow_up(family, rank)
        assert graph == oracle.blow_up(family, rank)
        renamed = [
            Partition(rank, direction_bit(petal_index(c), -1))
            if petal_index(c) is not None and rng.random() < 0.5 else c
            for c in family
        ]
        renamed.append(rng.choice(renamed))
        rng.shuffle(renamed)
        assert blow_up(renamed, rank) == oracle.blow_up(renamed, rank) == graph


def _group_of_tables(rank):
    """Every element of the group the tables generate, as its table."""
    tables = signed_permutation_tables(rank)
    identity = tuple(range(1 << 2 * rank))
    group, todo = {identity}, [identity]
    while todo:
        element = todo.pop()
        for table in tables:
            image = tuple(table[m] for m in element)
            if image not in group:
                group.add(image)
                todo.append(image)
    return group


def _closure_of_bit_images(rank):
    """Every element of the group the tables generate, as its bit images."""
    generators = [tuple(table[1 << b].bit_length() - 1 for b in range(2 * rank))
                  for table in signed_permutation_tables(rank)]
    identity = tuple(range(2 * rank))
    group, todo = {identity}, [identity]
    while todo:
        element = todo.pop()
        for images in generators:
            image = tuple(images[b] for b in element)
            if image not in group:
                group.add(image)
                todo.append(image)
    return group


@pytest.mark.parametrize("rank", [3, 4, 5])
def test_signed_permutation_tables_generate_the_oracle_group(rank):
    # Two tables; their bit images close to a group of order |B_N|, 3,840 at
    # rank 5.  At ranks 3 and 4 the group of whole tables is the oracle's.
    order = 2 ** rank * math.factorial(rank)
    assert len(signed_permutation_tables(rank)) == 2
    assert len(_closure_of_bit_images(rank)) == order
    if rank > 4:
        return
    masks = range(2, full_mask(rank), 2)
    group = _group_of_tables(rank)
    assert len(group) == order
    ours = {tuple(Partition(rank, element[m]) for m in masks) for element in group}
    theirs = {tuple(g(Partition(rank, m)) for m in masks)
              for g in oracle.signed_permutations(rank)}
    assert len(theirs) == order
    assert ours == theirs


def test_signed_permutation_tables_are_built_lazily_and_guarded():
    probe = ("import freesplit.cli, freesplit.partitions as p; "
             "print(p.signed_permutation_tables.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(freesplit.__file__)))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "0"
    for rank in (2, 8):
        with pytest.raises(ValueError, match="outside the partition guard"):
            signed_permutation_tables(rank)


@pytest.mark.parametrize("rank, pairs, groups", [(3, 153, 6), (4, 4564, 24), (5, 96735, 72)])
def test_crossing_pair_orbits_group_every_crossing_thick_pair_once(rank, pairs, groups):
    # The groups count corner-set orbits; orbits of the pairs themselves
    # are finer (9, 42 and 148 at these ranks).
    masks = [p.mask for p in enumerate_ideal_edges(rank, thick_only=True)]
    found = crossing_pair_orbits(rank, masks)
    assert len(found) == groups
    assert sum(map(len, found)) == pairs
    assert sorted(pair for group in found for pair in group) == [
        (i, j) for i, j in itertools.combinations(range(len(masks)), 2)
        if masks[i] & masks[j] and masks[i] & ~masks[j] and masks[j] & ~masks[i]
    ]
    # Pairs ascend within a group, and groups come in first-met pair order.
    assert all(group == sorted(group) for group in found)
    assert [group[0] for group in found] == sorted(group[0] for group in found)


def test_crossing_pair_orbits_are_the_oracle_orbits_of_corner_sets_at_rank_3():
    edges = enumerate_ideal_edges(3, thick_only=True)
    signed = oracle.signed_permutations(3)
    seen = set()
    for group in crossing_pair_orbits(3, [p.mask for p in edges]):
        p0, q0 = edges[group[0][0]], edges[group[0][1]]
        orbit = {frozenset(corner_masks(g(p0), g(q0))) for g in signed}
        assert {frozenset(corner_masks(edges[i], edges[j])) for i, j in group} == orbit
        assert not orbit & seen
        seen |= orbit

