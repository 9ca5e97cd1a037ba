import itertools

import pytest
from hypothesis import given, settings, strategies as st

import partition_oracle as oracle
from freesplit.partitions import (
    Partition,
    bit_positions,
    circle_compatible,
    class_key,
    class_mask,
    class_of,
    classes_cagey,
    classes_compatible,
    classes_rose_compatible,
    compatible,
    corner_masks,
    crosses,
    direction_bit,
    encode_class,
    enumerate_ideal_edges,
    enumerate_splitting_classes,
    full_mask,
    is_cagey,
    is_ideal,
    is_thick,
    parse_class,
    petal_class,
    petal_index,
    rose_compatible,
    side_names,
)
from freesplit.verify import chain_partition, interval_partition, sign_partition


def S(*names):
    """A side as the oracle's frozenset of (index, sign) directions, read from
    ``x<i><sign>`` names here rather than by the library's parser."""
    return frozenset((int(name[1:-1]), 1 if name[-1] == "+" else -1) for name in names)


def P(rank, text):
    return Partition.parse(rank, text)


# ---------------------------------------------------------------------------
# Construction and canonical orientation
# ---------------------------------------------------------------------------


def test_constructor_rejects_empty_side():
    with pytest.raises(ValueError):
        Partition(3, full_mask(3))
    with pytest.raises(ValueError):
        Partition(3, 0)


def test_constructor_rejects_masks_outside_the_directions():
    with pytest.raises(ValueError):
        Partition(3, full_mask(3) + 1)
    with pytest.raises(ValueError):
        Partition(3, -2)


def test_constructor_rejects_low_rank():
    with pytest.raises(ValueError):
        Partition(2, direction_bit(1, -1))


def test_canonical_orientation_swaps_on_construction():
    side = direction_bit(1, 1) | direction_bit(2, 1)
    p = Partition(3, side)
    assert not p.mask & direction_bit(1, 1)
    assert p.mask == full_mask(3) ^ side
    assert p == Partition(3, full_mask(3) ^ side)
    assert p.encode() == "x1-,x2-,x3+,x3-"


def test_direction_parse_and_encode():
    # Partition.parse reads each x<i><sign> token straight to its mask bit.
    assert P(3, "x3-").mask == direction_bit(3, -1)
    assert P(3, " x2+ , x3- ,").encode() == "x2+,x3-"
    messages = {
        "y1+": "bad direction 'y1+' (expected e.g. 'x2+')",
        "x+": "bad direction 'x+' (expected e.g. 'x2+')",
        "xa+": "bad direction 'xa+' (expected e.g. 'x2+')",
        "x0+": "direction index must be >= 1, got 'x0+'",
        "": "empty partition side spec",
        " , ": "empty partition side spec",
        "x9-": "direction x9- exceeds rank 3",
        "x2+,x09-": "direction x9- exceeds rank 3",
        "x99999999999+": "direction x99999999999+ exceeds rank 3",
    }
    for text, message in messages.items():
        with pytest.raises(ValueError) as info:
            P(3, text)
        assert str(info.value) == message


@pytest.mark.parametrize("text", ["x+2+", "x 2+", "x0_2-", "x\uff12+", "x-2-"])
def test_direction_index_is_ascii_digits_only(text):
    with pytest.raises(ValueError) as info:
        P(3, text)
    assert str(info.value) == "bad direction %r (expected e.g. 'x2+')" % (text,)


@pytest.mark.parametrize("text", ["petal: +2", "petal:+2", "petal:2_0", "petal:\uff12", "petal: 2"])
def test_petal_index_is_ascii_digits_only(text):
    with pytest.raises(ValueError) as info:
        parse_class(3, text)
    assert str(info.value) == ("bad class spec %r (expected 'petal:<i>' or a side spec "
                               "such as 'x1-,x2+')" % (text,))


# ---------------------------------------------------------------------------
# is_thick / is_ideal
# ---------------------------------------------------------------------------


def test_thick_examples():
    assert is_thick(P(6, "x1-,x2+"))
    assert not is_thick(P(3, "x1+"))


def test_ideal_examples():
    assert is_ideal(P(3, "x1-,x2+"))
    assert not is_ideal(P(3, "x1+,x1-"))
    assert is_ideal(P(3, "x1+"))  # petals are (trivial) ideal edges


# ---------------------------------------------------------------------------
# crosses / corner sets / alignment
# ---------------------------------------------------------------------------


def test_sign_edge_crosses_interval_edge_rank6():
    tau = sign_partition(6)
    q2 = interval_partition(6, 2)
    assert crosses(tau, q2)
    assert [side_names(k) for k in corner_masks(tau, q2)] == [
        ("x1-", "x2-"),
        ("x3-", "x4-", "x5-", "x6-"),
        ("x2+", "x3+"),
        ("x1+", "x4+", "x5+", "x6+"),
    ]


def test_self_pair_is_compatible():
    p = P(3, "x1-,x2+")
    assert not crosses(p, p)
    k11, k12, k21, k22 = corner_masks(p, p)
    assert k12 == k21 == 0
    assert (k11, k22) == (p.mask, full_mask(3) ^ p.mask)


def test_chain_edges_pairwise_compatible():
    for rank in (3, 4, 5):
        for i, j in itertools.combinations(range(1, rank + 1), 2):
            assert not crosses(chain_partition(rank, i), chain_partition(rank, j))


def test_aligned_sides_of_the_two_chain_edges():
    got = oracle.all_alignments(chain_partition(3, 1), chain_partition(3, 2))
    assert got == ((S("x1-", "x2+"), S("x2-", "x3+")),)


def test_aligned_sides_absent_for_crossing_pair():
    assert oracle.all_alignments(sign_partition(6), interval_partition(6, 2)) == ()


def test_aligned_sides_of_equal_partitions():
    p = P(3, "x1-,x2+")
    a, b = S("x1-", "x2+"), S("x1+", "x2-", "x3+", "x3-")
    assert oracle.all_alignments(p, p) == ((a, b), (b, a))


def test_distinct_compatible_pairs_have_a_unique_alignment():
    edges = enumerate_ideal_edges(3)
    for p, q in itertools.combinations(edges, 2):
        alignments = oracle.all_alignments(p, q)
        if crosses(p, q):
            assert alignments == ()
        else:
            assert len(alignments) == 1


def test_rose_compatibility_is_alignment_independent():
    # Evaluate the separating condition on every valid alignment.
    edges = enumerate_ideal_edges(3)
    for p, q in itertools.combinations(edges, 2):
        if class_of(p) == class_of(q):
            # {xi+} and {xi-}: one splitting named twice is refused.
            with pytest.raises(ValueError, match="distinct splittings"):
                rose_compatible(p, q)
            continue
        for a, b in oracle.all_alignments(p, q):
            assert oracle.separates_some_pair(a | b, 3) == rose_compatible(p, q)


def test_rank_mismatch_raises():
    with pytest.raises(ValueError):
        crosses(P(3, "x1-"), P(4, "x1-"))


# ---------------------------------------------------------------------------
# rose compatibility
# ---------------------------------------------------------------------------


def test_chain_edges_are_rose_compatible():
    assert rose_compatible(chain_partition(3, 1), chain_partition(3, 2))


def test_circle_compatible_pair_from_the_three_rose_family():
    tau1 = P(3, "x2+,x3-")
    sigma2 = P(3, "x2-,x3+")
    assert compatible(tau1, sigma2)
    assert not rose_compatible(tau1, sigma2)


def test_rose_compatible_false_for_crossing_pair():
    assert not rose_compatible(sign_partition(6), interval_partition(6, 2))


def test_rose_compatible_requires_ideal_inputs():
    not_ideal = P(3, "x1+,x1-")
    with pytest.raises(ValueError):
        rose_compatible(not_ideal, P(3, "x2+"))
    with pytest.raises(ValueError):
        rose_compatible(P(3, "x2+"), not_ideal)


def test_rose_compatible_requires_distinct_partitions():
    p = P(3, "x1-,x2+")
    with pytest.raises(ValueError, match="rose compatibility is defined for distinct splittings"):
        rose_compatible(p, p)


def representatives(c):
    """Every partition of a class: both singleton sides for a petal."""
    index = petal_index(c)
    if index is None:
        return (c,)
    return tuple(Partition(c.rank, direction_bit(index, sign)) for sign in (1, -1))


def test_rose_compatibility_is_representative_independent():
    classes = enumerate_splitting_classes(3)
    for s, t in itertools.combinations(classes, 2):
        verdicts = {
            rose_compatible(a, b)
            for a in representatives(s)
            for b in representatives(t)
            if a != b
        }
        assert len(verdicts) == 1


# ---------------------------------------------------------------------------
# caginess
# ---------------------------------------------------------------------------


def test_sign_edge_cagey_with_every_companion_rank6():
    tau = sign_partition(6)
    for k in range(1, 7):
        assert is_cagey(tau, chain_partition(6, k))
    for k in range(2, 5):
        assert is_cagey(tau, interval_partition(6, k))


def test_sign_edge_not_cagey_with_a_petal():
    tau = sign_partition(6)
    petal = P(6, "x1+")
    assert not crosses(tau, petal)
    assert not is_cagey(tau, petal)


def test_three_rose_partners_are_cagey():
    assert is_cagey(P(3, "x2+,x3-"), chain_partition(3, 1))
    assert is_cagey(P(3, "x1+,x2-"), chain_partition(3, 2))


def test_cagey_requires_ideal_inputs():
    with pytest.raises(ValueError):
        is_cagey(P(3, "x1+,x1-"), P(3, "x2+"))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def brute_force_counts(rank):
    """Independent enumeration over raw bitmasks of the direction set."""
    dirs = oracle.all_directions(rank)
    n = len(dirs)
    seen = set()
    partitions = ideal = thick_ideal = 0
    classes = set()
    for mask in range(1, 2 ** n - 1):
        side = frozenset(d for k, d in enumerate(dirs) if mask >> k & 1)
        pair = frozenset({side, frozenset(dirs) - side})
        if pair in seen:
            continue
        seen.add(pair)
        partitions += 1
        split = any(((i, 1) in side) != ((i, -1) in side) for i in range(1, rank + 1))
        if not split:
            continue
        ideal += 1
        if len(side) >= 2 and n - len(side) >= 2:
            thick_ideal += 1
            classes.add(pair)
        else:
            singleton = side if len(side) == 1 else frozenset(dirs) - side
            classes.add(("petal", next(iter(singleton))[0]))
    return partitions, ideal, thick_ideal, len(classes)


def test_enumeration_counts_rank3_against_brute_force():
    total, ideal, thick, classes = brute_force_counts(3)
    assert total == 31
    assert ideal == 28
    assert thick == 22
    assert classes == 25
    assert len(enumerate_ideal_edges(3)) == ideal
    assert len(enumerate_ideal_edges(3, thick_only=True)) == thick
    assert len(enumerate_splitting_classes(3)) == classes


def test_enumeration_counts_rank4_against_brute_force():
    total, ideal, thick, classes = brute_force_counts(4)
    assert total == 2 ** 7 - 1
    assert len(enumerate_ideal_edges(4)) == ideal
    assert len(enumerate_ideal_edges(4, thick_only=True)) == thick
    assert len(enumerate_splitting_classes(4)) == classes


def test_enumeration_is_sorted_and_all_ideal():
    edges = enumerate_ideal_edges(3)
    assert all(is_ideal(p) for p in edges)
    keys = [bit_positions(p.mask) for p in edges]
    assert keys == sorted(keys)


def test_enumeration_rank_guard():
    for rank in (2, 8):
        with pytest.raises(ValueError,
                           match=r"rank %d outside the partition guard \[3, 7\]" % rank):
            enumerate_ideal_edges(rank)


def test_every_partition_refuses_a_rank_past_the_guard():
    # One guard for every partition: no value exists at a rank the scans refuse.
    builds = (lambda: Partition(8, 2), lambda: petal_class(8, 1),
              lambda: parse_class(8, "petal:1"), lambda: Partition.parse(8, "x1-"))
    for build in builds:
        with pytest.raises(ValueError, match=r"^rank 8 outside the partition guard \[3, 7\]$"):
            build()
    assert Partition(7, 2).rank == 7


@pytest.mark.parametrize("rank", [3, 4, 5, 6])
def test_splitting_classes_come_in_the_oracle_class_order(rank):
    # Graph indices and the battery's bytes depend on this order.
    classes = enumerate_splitting_classes(rank)
    assert classes == oracle.splitting_classes(rank)
    assert classes == sorted(classes, key=class_key)


@pytest.mark.parametrize("rank", [3, 4, 5, 6])
def test_ideal_edges_come_in_the_oracle_key_order(rank):
    bit_positions.cache_clear()
    for thick_only in (False, True):
        edges = enumerate_ideal_edges(rank, thick_only=thick_only)
        assert edges == sorted(edges, key=lambda p: oracle._key(oracle.side1(p)))
    # The sort leaves the bounded cache to the masks that labels reuse.
    assert bit_positions.cache_info().currsize == 0


@pytest.mark.parametrize("rank", [3, 4, 5])
def test_class_mask_is_the_mask_of_class_of(rank):
    # class_of calls class_mask, so the oracle's class_of is the independent side.
    for mask in range(1, full_mask(rank)):
        p = Partition(rank, mask)
        assert class_mask(rank, mask) == class_of(p).mask == oracle.class_of(p).mask, mask


def test_petal_identification():
    for i in (1, 2, 3):
        plus = class_of(P(3, "x%d+" % i))
        minus = class_of(P(3, "x%d-" % i))
        assert plus == minus == petal_class(3, i)
        assert petal_index(plus) == petal_index(minus) == i
        assert encode_class(minus) == "petal:%d" % i
        assert parse_class(3, "petal:%d" % i) == plus
    assert class_of(P(3, "x1-,x2+")) == P(3, "x1-,x2+")
    assert petal_index(P(3, "x1-,x2+")) is None
    assert encode_class(P(3, "x1-,x2+")) == "x1-,x2+"
    with pytest.raises(ValueError, match="petal index 4 out of range for rank 3"):
        petal_class(3, 4)


def test_class_predicates_see_both_petal_partitions_as_one_splitting():
    plus, minus, thick = P(3, "x2+"), P(3, "x2-"), P(3, "x1-,x2+")
    assert classes_compatible(minus, thick) and classes_compatible(plus, minus)
    for same in ((plus, minus), (minus, plus), (minus, minus)):
        with pytest.raises(ValueError, match="distinct splittings"):
            classes_rose_compatible(*same)
        with pytest.raises(ValueError, match="distinct splittings"):
            classes_cagey(*same)
    assert classes_rose_compatible(minus, thick) == classes_rose_compatible(plus, thick)
    assert classes_cagey(minus, thick) is False


def test_every_relation_but_compatibility_refuses_one_splitting_named_twice():
    refusing = (rose_compatible, is_cagey, circle_compatible,
                classes_rose_compatible, classes_cagey)
    for rank in (3, 4):
        for i in range(1, rank + 1):
            plus = Partition(rank, direction_bit(i, 1))
            minus = Partition(rank, direction_bit(i, -1))
            for p, q in ((plus, minus), (minus, plus), (minus, minus)):
                assert compatible(p, q) and classes_compatible(p, q)
                for relation in refusing:
                    with pytest.raises(ValueError, match="is defined for distinct splittings"):
                        relation(p, q)


# ---------------------------------------------------------------------------
# invariants, exhaustively at rank 3
# ---------------------------------------------------------------------------


def test_symmetry_dichotomy_and_implications_rank3():
    edges = enumerate_ideal_edges(3)
    for p, q in itertools.combinations(edges, 2):
        assert crosses(p, q) == crosses(q, p)
        assert crosses(p, q) != compatible(p, q)
        if class_of(p) == class_of(q):
            assert compatible(p, q)
            for relation in (rose_compatible, is_cagey):
                for pair in ((p, q), (q, p)):
                    with pytest.raises(ValueError, match="distinct splittings"):
                        relation(*pair)
            continue
        assert rose_compatible(p, q) == rose_compatible(q, p)
        assert is_cagey(p, q) == is_cagey(q, p)
        if rose_compatible(p, q):
            assert not crosses(p, q)
        if is_cagey(p, q):
            assert crosses(p, q)


def test_corner_sets_partition_the_directions_rank3():
    edges = enumerate_ideal_edges(3)
    for p, q in itertools.combinations(edges, 2):
        corners = corner_masks(p, q)
        # Pairwise disjoint and covering: the sum and the union are both full.
        assert sum(corners) == full_mask(3)
        assert corners[0] | corners[1] | corners[2] | corners[3] == full_mask(3)
        if compatible(p, q):
            assert sum(1 for c in corners if not c) == 1


def test_equivariance_under_all_signed_permutations_rank3():
    edges = enumerate_ideal_edges(3)
    maps = oracle.signed_permutations(3)
    assert len(maps) == 48
    pairs = list(itertools.combinations(edges, 2))
    for g in maps:
        for p, q in pairs:
            gp, gq = g(p), g(q)
            assert crosses(gp, gq) == crosses(p, q)
            assert is_thick(gp) == is_thick(p)
            assert is_ideal(gp) == is_ideal(p)
            if class_of(p) == class_of(q):
                assert class_of(gp) == class_of(gq)
                for relation in (rose_compatible, is_cagey):
                    with pytest.raises(ValueError, match="distinct splittings"):
                        relation(gp, gq)
            else:
                assert rose_compatible(gp, gq) == rose_compatible(p, q)
                assert is_cagey(gp, gq) == is_cagey(p, q)


# ---------------------------------------------------------------------------
# hypothesis checks at higher ranks
# ---------------------------------------------------------------------------


@st.composite
def partitions_pair(draw):
    rank = draw(st.integers(min_value=3, max_value=6))

    def one():
        return Partition(rank, draw(st.integers(min_value=1, max_value=full_mask(rank) - 1)))

    return one(), one()


@given(partitions_pair())
@settings(max_examples=150, deadline=None)
def test_pair_invariants_random_ranks(pair):
    p, q = pair
    assert crosses(p, q) == crosses(q, p)
    corners = corner_masks(p, q)
    assert sum(corners) == full_mask(p.rank)
    assert corners[0] | corners[1] | corners[2] | corners[3] == full_mask(p.rank)
    assert crosses(p, q) == all(bool(c) for c in corners)
    if is_ideal(p) and is_ideal(q) and class_of(p) == class_of(q):
        with pytest.raises(ValueError, match="distinct splittings"):
            rose_compatible(p, q)
    elif is_ideal(p) and is_ideal(q):
        assert rose_compatible(p, q) == rose_compatible(q, p)
        if rose_compatible(p, q):
            ((a, b),) = oracle.all_alignments(p, q)
            assert not (a & b)
            assert oracle.separates_some_pair(a | b, p.rank)
