"""Translation lengths as an independent oracle for the partition calculus.

A partition P of the 2N directions at the rose's vertex names a one-edge
splitting, and a cyclically reduced word w passes through the vertex once
per cyclic turn: from the direction its letter a enters by (the one a^-1
leaves by) to the direction the next letter b leaves by.  The translation
length of w on the splitting's tree is the number of those turns that P
puts on different sides.  Nothing below reads the library's masks except
through ``Partition.mask`` and ``direction_bit``.
"""

import itertools

import pytest

from freesplit.partitions import (
    Partition,
    compatible,
    direction_bit,
    enumerate_splitting_classes,
    full_mask,
    is_ideal,
    rose_compatible,
    signed_permutation_tables,
)


def _leaving(letter):
    """The direction bit a letter leaves the vertex by."""
    return direction_bit(abs(letter), 1 if letter > 0 else -1)


def _letter(bit):
    """The letter leaving the vertex by a direction bit."""
    return (bit // 2 + 1) * (-1 if bit % 2 else 1)


def translation_length(p, word):
    """The cyclic turns of ``word`` that ``p`` splits."""
    return sum(
        bool(p.mask & _leaving(-a)) != bool(p.mask & _leaving(b))
        for a, b in zip(word, word[1:] + word[:1])
    )


def cyclic_words(rank, max_len):
    """Every cyclically reduced word of length 1..max_len."""
    letters = [i for j in range(1, rank + 1) for i in (j, -j)]
    return [
        word for n in range(1, max_len + 1)
        for word in itertools.product(letters, repeat=n)
        if all(a != -b for a, b in zip(word, word[1:] + word[:1]))
    ]


@pytest.mark.parametrize("rank, classes, words", [(3, 25, 162), (4, 116, 408)])
def test_classes_have_distinct_translation_length_vectors(rank, classes, words):
    universe = enumerate_splitting_classes(rank)
    short = cyclic_words(rank, 3)
    assert (len(universe), len(short)) == (classes, words)
    vectors = {tuple(translation_length(c, w) for w in short) for c in universe}
    assert len(vectors) == classes


@pytest.mark.parametrize("rank", [3, 4])
def test_ideal_iff_some_generator_has_translation_length_one(rank):
    # Masks without bit 0 are the canonical sides, so each partition once.
    for mask in range(2, full_mask(rank), 2):
        p = Partition(rank, mask)
        ideal = any(translation_length(p, (j,)) == 1 for j in range(1, rank + 1))
        assert is_ideal(p) == ideal, p


@pytest.mark.parametrize("rank, pairs", [(3, 147), (4, 2106)])
def test_rose_compatible_iff_some_generator_has_odd_total_length(rank, pairs):
    # A compatible pair refines to a two-petal rose exactly when some
    # generator crosses an odd number of its two edges; on a two-edge loop
    # every generator crosses both or neither.
    compatible_pairs = [
        (s, t) for s, t in itertools.combinations(enumerate_splitting_classes(rank), 2)
        if compatible(s, t)
    ]
    assert len(compatible_pairs) == pairs
    for s, t in compatible_pairs:
        odd = any((translation_length(s, (j,)) + translation_length(t, (j,))) % 2
                  for j in range(1, rank + 1))
        assert rose_compatible(s, t) == odd, (s, t)


@pytest.mark.parametrize("rank", [3, 4])
def test_signed_permutations_keep_translation_lengths(rank):
    universe = enumerate_splitting_classes(rank)
    words = cyclic_words(rank, 3)
    for table in signed_permutation_tables(rank):
        image_letter = {
            letter: _letter(table[_leaving(letter)].bit_length() - 1)
            for letter in range(-rank, rank + 1) if letter
        }
        for p in universe:
            image = Partition(rank, table[p.mask])
            for w in words:
                moved = tuple(image_letter[a] for a in w)
                assert translation_length(image, moved) == translation_length(p, w)
