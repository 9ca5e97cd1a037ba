import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from freesplit import freegroup
from freesplit.freegroup import (
    CyclicWord,
    FreeAutomorphism,
    Word,
    canonical_cycle,
    connected_no_cutvertex,
    cyclic_reduce_letters,
    factor_product_letters,
    free_reduce,
    is_simple,
    length_then_letter_key,
    nielsen,
    side_twist,
    stable_conjugate,
    twist,
    whitehead_automorphism,
    whitehead_graph,
    whitehead_minimize,
)
from freesplit.partitions import MAX_RANK
from freesplit.verify import verify_whitehead_factor
from whitehead_oracle import (
    ReferenceWhiteheadGraph,
    _canon,
    _key,
    all_cyclically_reduced,
    all_reduced,
    factor_product_closure,
    letter_moves,
    move_table,
    oracle_is_simple,
    reference_connected_no_cutvertex,
    reference_descend,
    reference_inverse_error,
    reference_minimize,
    reference_substitute,
    reference_word_error,
    side_twist_images,
    whitehead_moves,
)


def W(rank, text):
    return Word.from_string(rank, text)


def canonical_words(rank, max_len):
    """Every canonical cyclic word of length at most max_len, by the oracle's definition."""
    return [w for w in all_cyclically_reduced(rank, max_len) if _canon(w) == w]


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


def test_free_reduction():
    assert Word.make(2, (1, 2, -2)).letters == (1,)
    assert free_reduce((1, -1, 2, -2)) == ()
    with pytest.raises(ValueError):
        Word(2, (1, -1))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_word_validation_matches_the_reference(rank):
    alphabet = range(-rank - 1, rank + 2)
    for length in range(5):
        for letters in itertools.product(alphabet, repeat=length):
            expected = reference_word_error(rank, letters)
            try:
                assert Word(rank, letters).letters == letters
                error = None
            except ValueError as exc:
                error = str(exc)
            assert error == expected


def test_word_string_round_trip():
    w = W(3, "x1X2x3")
    assert w.letters == (1, -2, 3)
    assert w.to_string() == "x1X2x3"
    assert W(3, " x1 X2 ").letters == (1, -2)
    assert W(3, "\tx1X2\n x3  ").letters == (1, -2, 3)
    with pytest.raises(ValueError):
        W(2, "x1y2")
    with pytest.raises(ValueError):
        W(2, "x3")


@pytest.mark.parametrize("text", ["x\uff12X\u0663", "x\u0661", "X\uff11"])
def test_word_indices_are_ascii_digits_only(text):
    with pytest.raises(ValueError, match="bad word syntax"):
        W(3, text)


@pytest.mark.parametrize("text", ["x1 2", "x 1", "X1x 2", "x1\t1"])
def test_whitespace_may_not_split_a_token(text):
    with pytest.raises(ValueError, match="bad word syntax"):
        W(12, text)


def test_cyclic_reduction_and_canonical_form():
    w = W(2, "x1x2X1")
    assert cyclic_reduce_letters(w.letters) == (2,)
    assert canonical_cycle((2, 1)) == (1, 2)
    assert CyclicWord.of(W(2, "x2x1")) == CyclicWord.of(W(2, "x1x2"))


def test_canonical_cycle_is_the_least_rotation():
    for rank, max_len in ((1, 6), (2, 8), (3, 6)):
        for letters in all_cyclically_reduced(rank, max_len):
            assert canonical_cycle(letters) == _canon(letters), letters
    # Periodic words, where every rotation by the period ties for the least.
    for period in ((1,), (1, 2), (1, 2, 1, 3)):
        for k in (2, 3, 7, 40):
            letters = period * k
            for shift in range(len(period)):
                rotated = letters[shift:] + letters[:shift]
                assert canonical_cycle(rotated) == _canon(letters), (period, k, shift)


def test_conjugacy():
    assert CyclicWord.of(W(2, "x1x2")) == CyclicWord.of(W(2, "x2x1"))
    assert CyclicWord.of(W(2, "x1")) != CyclicWord.of(W(2, "x2"))
    assert CyclicWord.of(W(2, "x1x2X1X2")) != CyclicWord.of(W(2, "x2x1X2X1"))


def test_cyclic_word_refuses_a_letter_out_of_range():
    with pytest.raises(ValueError, match="letter 5 out of range for rank 2"):
        CyclicWord(2, (5,))


def test_cyclic_word_refuses_rank_below_one():
    with pytest.raises(ValueError, match="word rank must be >= 1"):
        CyclicWord(0, ())


def test_cyclic_word_given_as_a_list_is_stored_as_a_tuple():
    cyc = CyclicWord(2, [1, 2])
    assert cyc.letters == (1, 2)
    assert cyc == CyclicWord.of(W(2, "x2x1"))
    assert hash(cyc) == hash(CyclicWord.of(W(2, "x2x1")))


def test_cyclic_word_of_canonicalizes_once(monkeypatch):
    calls = []
    canonical = freegroup.canonical_cycle

    def counting(letters):
        calls.append(letters)
        return canonical(letters)

    monkeypatch.setattr(freegroup, "canonical_cycle", counting)
    CyclicWord.of(W(3, "X1x2x1X3x1"))
    assert len(calls) == 1


def test_cyclic_word_of_equals_the_checked_constructor():
    rng = random.Random(21)
    for _ in range(1500):
        rank = rng.randint(1, 5)
        letters = [rng.choice((1, -1)) * rng.randint(1, rank) for _ in range(rng.randint(0, 12))]
        cyc = CyclicWord.of(Word.make(rank, letters))
        checked = CyclicWord(rank, cyc.letters)
        assert type(cyc.letters) is tuple
        assert (cyc, hash(cyc), repr(cyc)) == (checked, hash(checked), repr(checked))


@pytest.mark.parametrize("letters", [(2, 1), (2, -1), (1, 2, -1), (1, -1)])
def test_cyclic_word_refuses_letters_not_in_canonical_form(letters):
    with pytest.raises(ValueError, match="letters are not a canonical cyclic form"):
        CyclicWord(2, letters)


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------


def test_nielsen_map():
    n = nielsen(3, 1, 2)
    assert n.apply(W(3, "x1")).to_string() == "x1x2"
    assert n.apply(W(3, "x3")).to_string() == "x3"
    assert n.inverse().apply(n.apply(W(3, "x1x3X1"))) == W(3, "x1x3X1")
    left = nielsen(3, 1, 2, side="left")
    assert left.apply(W(3, "x1")).to_string() == "x2x1"
    with pytest.raises(ValueError):
        nielsen(3, 2, 2)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_nielsen_maps_are_twists(rank):
    for i, j in itertools.permutations(range(1, rank + 1), 2):
        for side in ("right", "left"):
            assert nielsen(rank, i, j, side) == twist(rank, i, Word(rank, (j,)), side)


def test_nielsen_checks_come_in_order():
    with pytest.raises(ValueError, match="distinct generator indices"):
        nielsen(2, 3, 3)
    with pytest.raises(ValueError, match="generator index 3 out of range for rank 2"):
        nielsen(2, 3, 1, side="up")
    with pytest.raises(ValueError, match="side must be 'right' or 'left'"):
        nielsen(2, 1, 2, side="up")


def test_nielsen_map_and_its_inverse_are_built_once():
    for rank in (2, 3, 4):
        for i, j in itertools.permutations(range(1, rank + 1), 2):
            for side in ("right", "left"):
                phi = nielsen(rank, i, j, side)
                assert nielsen(rank, i, j, side) is phi
                assert phi.inverse() is phi.inverse()
                assert phi.inverse().inverse() is phi


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_shared_nielsen_map_equals_a_fresh_one(rank):
    for i, j in itertools.permutations(range(1, rank + 1), 2):
        for side in ("right", "left"):
            phi = nielsen(rank, i, j, side)
            phi.inverse()  # the stored inverse must not show in eq, hash or repr
            fresh = [twist(rank, i, Word(rank, (j,)), side),
                     FreeAutomorphism(rank, phi.images, phi.inverse_images)]
            for other in fresh:
                assert phi == other
                assert hash(phi) == hash(other)
                assert repr(phi) == repr(other)


def test_unhashable_side_is_refused_by_the_side_check():
    with pytest.raises(ValueError, match="side must be 'right' or 'left'"):
        nielsen(2, 1, 2, side=["right"])


def test_random_nielsen_walk_builds_each_map_once(monkeypatch):
    built = []
    verify = FreeAutomorphism.__init__

    def counting(self, rank, images, inverse_images):
        built.append(images)
        verify(self, rank, images, inverse_images)

    monkeypatch.setattr(FreeAutomorphism, "__init__", counting)
    freegroup._nielsen.cache_clear()  # maps memoized by earlier tests would go uncounted
    rng = random.Random(20)
    for _ in range(1000):
        i, j = rng.sample(range(1, 5), 2)
        phi = nielsen(4, i, j, rng.choice(("right", "left")))
        if rng.random() < 0.5:
            phi = phi.inverse()
    # 24 maps, each built with its inverse
    assert len(built) <= 24


def test_twist_maps_stable_letter():
    z = W(3, "x1x2X1X2")
    right = twist(3, 3, z, side="right")
    assert right.apply(W(3, "x3")) == W(3, "x3") * z
    left = twist(3, 3, W(3, "x1"), side="left")
    assert left.apply(W(3, "x3")).to_string() == "x1x3"
    assert left.apply(W(3, "x1")).to_string() == "x1"


def test_twist_with_empty_word_is_identity():
    t = twist(3, 3, Word(3, ()))
    for g in ("x1", "x2", "x3"):
        assert t.apply(W(3, g)) == W(3, g)


def test_twist_rejects_words_using_the_stable_letter():
    with pytest.raises(ValueError):
        twist(3, 3, W(3, "x1x3"))


def test_left_and_right_twists_on_distinct_sides_commute():
    zl = W(3, "x1x2")
    zr = W(3, "x2X1")
    left = twist(3, 3, zl, side="left")
    right = twist(3, 3, zr, side="right")
    letters = [l for i in (1, 2, 3) for l in (i, -i)]
    words = []
    for n in range(1, 4):
        for combo in itertools.product(letters, repeat=n):
            words.append(Word.make(3, combo))
    rng = random.Random(5)
    for _ in range(200):
        words.append(Word.make(3, [rng.choice(letters) for _ in range(8)]))
    for w in words:
        assert left.apply(right.apply(w)) == right.apply(left.apply(w))


def test_composition_and_inverse_round_trip():
    outer, inner = nielsen(2, 1, 2), nielsen(2, 2, 1, side="left")
    for text in ("x1", "x2", "x1x2X1", "x2x2x1"):
        w = W(2, text)
        image = outer.apply(inner.apply(w))
        assert image != w
        assert inner.inverse().apply(outer.inverse().apply(image)) == w


def test_automorphism_constructor_verifies_inverse():
    with pytest.raises(ValueError, match="does not invert the map on x1"):
        FreeAutomorphism(
            2,
            (Word(2, (1, 2)), Word(2, (2,))),
            (Word(2, (1,)), Word(2, (2,))),
        )


def _constructor_error(rank, images, inverse_images):
    try:
        FreeAutomorphism(rank, images, inverse_images)
    except ValueError as exc:
        return str(exc)
    return None


def _inverse_check_cases():
    """Whitehead maps at ranks 2-3 and Nielsen maps at ranks 2-4, with altered variants."""
    maps = [whitehead_automorphism(rank, cut, a)
            for rank in (2, 3) for cut, a in whitehead_moves(rank)]
    maps += [nielsen(rank, i, j, side) for rank in (2, 3, 4)
             for i, j in itertools.permutations(range(1, rank + 1), 2)
             for side in ("right", "left")]
    for phi in maps:
        images, inverse_images = list(phi.images), list(phi.inverse_images)
        yield phi.rank, images, inverse_images
        for k in range(phi.rank):
            flipped = inverse_images[:k] + [inverse_images[k].inverse()] + inverse_images[k + 1:]
            yield phi.rank, images, flipped
            swapped_images = images[:k] + [inverse_images[k]] + images[k + 1:]
            swapped_inverses = inverse_images[:k] + [images[k]] + inverse_images[k + 1:]
            yield phi.rank, swapped_images, swapped_inverses
    # x1 -> x2 -> x1 is a left inverse on x1 but not a right one
    yield 2, [Word(2, (2,)), Word(2, (2,))], [Word(2, (1,)), Word(2, (1,))]


def test_inverse_check_matches_the_reference():
    verdicts = set()
    for rank, images, inverse_images in _inverse_check_cases():
        expected = reference_inverse_error(rank, images, inverse_images)
        assert _constructor_error(rank, tuple(images), tuple(inverse_images)) == expected
        verdicts.add(expected)
    # both checks fire, and some altered variants still pass
    assert {None, "stored inverse does not invert the map on x1",
            "stored inverse is not a right inverse on x1"} <= verdicts


def test_apply_matches_the_reference_substitution():
    """Every word up to a length bound, under every Nielsen map at ranks 2-4 and
    every Whitehead map at ranks 2-3, each with its inverse."""
    maps = {rank: [] for rank in (2, 3, 4)}
    for rank in (2, 3, 4):
        maps[rank] += [nielsen(rank, i, j, side)
                       for i, j in itertools.permutations(range(1, rank + 1), 2)
                       for side in ("right", "left")]
    for rank in (2, 3):
        maps[rank] += [whitehead_automorphism(rank, cut, a) for cut, a in whitehead_moves(rank)]
    for rank, max_len in ((2, 5), (3, 4), (4, 3)):
        words = [Word(rank, letters) for letters in all_reduced(rank, max_len)]
        for phi in maps[rank]:
            for psi in (phi, phi.inverse()):
                images = [img.letters for img in psi.images]
                for w in words:
                    assert psi.apply(w).letters == reference_substitute(images, w.letters)


@pytest.mark.parametrize("stray", [Word(2, (1, 2)), Word(4, (3, 4))])
def test_images_of_another_rank_are_rejected(stray):
    gens = tuple(Word(3, (i,)) for i in (1, 2, 3))
    message = "image rank %d does not match automorphism rank 3" % stray.rank
    with pytest.raises(ValueError, match=message):
        FreeAutomorphism(3, gens[:2] + (stray,), gens)
    with pytest.raises(ValueError, match=message):
        FreeAutomorphism(3, gens, gens[:2] + (stray,))


@pytest.mark.parametrize("rank", [0, -1])
def test_automorphism_rank_below_one_is_rejected(rank):
    with pytest.raises(ValueError, match="automorphism rank must be >= 1"):
        FreeAutomorphism(rank, (), ())


def test_images_given_as_lists_are_stored_as_tuples():
    gens = [Word(2, (1,)), Word(2, (2,))]
    phi = FreeAutomorphism(2, gens, list(gens))
    assert isinstance(phi.images, tuple) and isinstance(phi.inverse_images, tuple)
    identity = FreeAutomorphism(2, tuple(gens), tuple(gens))
    assert phi == identity
    assert hash(phi) == hash(identity)


def test_automorphism_check_builds_no_words(monkeypatch):
    maps = [nielsen(4, 1, 2), whitehead_automorphism(3, (1, 2, -3), 1)]
    built = []
    validate = Word.__init__

    def counting(self, rank, letters):
        built.append(letters)
        validate(self, rank, letters)

    monkeypatch.setattr(Word, "__init__", counting)
    for phi in maps:
        assert FreeAutomorphism(phi.rank, phi.images, phi.inverse_images) == phi
    assert built == []


def test_whitehead_automorphism_matches_letter_conventions():
    # multiplier a = x1, cut set {x1, x2}: x2 -> x2 x1, others fixed
    phi = whitehead_automorphism(2, (1, 2), 1)
    assert phi.apply(W(2, "x2")).to_string() == "x2x1"
    assert phi.apply(W(2, "x1")).to_string() == "x1"
    # both letters of x2 in the cut set: conjugation
    both = whitehead_automorphism(2, (1, 2, -2), 1)
    assert both.apply(W(2, "x2")).to_string() == "X1x2x1"
    with pytest.raises(ValueError):
        whitehead_automorphism(2, (1, -1), 1)


def test_twist_checks_come_in_order():
    # stable index, twistor rank, stable letter, side: each case fails every later check too
    with pytest.raises(ValueError, match="^stable index 3 out of range for rank 2$"):
        twist(2, 3, Word(3, (3,)), side="up")
    with pytest.raises(ValueError, match="^twisting word must live in the ambient rank$"):
        twist(2, 1, Word(3, (1,)), side="up")
    with pytest.raises(ValueError, match="^twisting word must omit the stable letter x1$"):
        twist(2, 1, Word(2, (1,)), side="up")
    with pytest.raises(ValueError, match="^side must be 'right' or 'left'$"):
        twist(2, 1, Word(2, (2,)), side="up")


def test_whitehead_automorphism_checks_come_in_order():
    message = "^need multiplier in the letter set and its inverse outside$"
    for cut, a in (((1, -1, 5), 1), ((2, 5), 1)):
        with pytest.raises(ValueError, match=message):
            whitehead_automorphism(2, cut, a)
    for cut, a, letter in (((1, 5), 1, 5), ((3,), 3, 3), ((1, 0), 1, 0)):
        with pytest.raises(ValueError, match="^letter %d out of range for rank 2$" % letter):
            whitehead_automorphism(2, cut, a)


def all_whitehead_maps(rank):
    """Every Whitehead map (A, a) at the rank, the identity maps A = {a} included."""
    letters = [l for i in range(1, rank + 1) for l in (i, -i)]
    for a in letters:
        others = [l for l in letters if abs(l) != abs(a)]
        for size in range(len(others) + 1):
            for combo in itertools.combinations(others, size):
                yield frozenset(combo) | {a}, a


def side_twist_cases():
    """(map, side mask, twistor letters) for every Nielsen map at ranks 2-4, every
    Whitehead map at ranks 1-4 and 2,000 seeded twists at ranks 2-4.

    The side and twistor are written out here: xi -> xi*xj is the twist of
    {xi-} by xj^-1, xi -> xj*xi that of {xi+} by xj, and (A, a) the twist by
    a^-1 of {xj- : xj in A} and {xj+ : Xj in A}, off a's generator.
    """
    for rank in (2, 3, 4):
        for i, j in itertools.permutations(range(1, rank + 1), 2):
            yield nielsen(rank, i, j, "right"), 1 << 2 * i - 1, (-j,)
            yield nielsen(rank, i, j, "left"), 1 << 2 * i - 2, (j,)
    for rank in (1, 2, 3, 4):
        for cut, a in all_whitehead_maps(rank):
            side = sum(1 << (2 * l - 1 if l > 0 else -2 * l - 2) for l in cut if abs(l) != abs(a))
            yield whitehead_automorphism(rank, cut, a), side, (-a,)
    rng = random.Random(31)
    for _ in range(2000):
        rank = rng.choice((2, 3, 4))
        stable = rng.randint(1, rank)
        others = [l for i in range(1, rank + 1) if i != stable for l in (i, -i)]
        z = Word.make(rank, [rng.choice(others) for _ in range(rng.randint(0, 6))])
        if rng.random() < 0.5:
            yield twist(rank, stable, z, "right"), 1 << 2 * stable - 1, z.inverse().letters
        else:
            yield twist(rank, stable, z, "left"), 1 << 2 * stable - 2, z.letters


def test_every_map_is_the_side_twist_of_its_side_and_twistor():
    count = 0
    for phi, side, z in side_twist_cases():
        rank = phi.rank
        z_inv = tuple(-x for x in reversed(z))
        assert tuple(w.letters for w in phi.images) == side_twist_images(rank, side, z)
        assert tuple(w.letters for w in phi.inverse_images) == side_twist_images(rank, side, z_inv)
        assert side_twist(rank, side, Word(rank, z)) == phi
        count += 1
    assert count == 40 + 626 + 2000


def test_side_twist_refusals():
    with pytest.raises(ValueError, match="^twistor rank 3 does not match rank 2$"):
        side_twist(2, 1 << 3, Word(3, (1,)))
    for side in (-1, 1 << 4):
        with pytest.raises(ValueError, match="^side mask %d outside the 4 direction bits$" % side):
            side_twist(2, side, Word(2, (1,)))
    # x1 -> x1x1 moves its own twistor; the twist by X1 sends x1 to the empty word
    with pytest.raises(ValueError, match="^stored inverse does not invert the map on x1$"):
        side_twist(2, 1, Word(2, (1,)))


def test_side_twist_is_refused_exactly_when_it_moves_its_twistor():
    verdicts = set()
    for rank, max_len in ((1, 4), (2, 4), (3, 2)):
        for z in [()] + all_reduced(rank, max_len):
            for side in range(1 << 2 * rank):
                fixed = reference_substitute(side_twist_images(rank, side, z), z) == z
                try:
                    side_twist(rank, side, Word(rank, z))
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == fixed, (rank, side, z)
                verdicts.add(accepted)
    assert verdicts == {True, False}


def test_side_twist_by_the_empty_word_is_the_identity():
    gens = tuple(Word(3, (i,)) for i in (1, 2, 3))
    for side in range(1 << 6):
        assert side_twist(3, side, Word(3, ())) == FreeAutomorphism(3, gens, gens)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_whitehead_maps_match_the_oracle_letter_tables(rank):
    # The oracle's four-case tables share no code with the side-twist rule.
    tables = dict(zip(whitehead_moves(rank), letter_moves(rank)))
    for (cut, a), table in tables.items():
        phi = whitehead_automorphism(rank, cut, a)
        back = tables[cut - {a} | {-a}, -a]
        for g in range(1, rank + 1):
            assert phi.images[g - 1].letters == table[g]
            assert phi.inverse_images[g - 1].letters == back[g]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_automorphism_round_trip_random(data):
    rank = data.draw(st.integers(min_value=2, max_value=3))
    generators = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        kind = data.draw(st.sampled_from(["nielsen", "twist"]))
        if kind == "nielsen":
            i, j = data.draw(
                st.tuples(
                    st.integers(1, rank), st.integers(1, rank)
                ).filter(lambda ij: ij[0] != ij[1])
            )
            generators.append(nielsen(rank, i, j, data.draw(st.sampled_from(["left", "right"]))))
        else:
            stable = data.draw(st.integers(1, rank))
            others = [l for i in range(1, rank + 1) if i != stable for l in (i, -i)]
            letters = data.draw(st.lists(st.sampled_from(others), max_size=5))
            generators.append(
                twist(rank, stable, Word.make(rank, letters),
                      data.draw(st.sampled_from(["left", "right"])))
            )
    letters = [l for i in range(1, rank + 1) for l in (i, -i)]
    w = Word.make(rank, data.draw(st.lists(st.sampled_from(letters), max_size=8)))
    # Generators in order, then their inverses in reverse order, both ways round.
    forward = w
    for g in generators:
        forward = g.apply(forward)
    for g in reversed(generators):
        forward = g.inverse().apply(forward)
    assert forward == w
    backward = w
    for g in reversed(generators):
        backward = g.inverse().apply(backward)
    for g in generators:
        backward = g.apply(backward)
    assert backward == w


# ---------------------------------------------------------------------------
# Whitehead graphs
# ---------------------------------------------------------------------------


def reference_rows(ref):
    """The multiplicity matrix of the edge-dict graph, in the letter order x1, X1, x2, X2, ..."""
    return tuple(tuple(ref.multiplicity(u, v) for v in ref.vertices()) for u in ref.vertices())


def row(rows, letter):
    """The row of ``letter`` in the multiplicity matrix (x1, X1, x2, X2, ...)."""
    return rows[2 * abs(letter) - 2 + (letter < 0)]


def total_multiplicity(rows):
    return sum(map(sum, rows)) // 2


def test_commutator_graph_is_a_four_cycle():
    rows = whitehead_graph(W(2, "x1x2X1X2"))
    # Rows and columns in the order x1, X1, x2, X2.
    assert rows == ((0, 0, 1, 1), (0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 0, 0))
    assert total_multiplicity(rows) == 4
    assert connected_no_cutvertex(rows)


def test_single_letter_graph():
    rows = whitehead_graph(W(2, "x1"))
    assert row(rows, 1)[1] == 1  # the edge {x1, X1}
    assert total_multiplicity(rows) == 1
    assert not connected_no_cutvertex(rows)  # x2 letters are isolated


def test_path_shaped_graph_has_a_cut_vertex():
    rows = whitehead_graph(W(2, "x1x1x2"))
    assert total_multiplicity(rows) == 3
    assert not connected_no_cutvertex(rows)


def test_total_multiplicity_equals_cyclic_length():
    rng = random.Random(3)
    letters = [l for i in (1, 2, 3) for l in (i, -i)]
    for _ in range(100):
        w = Word.make(3, [rng.choice(letters) for _ in range(rng.randint(1, 10))])
        if w.is_trivial():
            continue
        assert total_multiplicity(whitehead_graph(w)) == len(cyclic_reduce_letters(w.letters))


@pytest.mark.parametrize("rank, max_len",
                         [(1, 8), (2, 6), (3, 5), (4, 3), (5, 3), (6, 3), (7, 3)])
def test_whitehead_graph_matches_the_edge_dict_reference(rank, max_len):
    for letters in all_reduced(rank, max_len):
        rows = whitehead_graph(Word(rank, letters))
        ref = ReferenceWhiteheadGraph(rank, letters)
        assert rows == reference_rows(ref)
        assert [sum(r) for r in rows] == [ref.degree(u) for u in ref.vertices()]
        assert total_multiplicity(rows) == ref.total_multiplicity()
        assert connected_no_cutvertex(rows) == reference_connected_no_cutvertex(ref)


@pytest.mark.parametrize("rank", range(1, MAX_RANK + 1))
def test_vertex_table_holds_bit_at_every_letter(rank):
    # Every rank the whitehead guard allows; Xl sits at slot -l, from the end.
    index = freegroup._vertex_index(rank)
    assert len(index) == 2 * rank + 1
    for l in range(1, rank + 1):
        assert (index[l], index[-l]) == (freegroup._bit(l), freegroup._bit(-l)), l


def test_graph_of_trivial_word_is_undefined():
    with pytest.raises(ValueError):
        whitehead_graph(Word(2, ()))


def test_length_change_is_cut_capacity_minus_degree():
    # Higgins-Lyndon with this module's {u, v^-1} edge convention: the move
    # (A, a) changes the cyclic length by the multiplicity of edges leaving
    # A, minus the degree of a.
    for rank, max_len in ((2, 6), (3, 4)):
        moves = [(cut, a, whitehead_automorphism(rank, cut, a))
                 for cut, a in whitehead_moves(rank)]
        for letters in canonical_words(rank, max_len):
            w = Word(rank, letters)
            graph = whitehead_graph(w)
            vertices = [l for i in range(1, rank + 1) for l in (i, -i)]
            for cut, a, phi in moves:
                cap = sum(row(graph, u)[k] for u in cut
                          for k, v in enumerate(vertices) if v not in cut)
                change = len(CyclicWord.of(phi.apply(w))) - len(w)
                assert change == cap - sum(row(graph, a)), (rank, letters, sorted(cut), a)


def unfolded_moves(rank):
    """The library's move table as (frozenset A, a) letter pairs, group by group."""
    full = (1 << 2 * rank) - 1
    letter = [sign * i for i in range(1, rank + 1) for sign in (1, -1)]
    moves = []
    for a, masks in enumerate(freegroup._wh_moves(rank)):
        for mask in masks:
            if not mask >> a & 1:  # folded: the table stores the complement
                mask ^= full
            moves.append((frozenset(letter[b] for b in range(2 * rank) if mask >> b & 1),
                          letter[a]))
    return moves


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_move_table_unfolds_to_the_oracle_moves_in_encoding_order(rank):
    top = 1 << 2 * rank - 1
    groups = freegroup._wh_moves(rank)
    assert len(groups) == 2 * rank
    assert all(mask < top for masks in groups for mask in masks)
    assert unfolded_moves(rank) == whitehead_moves(rank)


@pytest.mark.parametrize("rank, max_len", [(1, 6), (2, 5), (3, 4), (4, 3)])
def test_half_cut_table_counts_the_edges_leaving_every_mask(rank, max_len):
    full = (1 << 2 * rank) - 1
    top = 1 << 2 * rank - 1
    for letters in all_cyclically_reduced(rank, max_len):
        rows = whitehead_graph(Word(rank, letters))
        edges = [(u, v, m) for u, r in enumerate(rows) for v, m in enumerate(r) if u < v and m]
        cap = freegroup._cut_capacities([list(r) for r in rows])
        assert len(cap) == top
        for mask in range(full + 1):
            leaving = sum(m for u, v, m in edges if (mask >> u ^ mask >> v) & 1)
            assert cap[mask ^ full if mask & top else mask] == leaving, (letters, mask)


def test_each_inverse_multiplier_scores_as_its_generator():
    # The descent scores only the multipliers xi: over every move (A, a) of
    # the oracle's list, scored from the edge-dict graph as the edges
    # leaving A less deg(a), the least score over Xi's moves is xi's.
    negative = 0
    for rank, max_len in ((1, 8), (2, 7), (3, 5), (4, 3)):
        moves = whitehead_moves(rank)
        for letters in all_cyclically_reduced(rank, max_len):
            graph = ReferenceWhiteheadGraph(rank, letters)
            degree = {a: graph.degree(a) for a in graph.vertices()}
            least = {}
            for cut, a in moves:
                score = sum(m for (u, v), m in graph.edges if (u in cut) != (v in cut)) - degree[a]
                least[a] = min(least.get(a, score), score)
            for i in range(1, rank + 1):
                assert least.get(-i) == least.get(i), (rank, letters, i)
                negative += least.get(i, 0) < 0
    assert negative > 1000, negative


def test_two_distinct_edges_at_the_stable_letter():
    # For g in the factor product not conjugate into the factor, the stable
    # letter has edges to the inverse of the first letter of w and to the
    # last letter of w.
    w = W(2, "x1x2X1X2")
    u = stable_conjugate(2, w)
    g = Word.make(3, (1,)) * u  # x1 * t w t^-1, cyclically reduced
    graph = whitehead_graph(g)
    assert row(graph, 3)[1] >= 1  # t to (first letter of w)^-1, column X1
    assert row(graph, 3)[3] >= 1  # t to last letter of w, column X2
    assert sum(1 for m in row(graph, 3) if m) >= 2


# ---------------------------------------------------------------------------
# simplicity
# ---------------------------------------------------------------------------


def test_simplicity_anchors():
    assert is_simple(W(2, "x1"))
    assert not is_simple(W(2, "x1x2X1X2"))
    assert is_simple(W(2, "x1x2"))
    assert is_simple(W(3, "x1x2X1X2"))  # lives in the proper factor <x1,x2>
    assert not is_simple(W(2, "x1x1x2x2"))
    with pytest.raises(ValueError):
        is_simple(Word(2, ()))


def test_basis_image_of_x1x2_via_a_single_nielsen_move():
    move = nielsen(2, 1, 2).inverse()
    assert move.apply(W(2, "x1x2")).to_string() in ("x1", "x2")


def test_minimization_reaches_single_letters_on_primitives():
    assert len(whitehead_minimize(W(2, "x1x2"))) == 1
    assert len(whitehead_minimize(W(2, "x1x2X1X2"))) == 4


def test_minimizer_matches_the_rewrite_every_move_reference():
    # Exact forms, not only lengths: this pins the tie-break and so the
    # ``minimized`` string that ``freesplit whitehead simple`` prints.
    checked = 0
    for rank, max_len in ((2, 8), (3, 5)):
        moves = letter_moves(rank)
        for letters in canonical_words(rank, max_len):
            expected = CyclicWord(rank, reference_minimize(letters, rank, moves))
            assert whitehead_minimize(Word(rank, letters)) == expected, (rank, letters)
            checked += 1
    assert checked == 2254


def test_rank_one_has_no_moves_and_every_word_is_minimal():
    assert freegroup._wh_moves(1) == ((), ())
    for letters in ((1,), (1, 1), (-1, -1, -1)):
        assert whitehead_minimize(Word(1, letters)) == CyclicWord(1, letters)
        assert not is_simple(Word(1, letters))


def test_is_simple_builds_one_whitehead_graph_per_descent_step(monkeypatch):
    # The certificates read the rows each descent step builds; a settled
    # graph ends the descent.
    built = []
    multiplicities = freegroup._multiplicities
    monkeypatch.setattr(freegroup, "_multiplicities",
                        lambda rank, cyc: built.append(cyc) or multiplicities(rank, cyc))
    minimal = W(3, "x1x1x2x2x3x3")  # a cycle graph: connected, no cut vertex
    assert not is_simple(minimal)
    assert len(built) == 1
    built.clear()
    assert is_simple(W(2, "x1x2"))  # edges {x1, X2} and {x2, X1}: disconnected
    assert len(built) == 1
    built.clear()
    assert is_simple(W(2, "x1x2x2"))  # a path X1 - x2 - X2 - x1: one move to x1x2
    assert len(built) == 2


def pushed_words(rank, length, count, seed, moves=None):
    """Cyclic words of exactly ``length`` letters in the orbits of short words.

    Each start uses every generator twice with random signs and order; random
    Whitehead moves (from ``moves``, by default all of them) that do not
    shorten it push it up to ``length`` letters.
    """
    rng = random.Random(seed)
    if moves is None:
        moves = letter_moves(rank)
    out = []
    while len(out) < count:
        start = [i * rng.choice((1, -1)) for i in range(1, rank + 1) for _ in range(2)]
        rng.shuffle(start)
        word = _canon(start)
        for _ in range(400):
            table = rng.choice(moves)
            image = _canon([x for l in word for x in table[l]])
            if len(word) <= len(image) <= length:
                word = image
            if len(word) == length:
                out.append(word)
                break
    return out


def sampled_moves(rank, count, seed):
    """``count`` random Whitehead substitutions, for ranks whose full move
    list (57,330 moves at rank 7) is too large to build in a test."""
    rng = random.Random(seed)
    letters = [l for i in range(1, rank + 1) for l in (i, -i)]
    moves = []
    while len(moves) < count:
        a = rng.choice(letters)
        cut = {l for l in letters if abs(l) != abs(a) and rng.random() < 0.5}
        if cut:
            moves.append(move_table(rank, cut | {a}, a))
    return moves


def test_minimizer_matches_the_reference_on_long_words():
    for rank, count in ((4, 3), (5, 2)):
        moves = letter_moves(rank)
        for letters in pushed_words(rank, 24, count, seed=rank):
            expected = CyclicWord(rank, reference_minimize(letters, rank, moves))
            assert whitehead_minimize(Word(rank, letters)) == expected, (rank, letters)


def test_descent_matches_the_step_for_step_reference():
    # Equal letters and rows at every step on long pushed words, up to ranks
    # 6 and 7, the top of the whitehead guard, on x1 x2^k (one step per
    # letter removed; every k <= 40, then 100, 200 and 300, since each
    # descent costs k steps over k letters) and on every word of the
    # rewrite-every-move test.
    inputs = [(rank, letters) for rank in (3, 4, 5)
              for letters in pushed_words(rank, 24, 8, seed=10 + rank)]
    inputs += [(rank, letters) for rank in (6, 7)
               for letters in pushed_words(rank, 28, 3, seed=10 + rank,
                                           moves=sampled_moves(rank, 200, seed=rank))]
    inputs += [(2, (1,) + (2,) * k) for k in [*range(1, 41), 100, 200, 300]]
    inputs += [(rank, letters) for rank, max_len in ((2, 8), (3, 5))
               for letters in canonical_words(rank, max_len)]
    assert len(inputs) == 24 + 6 + 43 + 2254
    for rank, letters in inputs:
        expected = reference_descend(rank, letters)
        assert list(freegroup._descend(rank, letters)) == expected, (rank, letters)


def short_words():
    """Every nontrivial reduced word of rank 1 up to 8 letters, rank 2 up to
    7, rank 3 up to 5 and rank 4 up to 4."""
    return [(rank, letters) for rank, max_len in ((1, 8), (2, 7), (3, 5), (4, 4))
            for letters in all_reduced(rank, max_len)]


def descend_then_cut_vertex(rank, letters):
    """Simplicity by descending to the minimum, then testing its graph for
    connectivity and cut vertices: the rule that certificates shortcut."""
    minimal = reference_descend(rank, letters)[-1][0]
    return not reference_connected_no_cutvertex(ReferenceWhiteheadGraph(rank, minimal))


def test_is_simple_matches_the_rule_at_the_minimum():
    # Every short word, and long pushed words at ranks 3-5, which mostly
    # descend some steps before a graph settles them, either way.
    inputs = short_words()
    inputs += [(rank, letters) for rank in (3, 4, 5)
               for letters in pushed_words(rank, 24, 40, seed=30 + rank)]
    assert len(inputs) == 12274 + 120
    rule, verdicts = {}, {}
    for rank, letters in inputs:
        key = (rank, _canon(letters))  # the rule reads the conjugacy class only
        if key not in rule:
            rule[key] = descend_then_cut_vertex(rank, letters)
        assert is_simple(Word(rank, letters)) == rule[key], (rank, letters)
        verdicts[rule[key]] = verdicts.get(rule[key], 0) + 1
    assert min(verdicts.values()) >= 500, verdicts


def test_is_simple_matches_the_oracle_on_short_words():
    # Rank 2 meets the oracle in criterion 6 and the closed forms up to 8
    # letters; at rank 3 the oracle's search is sampled, 100 cyclic classes.
    rng = random.Random(33)
    inputs = [(rank, letters) for rank, letters in short_words() if rank != 2]
    classes = sorted({_canon(letters) for rank, letters in inputs if rank == 3})
    sample = set(rng.sample(classes, 100))
    moves = {rank: letter_moves(rank) for rank in (1, 3, 4)}
    verdicts = {}
    for rank, letters in inputs:
        key = _canon(letters)
        if rank == 3 and key not in sample:
            continue
        if (rank, key) not in verdicts:
            verdicts[rank, key] = oracle_is_simple(key, rank, moves[rank])
        assert is_simple(Word(rank, letters)) == verdicts[rank, key], (rank, letters)
    assert len(verdicts) == 16 + 100 + 780


class CountedReads(list):
    """A cut table that counts its reads."""

    reads = 0

    def __getitem__(self, mask):
        self.reads += 1
        return list.__getitem__(self, mask)


def test_a_descent_step_scores_the_generator_multipliers_only(monkeypatch):
    # A step reads at most N(2^(2N-2) - 1) caps while scoring, one group of
    # masks per generator, and the winner's group once more to find its mask.
    tables = []
    cut_capacities = freegroup._cut_capacities
    monkeypatch.setattr(freegroup, "_cut_capacities",
                        lambda mult: tables.append(CountedReads(cut_capacities(mult))) or tables[-1])
    for rank in (3, 4):
        group = 2 ** (2 * rank - 2) - 1
        for letters in pushed_words(rank, 24, 4, seed=60 + rank):
            tables.clear()
            whitehead_minimize(Word(rank, letters))
            assert len(tables) >= 2, (rank, letters)
            assert max(t.reads for t in tables) <= rank * group + group, (rank, letters)


def test_whitehead_factor_builds_no_cut_table(monkeypatch):
    # Every element the verifier tests is settled by its first graph.
    calls = []
    cut_capacities = freegroup._cut_capacities
    monkeypatch.setattr(freegroup, "_cut_capacities",
                        lambda mult: calls.append(1) or cut_capacities(mult))
    for mutated in (False, True):
        verify_whitehead_factor(mutated=mutated)
    assert calls == []


def test_simplicity_invariance_rank2_words():
    moves = [
        nielsen(2, 1, 2),
        nielsen(2, 2, 1, side="left"),
        whitehead_automorphism(2, (1, 2), 1),
        whitehead_automorphism(2, (-2, -1), -1),
    ]
    cache = {}

    def simple(w):
        key = canonical_cycle(w.letters)
        if key not in cache:
            cache[key] = is_simple(w)
        return cache[key]

    for letters in all_cyclically_reduced(2, 5):
        w = Word(2, letters)
        value = simple(w)
        assert simple(w.inverse()) == value
        assert simple(W(2, "x2") * w * W(2, "x2").inverse()) == value
        for phi in moves:
            assert simple(phi.apply(w)) == value


def test_simplicity_invariance_rank3_words():
    moves = [nielsen(3, 1, 3), whitehead_automorphism(3, (2, 3, 1), 2)]
    cache = {}

    def simple(w):
        key = canonical_cycle(w.letters)
        if key not in cache:
            cache[key] = is_simple(w)
        return cache[key]

    rng = random.Random(29)
    words = all_cyclically_reduced(3, 4)
    for letters in rng.sample(words, 150):
        w = Word(3, letters)
        value = simple(w)
        assert simple(w.inverse()) == value
        assert simple(W(3, "x3") * w * W(3, "x3").inverse()) == value
        for phi in moves:
            assert simple(phi.apply(w)) == value


def test_connected_no_cutvertex_certifies_nonsimplicity():
    for letters in all_cyclically_reduced(2, 4):
        w = Word(2, letters)
        if connected_no_cutvertex(whitehead_graph(w)):
            assert not is_simple(w)


def test_agreement_with_oracle_on_a_sample():
    moves = letter_moves(2)
    rng = random.Random(17)
    words = all_cyclically_reduced(2, 4)
    for letters in rng.sample(words, 40):
        assert is_simple(Word(2, letters)) == oracle_is_simple(letters, 2, moves)


# ---------------------------------------------------------------------------
# factor products
# ---------------------------------------------------------------------------


def sorted_factor_product(a_rank, w, max_len):
    """The factor product's letter tuples in the order the verifier reports them."""
    return sorted(factor_product_letters(a_rank, w, max_len, 0), key=length_then_letter_key)


def test_factor_product_length_one_is_the_factor_generators():
    got = sorted_factor_product(2, W(2, "x1x2X1X2"), 1)
    assert sorted(Word(3, g).to_string() for g in got) == ["X1", "X2", "x1", "x2"]


def test_factor_product_contains_the_stable_conjugate():
    w = W(2, "x1x2X1X2")
    u = stable_conjugate(2, w)
    got = sorted_factor_product(2, w, len(u))
    assert u.letters in got


def test_factor_product_members_balance_the_stable_letter():
    w = W(2, "x1x2X1X2")
    for g in sorted_factor_product(2, w, 7):
        cyc = cyclic_reduce_letters(Word(3, g).letters)
        ups = sum(1 for l in cyc if l == 3)
        downs = sum(1 for l in cyc if l == -3)
        assert ups == downs


def test_factor_product_is_deduplicated_and_sorted():
    got = sorted_factor_product(2, W(2, "x1x2X1X2"), 7)
    assert len(got) == len(set(got))
    keys = [(len(g), [_key(l) for l in g]) for g in got]
    assert keys == sorted(keys)


def by_length_then_letter_key(words):
    """The reference order of the factor product: length, then the oracle's letter key lexicographically."""
    return sorted(words, key=lambda g: (len(g), [_key(l) for l in g]))


@pytest.mark.parametrize("a_rank, w, max_len", [
    (2, "x1x2X1X2", 8),
    (2, "x1x2", 8),
    (3, "x1x2X3", 5),
    (130, "x1", 1),  # letter indices past 127: a bytes sort key would raise
])
def test_factor_product_order_is_the_letter_key_order(a_rank, w, max_len):
    got = sorted_factor_product(a_rank, W(a_rank, w), max_len)
    assert got == by_length_then_letter_key(set(got))


def test_factor_product_peak_memory_stays_small():
    w = W(2, "x1x2X1X2")
    tracemalloc.start()
    try:
        got = sorted_factor_product(2, w, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got) == 13218
    assert peak < 6_000_000, "peak %.2f MB" % (peak / 1e6)


@pytest.mark.parametrize("a_rank, w, max_len", [
    (2, "x1x2X1X2", 8),
    (3, "x1x2X3", 6),
    (2, "x1x2", 3),  # no power fits
])
def test_factor_power_products_are_the_elements_holding_the_stable_letter(a_rank, w, max_len):
    w = W(a_rank, w)
    every = list(factor_product_letters(a_rank, w, max_len, 0))
    t = a_rank + 1
    assert list(factor_product_letters(a_rank, w, max_len, a_rank)) == [g for g in every if t in g]
    a = 2 * a_rank
    singles = sum(a * (a - 1) ** (k - 1) for k in range(1, max_len + 1))
    assert len([g for g in every if t not in g]) == singles


def test_factor_product_rejects_words_with_the_stable_letter():
    with pytest.raises(ValueError):
        sorted_factor_product(2, Word.make(2, ()), 4)
    with pytest.raises(ValueError):
        stable_conjugate(2, W(3, "x3"))
    # The walk refuses when called, before anything iterates it.
    for factor_rank in (0, 2):
        with pytest.raises(ValueError, match="must be nontrivial"):
            factor_product_letters(2, Word.make(2, ()), 4, factor_rank)
        with pytest.raises(ValueError, match="must avoid the stable letter"):
            factor_product_letters(2, W(3, "x3"), 4, factor_rank)


@pytest.mark.parametrize("factor_rank", [-1, 3, 4])
def test_a_factor_rank_outside_0_to_a_rank_is_refused(factor_rank):
    # Past a_rank no element would leave the factor, and the walk would
    # yield nothing instead of failing.
    with pytest.raises(ValueError, match="factor rank %d outside 0..2" % factor_rank):
        factor_product_letters(2, W(2, "x1x2X1X2"), 4, factor_rank)


CLOSURE_INPUTS = [
    (2, "x1x2X1X2", 8),
    (3, "x1x2X3", 6),
    (2, "x1x2", 8),
    (2, "x1x2", 3),  # no power fits
    (1, "x1x1", 9),
]


def test_factor_product_matches_independent_subgroup_closure():
    for a_rank, w, max_len in CLOSURE_INPUTS:
        w = W(a_rank, w)
        closure = factor_product_closure(a_rank, w, max_len)
        every = list(factor_product_letters(a_rank, w, max_len, 0))
        products = list(factor_product_letters(a_rank, w, max_len, a_rank))
        assert len(every) == len(set(every)) and set(every) == closure, (a_rank, w, max_len)
        t = a_rank + 1
        assert len(products) == len(set(products))
        assert set(products) == {g for g in closure if t in g}, (a_rank, w, max_len)


@pytest.mark.parametrize("a_rank, w, max_len", CLOSURE_INPUTS)
def test_the_walk_past_each_factor_is_the_full_walk_filtered_in_order(a_rank, w, max_len):
    w = W(a_rank, w)
    every = list(factor_product_letters(a_rank, w, max_len, 0))
    for factor_rank in range(a_rank + 1):
        outside = [g for g in every if max(map(abs, g)) > factor_rank]
        assert list(factor_product_letters(a_rank, w, max_len, factor_rank)) == outside
        f = factor_rank
        words = sum(2 * f * (2 * f - 1) ** (k - 1) for k in range(1, max_len + 1))
        assert len(every) - len(outside) == words


def _cyclically_reduced_words(rank, n):
    """Every cyclically reduced word of length n on the 2N letters."""
    letters = [i for j in range(1, rank + 1) for i in (j, -j)]
    for word in itertools.product(letters, repeat=n):
        if all(a != -b for a, b in zip(word, word[1:] + word[:1])):
            yield word


def _phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_rank2_primitive_and_simple_counts_match_their_closed_forms():
    # In F_2 the cyclically reduced primitives of length n number 4*n*phi(n),
    # and a word is simple iff it is a power of a primitive, so the simple
    # ones of length n number the sum over m | n of P(m), with P(1) = 4 and
    # P(m) = 4*m*phi(m).
    def primitives(m):
        return 4 if m == 1 else 4 * m * _phi(m)

    for n in range(2, 9):
        minimal = simple = 0
        for letters in _cyclically_reduced_words(2, n):
            w = Word(2, letters)
            minimal += len(whitehead_minimize(w)) == 1
            simple += is_simple(w)
        assert minimal == 4 * n * _phi(n), n
        assert simple == sum(primitives(m) for m in range(1, n + 1) if n % m == 0), n
