import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from freesplit.freegroup import (
    CyclicWord,
    FreeAutomorphism,
    Word,
    canonical_cycle,
    conjugate_into_factor,
    connected_no_cutvertex,
    enumerate_factor_product,
    free_reduce,
    is_conjugate,
    letter_key,
    is_simple,
    nielsen,
    stable_conjugate,
    twist,
    whitehead_automorphism,
    whitehead_graph,
    whitehead_minimize,
)
from whitehead_oracle import (
    _canon,
    all_cyclically_reduced,
    letter_moves,
    oracle_is_simple,
    reference_minimize,
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


def test_word_string_round_trip():
    w = W(3, "x1X2x3")
    assert w.letters == (1, -2, 3)
    assert w.to_string() == "x1X2x3"
    assert W(3, " x1 X2 ").letters == (1, -2)
    with pytest.raises(ValueError):
        W(2, "x1y2")
    with pytest.raises(ValueError):
        W(2, "x3")


def test_cyclic_reduction_and_canonical_form():
    w = W(2, "x1x2X1")
    assert w.cyclic_reduce().letters == (2,)
    assert canonical_cycle((2, 1)) == (1, 2)
    assert CyclicWord.of(W(2, "x2x1")) == CyclicWord.of(W(2, "x1x2"))


def test_canonical_cycle_is_the_least_rotation():
    for rank, max_len in ((2, 8), (3, 6)):
        for letters in all_cyclically_reduced(rank, max_len):
            assert canonical_cycle(letters) == _canon(letters), letters


def test_conjugacy():
    assert is_conjugate(W(2, "x1x2"), W(2, "x2x1"))
    assert not is_conjugate(W(2, "x1"), W(2, "x2"))
    assert not is_conjugate(W(2, "x1x2X1X2"), W(2, "x2x1X2X1"))
    with pytest.raises(ValueError):
        is_conjugate(W(2, "x1"), W(3, "x1"))


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


def test_twist_maps_stable_letter():
    z = W(3, "x1x2X1X2")
    right = twist(3, 3, z, side="right")
    assert right.apply(W(3, "x3")) == W(3, "x3") * z
    left = twist(3, 3, W(3, "x1"), side="left")
    assert left.apply(W(3, "x3")).to_string() == "x1x3"
    assert left.apply(W(3, "x1")).to_string() == "x1"


def test_twist_with_empty_word_is_identity():
    t = twist(3, 3, Word.identity(3))
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
    lr = left.compose(right)
    rl = right.compose(left)
    letters = [l for i in (1, 2, 3) for l in (i, -i)]
    words = []
    for n in range(1, 4):
        for combo in itertools.product(letters, repeat=n):
            words.append(Word.make(3, combo))
    rng = random.Random(5)
    for _ in range(200):
        words.append(Word.make(3, [rng.choice(letters) for _ in range(8)]))
    for w in words:
        assert lr.apply(w) == rl.apply(w)


def test_composition_and_inverse_round_trip():
    phi = nielsen(2, 1, 2).compose(nielsen(2, 2, 1, side="left"))
    for text in ("x1", "x2", "x1x2X1", "x2x2x1"):
        w = W(2, text)
        assert phi.inverse().apply(phi.apply(w)) == w


def test_automorphism_constructor_verifies_inverse():
    with pytest.raises(ValueError):
        FreeAutomorphism(
            2,
            (Word(2, (1, 2)), Word(2, (2,))),
            (Word(2, (1,)), Word(2, (2,))),
        )


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
    phi = FreeAutomorphism.identity(rank)
    for g in generators:
        phi = phi.compose(g)
    letters = [l for i in range(1, rank + 1) for l in (i, -i)]
    w = Word.make(rank, data.draw(st.lists(st.sampled_from(letters), max_size=8)))
    assert phi.inverse().apply(phi.apply(w)) == w
    assert phi.apply(phi.inverse().apply(w)) == w


# ---------------------------------------------------------------------------
# Whitehead graphs
# ---------------------------------------------------------------------------


def test_commutator_graph_is_a_four_cycle():
    g = whitehead_graph(W(2, "x1x2X1X2"))
    assert g.total_multiplicity() == 4
    for v in (1, -1, 2, -2):
        assert g.degree(v) == 2
    assert g.multiplicity(1, 2) == 1
    assert g.multiplicity(1, -2) == 1
    assert g.multiplicity(1, -1) == 0
    assert connected_no_cutvertex(g)


def test_single_letter_graph():
    g = whitehead_graph(W(2, "x1"))
    assert g.multiplicity(1, -1) == 1
    assert g.total_multiplicity() == 1
    assert not connected_no_cutvertex(g)  # x2 letters are isolated


def test_path_shaped_graph_has_a_cut_vertex():
    g = whitehead_graph(W(2, "x1x1x2"))
    assert g.total_multiplicity() == 3
    assert not connected_no_cutvertex(g)


def test_total_multiplicity_equals_cyclic_length():
    rng = random.Random(3)
    letters = [l for i in (1, 2, 3) for l in (i, -i)]
    for _ in range(100):
        w = Word.make(3, [rng.choice(letters) for _ in range(rng.randint(1, 10))])
        if w.is_trivial():
            continue
        assert whitehead_graph(w).total_multiplicity() == len(w.cyclic_reduce())


def test_graph_of_trivial_word_is_undefined():
    with pytest.raises(ValueError):
        whitehead_graph(Word.identity(2))


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
            for cut, a, phi in moves:
                cap = sum(count for (u, v), count in graph.edges if (u in cut) != (v in cut))
                change = len(CyclicWord.of(phi.apply(w))) - len(w)
                assert change == cap - graph.degree(a), (rank, letters, sorted(cut), a)


def test_two_distinct_edges_at_the_stable_letter():
    # For g in the factor product not conjugate into the factor, the stable
    # letter has edges to the inverse of the first letter of w and to the
    # last letter of w.
    w = W(2, "x1x2X1X2")
    u = stable_conjugate(2, w)
    g = Word.make(3, (1,)) * u  # x1 * t w t^-1, cyclically reduced
    graph = whitehead_graph(g)
    assert graph.multiplicity(3, -1) >= 1  # t to (first letter of w)^-1
    assert graph.multiplicity(3, -2) >= 1  # t to last letter of w
    assert len(graph.neighbors(3)) >= 2


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
        is_simple(Word.identity(2))


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


def pushed_words(rank, length, count, seed):
    """Cyclic words of exactly ``length`` letters in the orbits of short words.

    Each start uses every generator twice with random signs and order; random
    Whitehead moves that do not shorten it push it up to ``length`` letters.
    """
    rng = random.Random(seed)
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


def test_minimizer_matches_the_reference_on_long_words():
    for rank, count in ((4, 3), (5, 2)):
        moves = letter_moves(rank)
        for letters in pushed_words(rank, 24, count, seed=rank):
            expected = CyclicWord(rank, reference_minimize(letters, rank, moves))
            assert whitehead_minimize(Word(rank, letters)) == expected, (rank, letters)


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
        assert simple(w.conjugate_by(W(2, "x2"))) == value
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
        assert simple(w.conjugate_by(W(3, "x3"))) == value
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


def test_factor_product_length_one_is_the_factor_generators():
    got = enumerate_factor_product(2, W(2, "x1x2X1X2"), 1)
    assert sorted(w.to_string() for w in got) == ["X1", "X2", "x1", "x2"]


def test_factor_product_contains_the_stable_conjugate():
    w = W(2, "x1x2X1X2")
    u = stable_conjugate(2, w)
    got = enumerate_factor_product(2, w, len(u))
    assert u in got


def test_factor_product_members_balance_the_stable_letter():
    w = W(2, "x1x2X1X2")
    for g in enumerate_factor_product(2, w, 7):
        cyc = g.cyclic_reduce().letters
        ups = sum(1 for l in cyc if l == 3)
        downs = sum(1 for l in cyc if l == -3)
        assert ups == downs


def test_factor_product_is_deduplicated_and_sorted():
    got = enumerate_factor_product(2, W(2, "x1x2X1X2"), 7)
    assert len(got) == len(set(got))
    keys = [(len(g.letters), [letter_key(l) for l in g.letters]) for g in got]
    assert keys == sorted(keys)


def test_factor_product_rejects_words_with_the_stable_letter():
    with pytest.raises(ValueError):
        enumerate_factor_product(2, Word.make(2, ()), 4)
    with pytest.raises(ValueError):
        stable_conjugate(2, W(3, "x3"))


def test_factor_product_matches_independent_subgroup_closure():
    # Independent oracle: close {A-letters, u, u^-1} under right
    # multiplication with the reduced length capped at max_len.  Along the
    # alternating normal form the length grows monotonically, so the cap
    # loses nothing.
    w = W(2, "x1x2X1X2")
    max_len = 6
    u = stable_conjugate(2, w).letters
    u_inv = tuple(-x for x in reversed(u))
    steps = [(1,), (-1,), (2,), (-2,), u, u_inv]
    seen = set()
    frontier = [()]
    while frontier:
        nxt = []
        for letters in frontier:
            for step in steps:
                product = free_reduce(letters + step)
                if len(product) > max_len or product in seen or not product:
                    continue
                seen.add(product)
                nxt.append(product)
        frontier = nxt
    got = {g.letters for g in enumerate_factor_product(2, w, max_len)}
    assert got == seen


def test_conjugate_into_factor():
    assert conjugate_into_factor(W(3, "x3x1X3"), 2)
    assert not conjugate_into_factor(W(3, "x3x1"), 2)
    u = stable_conjugate(2, W(2, "x1x2X1X2"))
    assert conjugate_into_factor(u, 2)
    with pytest.raises(ValueError):
        conjugate_into_factor(W(2, "x1"), 2)
