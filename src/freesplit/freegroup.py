"""Reduced words, basis automorphisms, Whitehead-graph machinery, and the
elements of the corank-one factor product A * <t w t^-1>.

Letters of a rank-N free group are the nonzero integers ``i`` / ``-i`` for
``1 <= i <= N`` (``-i`` is the inverse of the i-th generator).  Words are
stored freely reduced; cyclic words are stored as the lexicographically
least rotation of the cyclic reduction, ordering letters 1 < -1 < 2 < -2 <
...  The string form concatenates tokens ``x<i>`` and ``X<i>`` (inverse), e.g.
``x1X2`` for ``x1 * x2^-1``; parsing allows whitespace between tokens, not in one.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .values import Value


def free_reduce(letters: Iterable[int]) -> Tuple[int, ...]:
    """Cancel adjacent inverse pairs until none remain."""
    out: List[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def cyclic_reduce_letters(letters: Sequence[int]) -> Tuple[int, ...]:
    """Trim inverse pairs from the two ends of a reduced word."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return tuple(letters[i:j])


def _bit(letter: int) -> int:
    """Vertex index of a letter: 2i-2 for xi and 2i-1 for Xi (x1 < X1 < x2 < ...)."""
    return 2 * letter - 2 if letter > 0 else -2 * letter - 1


def _letter(bit: int) -> int:
    return bit // 2 + 1 if bit % 2 == 0 else -(bit // 2 + 1)


def canonical_cycle(letters: Sequence[int]) -> Tuple[int, ...]:
    """Lexicographically least rotation of a cyclically reduced word.

    Letters compare by their _bit keys.  The two-pointer scan keeps two
    candidate starts i < j and the length k of their common prefix; at the
    first difference, the start with the larger letter and the k starts
    after it lose.  Each step drops a start or extends k, so it is linear.
    """
    letters = tuple(letters)
    n = len(letters)
    keys = list(map(_bit, letters)) * 2
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = keys[i + k], keys[j + k]
        if a == b:
            k += 1
        elif a > b:
            i, j, k = j, max(j, i + k) + 1, 0
        else:
            j, k = j + k + 1, 0
    return letters[i:] + letters[:i]


def _cyclic_canon(letters: Sequence[int]) -> Tuple[int, ...]:
    return canonical_cycle(cyclic_reduce_letters(letters))


_TOKEN = re.compile(r"\s*([xX])([0-9]+)")


class Word(Value):
    """A freely reduced word in the rank-N free group."""

    __slots__ = _fields = ("rank", "letters")

    def __init__(self, rank: int, letters: Tuple[int, ...]):
        if rank < 1:
            raise ValueError("word rank must be >= 1")
        letters = tuple(letters)
        # One pass over the letters; a range fault anywhere outranks a cancelling pair.
        prev, reduced = 0, True
        for l in letters:
            if not 1 <= abs(l) <= rank:
                raise ValueError("letter %d out of range for rank %d" % (l, rank))
            if l == -prev:
                reduced = False
            prev = l
        if not reduced:
            raise ValueError("word is not freely reduced")
        # Stored directly: a hot constructor skips the loop in Value.__init__.
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "letters", letters)

    @classmethod
    def make(cls, rank: int, letters: Iterable[int]) -> "Word":
        """Build a word, freely reducing the given letters first."""
        return cls(rank, free_reduce(letters))

    @classmethod
    def from_string(cls, rank: int, text: str) -> "Word":
        text = text.strip()
        pos = 0
        letters: List[int] = []
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                raise ValueError("bad word syntax at %r" % (text[pos:],))
            idx = int(m.group(2))
            letters.append(idx if m.group(1) == "x" else -idx)
            pos = m.end()
        return cls.make(rank, letters)

    def to_string(self) -> str:
        return "".join(("x%d" % l) if l > 0 else ("X%d" % -l) for l in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise ValueError("cannot multiply words of different ranks")
        return Word.make(self.rank, self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(self.rank, tuple(-l for l in reversed(self.letters)))

    def is_trivial(self) -> bool:
        return not self.letters

    def __repr__(self):
        return "Word(%d, %s)" % (self.rank, self.to_string() or "1")


class CyclicWord(Value):
    """Canonical rotation of a cyclically reduced word."""

    __slots__ = _fields = ("rank", "letters")

    def __init__(self, rank: int, letters: Tuple[int, ...]):
        letters = tuple(letters)
        if rank < 1:
            raise ValueError("word rank must be >= 1")
        for l in letters:
            if not 1 <= abs(l) <= rank:
                raise ValueError("letter %d out of range for rank %d" % (l, rank))
        if letters != _cyclic_canon(free_reduce(letters)):
            raise ValueError("letters are not a canonical cyclic form")
        super().__init__(rank, letters)

    @classmethod
    def of(cls, w: Word) -> "CyclicWord":
        return cls._trusted(w.rank, _cyclic_canon(w.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def as_word(self) -> Word:
        return Word(self.rank, self.letters)


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------


class FreeAutomorphism(Value):
    """A basis-image automorphism with a verified inverse and its letter table (_letter_table).

    The inverse is built with the map, unchecked from the same checked tables,
    and paired back; ``table`` and the inverse take no part in equality, hash or repr.
    """

    _fields = ("rank", "images", "inverse_images")
    __slots__ = _fields + ("table", "_inverse")

    def __init__(self, rank: int, images: Tuple[Word, ...], inverse_images: Tuple[Word, ...]):
        if rank < 1:
            raise ValueError("automorphism rank must be >= 1")
        images = tuple(images)
        inverse_images = tuple(inverse_images)
        if len(images) != rank or len(inverse_images) != rank:
            raise ValueError("need one image per generator")
        for img in itertools.chain(images, inverse_images):
            if img.rank != rank:
                raise ValueError("image rank %d does not match automorphism rank %d"
                                 % (img.rank, rank))
        table = _letter_table([img.letters for img in images])
        backward = _letter_table([img.letters for img in inverse_images])
        for i in range(1, rank + 1):
            if _substitute_letters(backward, table[i]) != (i,):
                raise ValueError("stored inverse does not invert the map on x%d" % i)
            if _substitute_letters(table, backward[i]) != (i,):
                raise ValueError("stored inverse is not a right inverse on x%d" % i)
        inverse = self._trusted(rank, inverse_images, images, backward, self)
        super().__init__(rank, images, inverse_images, table, inverse)

    def apply(self, w: Word) -> Word:
        if w.rank != self.rank:
            raise ValueError("word rank %d does not match automorphism rank %d"
                             % (w.rank, self.rank))
        return Word(w.rank, _substitute_letters(self.table, w.letters))

    def inverse(self) -> "FreeAutomorphism":
        """The inverse map, built with this one; its inverse is self."""
        return self._inverse


def _letter_table(images: Sequence[Tuple[int, ...]]) -> Tuple[Tuple[int, ...], ...]:
    """Slot i holds xi's image run ``images[i-1]``, slot -i (from the end) its inverse."""
    return ((), *images, *[tuple([-x for x in img[::-1]]) for img in reversed(images)])


def _substitute_letters(table: Sequence[Tuple[int, ...]],
                        letters: Iterable[int]) -> Tuple[int, ...]:
    """The freely reduced product of the runs ``table[l]``, cancelled on one stack as it goes."""
    out: List[int] = []
    for l in letters:
        for x in table[l]:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def _side_runs(rank: int, side: int, z: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """Unreduced image runs z^[xj+ in side] xj z^-[xj- in side] of x1, ..., xN."""
    z_inv = tuple([-x for x in z[::-1]])
    runs = []
    for j in range(1, rank + 1):
        run = z + (j,) if side & 1 else (j,)
        runs.append(run + z_inv if side & 2 else run)
        side >>= 2
    return runs


def side_twist(rank: int, side: int, z: Word) -> FreeAutomorphism:
    """The side twist of S by z: xj goes to z^[xj+ in S] * xj * z^-[xj- in S].

    ``side`` is the direction mask S, xj+ at bit 2j-2 and xj- at bit 2j-1
    as in ``partitions``.  The inverse is the side twist of S by z^-1, and
    ``FreeAutomorphism`` checks the pair, so a twist that moves its own
    twistor, such as {x1+} by x1, is refused.  An empty z gives the identity.
    """
    if z.rank != rank:
        raise ValueError("twistor rank %d does not match rank %d" % (z.rank, rank))
    if not 0 <= side < 1 << 2 * rank:
        raise ValueError("side mask %d outside the %d direction bits" % (side, 2 * rank))
    images, inverse_images = (tuple(Word.make(rank, run) for run in _side_runs(rank, side, t))
                              for t in (z.letters, z.inverse().letters))
    return FreeAutomorphism(rank, images, inverse_images)


def nielsen(rank: int, i: int, j: int, side: str = "right") -> FreeAutomorphism:
    """The map sending xi to xi*xj (side="right") or xj*xi (side="left").

    All other generators are fixed; i and j must be distinct generator
    indices.  This is the twist of the stable letter xi by z = xj.
    """
    if i == j:
        raise ValueError("Nielsen map needs distinct generator indices")
    for idx in (i, j):
        if not (1 <= idx <= rank):
            raise ValueError("generator index %d out of range for rank %d" % (idx, rank))
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    return _nielsen(rank, i, j, side)


@lru_cache(maxsize=256)
def _nielsen(rank: int, i: int, j: int, side: str) -> FreeAutomorphism:
    """One shared map per checked (rank, i, j, side); 256 holds every map at ranks <= 7."""
    return twist(rank, i, Word(rank, (j,)), side)


def twist(rank: int, stable: int, z: Word, side: str = "right") -> FreeAutomorphism:
    """Identity on the corank-one factor, sending the stable letter t to zt or tz.

    ``z`` must omit the stable letter (it lives in the complementary
    factor).  An empty z gives the identity.  This is the side twist of
    {t+} by z (side="left") or of {t-} by z^-1 (side="right").
    """
    if not (1 <= stable <= rank):
        raise ValueError("stable index %d out of range for rank %d" % (stable, rank))
    if z.rank != rank:
        raise ValueError("twisting word must live in the ambient rank")
    if any(abs(l) == stable for l in z.letters):
        raise ValueError("twisting word must omit the stable letter x%d" % stable)
    if side == "left":
        return side_twist(rank, 1 << _bit(stable), z)
    if side == "right":
        return side_twist(rank, 1 << _bit(-stable), z.inverse())
    raise ValueError("side must be 'right' or 'left'")


def whitehead_automorphism(rank: int, letters: Iterable[int], multiplier: int) -> FreeAutomorphism:
    """The Whitehead map (A, a): a is fixed, letters of A are multiplied by a.

    ``multiplier`` must belong to ``letters`` and its inverse must not.  A
    generator x with x in A and x^-1 not in A maps to x*a; with x^-1 in A
    only, to a^-1*x; with both, to a^-1*x*a; otherwise it is fixed.  This is
    the side twist by a^-1 of S = {xj- : xj in A} + {xj+ : Xj in A}, leaving
    out a's generator.
    """
    A = frozenset(letters)
    a = multiplier
    if a not in A or -a in A:
        raise ValueError("need multiplier in the letter set and its inverse outside")
    for l in A:
        if not (1 <= abs(l) <= rank):
            raise ValueError("letter %d out of range for rank %d" % (l, rank))
    side = sum(1 << _bit(-l) for l in A if abs(l) != abs(a))
    return side_twist(rank, side, Word(rank, (-a,)))


# ---------------------------------------------------------------------------
# Whitehead graphs and the simplicity test
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _vertex_index(rank: int) -> Tuple[int, ...]:
    """Slot l holds _bit(l) and slot -l (from the end) _bit(-l); slot 0 is unused."""
    return tuple(map(_bit, (*range(rank + 1), *range(-rank, 0))))


def _multiplicities(rank: int, cyc: Sequence[int]) -> List[List[int]]:
    """Whitehead-graph multiplicity rows of a cyclically reduced word."""
    mult = [[0] * (2 * rank) for _ in range(2 * rank)]
    index = _vertex_index(rank)
    i = index[cyc[-1]]  # the vertex of u, the letter before v
    for v in cyc:
        j = index[-v]  # the edge {u, v^-1}
        mult[i][j] += 1
        mult[j][i] += 1
        i = index[v]
    return mult


def whitehead_graph(w: Word) -> Tuple[Tuple[int, ...], ...]:
    """Whitehead graph of a nontrivial word's cyclic reduction, as its rows.

    The graph is on the 2N signed letters: each cyclically adjacent letter
    pair (u, v) contributes the edge {u, v^-1} with multiplicity.  The rows
    are the 2N x 2N multiplicity matrix, indexed by vertex index (see
    _bit).  Cyclic reduction rules out loop edges, and the total
    multiplicity equals the cyclic word length.
    """
    if w.is_trivial():
        raise ValueError("Whitehead graph of the trivial word is undefined")
    mult = _multiplicities(w.rank, cyclic_reduce_letters(w.letters))
    return tuple(map(tuple, mult))


def _certificate(rows: Sequence[Sequence[int]]) -> Optional[bool]:
    """Whitehead's verdict on a cyclically reduced word, read off its graph's rows:
    True when the graph on the 2N letters (an absent letter is isolated) is
    disconnected, so the word lies in a proper free factor (Stallings);
    False when it is connected with no cut vertex, so it lies in none
    (Whitehead's cut-vertex lemma); None when it has a cut vertex, which
    settles nothing short of a minimal word.  Vertex sets are bitsets, and
    each row's neighbour bitset is read off it at C level by ``compress``."""
    bits = [1 << b for b in range(len(rows))]
    adj = [sum(itertools.compress(bits, row)) for row in rows]

    def connected(subset: int) -> bool:
        seen = todo = subset & -subset
        while todo:
            low = todo & -todo
            todo ^= low
            new = adj[low.bit_length() - 1] & subset & ~seen
            seen |= new
            todo |= new
        return seen == subset

    full = (1 << len(adj)) - 1
    if not connected(full):
        return True
    return False if all(connected(full ^ (1 << b)) for b in range(len(adj))) else None


def connected_no_cutvertex(rows: Sequence[Sequence[int]]) -> bool:
    """Whether the graph is connected on all 2N vertices with no cut vertex,
    the nonsimplicity certificate (:func:`_certificate` False)."""
    return _certificate(rows) is False


@lru_cache(maxsize=None)
def _wh_moves(rank: int) -> Tuple[Tuple[int, ...], ...]:
    """Entry a: the mask of A (bit b is the letter of vertex index b, see _bit)
    of every nonidentity Whitehead move (A, a), in encoding order (sorted
    bits of A - {a}).  A mask holding the top vertex is stored as its
    complement, the half that _cut_capacities builds; it holds a iff unflipped.
    """
    # Nonempty subsets of the 2N - 2 slots off a's generator in lexicographic
    # order: those with least slot s are {s}, then {s} joined to each later one.
    combos: List[int] = []
    for slot in reversed(range(2 * rank - 2)):
        combos = [1 << slot] + [1 << slot | c for c in combos] + combos
    full = (1 << 2 * rank) - 1
    top = 1 << 2 * rank - 1
    groups = []
    for a in range(2 * rank):
        keep = (1 << (a & ~1)) - 1  # the bits below a's generator
        masks = [(c & keep) | (c & ~keep) << 2 | 1 << a for c in combos]
        groups.append(tuple(m ^ full if m & top else m for m in masks))
    return tuple(groups)


def _cut_capacities(mult: List[List[int]]) -> List[int]:
    """cap[A], the multiplicity of edges leaving A, for every vertex mask A
    without the top vertex (a mask with it cuts what its complement cuts).

    Adding a vertex v above every vertex of S gives cap(S + v) = cap(S) +
    deg(v) - 2 * mult(v, S); ``into`` holds mult(v, S) for every S below v
    (a vertex u with mult(v, u) = 0 doubles it unchanged).
    """
    cap = [0]
    for v, row in enumerate(mult[:-1]):
        into = [0]
        for m in row[:v]:
            into += [x + m for x in into] if m else into
        deg = sum(row)
        cap += [c + deg - 2 * x for c, x in zip(cap, into)]
    return cap


def _descend(rank: int, letters: Sequence[int]) -> Iterator[Tuple[Tuple[int, ...], list]]:
    """Greedy cyclic-length descent under Whitehead moves, from a nontrivial word.

    Yields each step's cyclically reduced letters, as the rewrite leaves
    them, with their Whitehead-graph rows, and then scores the moves (A, a)
    from the rows: the change in cyclic length is cap(A, A') - deg(a)
    (Higgins-Lyndon), taken per multiplier a as its least cap less deg(a).
    Only the multipliers xi are scored.  Xi's masks are the complements of
    xi's, except that xi's group holds V - {Xi} and Xi's holds V - {xi},
    both of score 0; a cut and its complement have equal capacity and
    deg(Xi) = deg(xi), so a negative score of Xi is also xi's, which comes
    first.  cap >= 0, so an xi with -deg(xi) no better than the best so far
    is skipped.  The first xi with the least score, and its first mask
    reaching it, is the least encoding among the moves with the largest
    strict decrease; only that move rewrites the word.  Cyclic length
    strictly decreases, so the descent halts at a minimal word."""
    groups = _wh_moves(rank)
    full = (1 << 2 * rank) - 1
    plus = full // 3  # the bits of x1, x2, ..., xN
    current = cyclic_reduce_letters(letters)
    while True:
        mult = _multiplicities(rank, current)
        yield current, mult
        cap = _cut_capacities(mult)
        deg = list(map(sum, mult))
        best, winner = 0, None
        for a in range(0, 2 * rank, 2):
            masks = groups[a]
            if masks and -deg[a] < best:
                score = min(map(cap.__getitem__, masks)) - deg[a]
                if score < best:
                    best, winner = score, a
        if winner is None:
            return
        target = best + deg[winner]
        mask = next(m for m in groups[winner] if cap[m] == target)
        if not mask >> winner & 1:
            mask ^= full
        # The side of (A, a), as in whitehead_automorphism: A's bit pairs swapped, a's cleared.
        side = ((mask & plus) << 1 | mask >> 1 & plus) & ~(3 << (winner & ~1))
        table = _letter_table(_side_runs(rank, side, (-_letter(winner),)))
        current = cyclic_reduce_letters(_substitute_letters(table, current))


def whitehead_minimize(w: Word) -> CyclicWord:
    """The cyclic word that the greedy Whitehead descent (:func:`_descend`)
    reaches from w, rotated once; its cyclic length is the least over Aut(F_N)."""
    if w.is_trivial():
        raise ValueError("cannot minimize the trivial word")
    for current, _ in _descend(w.rank, w.letters):
        pass
    return CyclicWord._trusted(w.rank, canonical_cycle(current))


def is_simple(w: Word) -> bool:
    """Whether w lies in a proper free factor.

    Descends greedily while the Whitehead graph of the current step settles
    nothing, and returns the first verdict that :func:`_certificate` reads.
    A minimal word whose graph has a cut vertex is simple (Whitehead).
    """
    if w.is_trivial():
        raise ValueError("simplicity of the trivial word is undefined")
    for _, mult in _descend(w.rank, w.letters):
        verdict = _certificate(mult)
        if verdict is not None:
            return verdict
    return True


# ---------------------------------------------------------------------------
# The corank-one factor product A * <t w t^-1>
# ---------------------------------------------------------------------------


def stable_conjugate(a_rank: int, w: Word) -> Word:
    """The element t*w*t^-1 in rank a_rank+1, with t the last generator."""
    ambient = a_rank + 1
    _check_factor_word(a_rank, w)
    letters = (ambient,) + tuple(w.letters) + (-ambient,)
    return Word.make(ambient, letters)


def _check_factor_word(a_rank: int, w: Word) -> None:
    if w.is_trivial():
        raise ValueError("the twisting word must be nontrivial")
    if any(abs(l) > a_rank for l in w.letters):
        raise ValueError("the twisting word must avoid the stable letter")


def length_then_letter_key(letters: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    """Sort key ordering by length, then lexicographically by letter (x1 < X1 < x2 < ...).

    _bit numbers the letters in that order, so a flat tuple of ints gives it.
    """
    return (len(letters), tuple(map(_bit, letters)))


def factor_product_letters(a_rank: int, w: Word, max_len: int,
                           factor_rank: int) -> Iterator[Tuple[int, ...]]:
    """The letter tuple of every element of A * <t w t^-1> of reduced length
    <= max_len that is not a word in the first ``factor_rank`` generators.

    A is the free factor on the first ``a_rank`` generators of the rank
    ``a_rank + 1`` group, and t is the last generator.  An element is one
    string of tokens, the letters of A and the reduced runs t w^e t^-1 that
    fit, where no token starts with the inverse of the letter before it:
    runs start with t and end with t^-1, so that one rule keeps the string
    reduced and two powers apart.  The walk is depth first, and a string of
    factor letters grows only while the shortest token outside the factor
    still fits after it.  ``factor_rank`` 0 yields every nontrivial element.
    """
    _check_factor_word(a_rank, w)
    if not 0 <= factor_rank <= a_rank:
        raise ValueError("factor rank %d outside 0..%d" % (factor_rank, a_rank))
    t = a_rank + 1
    runs: List[Tuple[int, ...]] = []
    power = w.letters
    while len(power) + 2 <= max_len:  # |w^e| grows with e
        run = (t,) + power + (-t,)
        runs += [run, tuple(-x for x in reversed(run))]
        power = free_reduce(power + w.letters)
    # Each token, longest first, with whether it leaves the factor: children
    # pushed in this order pop in token order.
    backward = [(token, max(map(abs, token)) > factor_rank) for token in
                reversed([(l,) for i in range(1, a_rank + 1) for l in (i, -i)] + runs)]
    room = min((len(token) for token, outside in backward if outside), default=max_len + 1)

    def walk() -> Iterator[Tuple[int, ...]]:
        stack = [entry for entry in backward if len(entry[0]) <= max_len]
        while stack:
            g, outside = stack.pop()
            if outside:
                yield g
            budget = max_len - len(g)
            if budget >= (1 if outside else room):
                stack += [(g + token, outside or leaves) for token, leaves in backward
                          if len(token) <= budget and token[0] != -g[-1]]

    return walk()
