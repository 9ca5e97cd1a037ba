"""Reduced words, basis automorphisms, and Whitehead-graph machinery.

Letters of a rank-N free group are the nonzero integers ``i`` / ``-i`` for
``1 <= i <= N`` (``-i`` is the inverse of the i-th generator).  Words are
stored freely reduced; cyclic words are stored as the lexicographically
least rotation of the cyclic reduction, ordering letters 1 < -1 < 2 < -2 <
...  The string form uses tokens ``x<i>`` and ``X<i>`` (inverse),
concatenated without separators, e.g. ``x1X2`` for ``x1 * x2^-1``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def letter_key(letter: int) -> Tuple[int, int]:
    return (abs(letter), 0 if letter > 0 else 1)


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
    """Vertex index of a letter: 2i-2 for xi and 2i-1 for Xi, in letter_key order."""
    return 2 * letter - 2 if letter > 0 else -2 * letter - 1


def _letter(bit: int) -> int:
    return bit // 2 + 1 if bit % 2 == 0 else -(bit // 2 + 1)


def canonical_cycle(letters: Sequence[int]) -> Tuple[int, ...]:
    """Lexicographically least rotation of a cyclically reduced word.

    Rotations are compared as slices of the doubled list of letter keys
    (the _bit indices); only rotations that start with the least key are
    candidates.
    """
    letters = tuple(letters)
    n = len(letters)
    if not n:
        return ()
    keys = [2 * l - 2 if l > 0 else -2 * l - 1 for l in letters]
    least = min(keys)
    keys += keys
    k = min((k for k in range(n) if keys[k] == least), key=lambda k: keys[k:k + n])
    return letters[k:] + letters[:k]


_TOKEN = re.compile(r"([xX])(\d+)")


@dataclass(frozen=True)
class Word:
    """A freely reduced word in the rank-N free group."""

    rank: int
    letters: Tuple[int, ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("word rank must be >= 1")
        object.__setattr__(self, "letters", tuple(self.letters))
        for l in self.letters:
            if not (1 <= abs(l) <= self.rank):
                raise ValueError("letter %d out of range for rank %d" % (l, self.rank))
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError("word is not freely reduced")

    @classmethod
    def make(cls, rank: int, letters: Iterable[int]) -> "Word":
        """Build a word, freely reducing the given letters first."""
        return cls(rank, free_reduce(letters))

    @classmethod
    def identity(cls, rank: int) -> "Word":
        return cls(rank, ())

    @classmethod
    def from_string(cls, rank: int, text: str) -> "Word":
        text = "".join(text.split())
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

    def conjugate_by(self, g: "Word") -> "Word":
        return g * self * g.inverse()

    def cyclic_reduce(self) -> "Word":
        return Word(self.rank, cyclic_reduce_letters(self.letters))

    def is_trivial(self) -> bool:
        return not self.letters

    def __repr__(self):
        return "Word(%d, %s)" % (self.rank, self.to_string() or "1")


@dataclass(frozen=True)
class CyclicWord:
    """Canonical rotation of a cyclically reduced word."""

    rank: int
    letters: Tuple[int, ...]

    def __post_init__(self):
        if self.letters != canonical_cycle(cyclic_reduce_letters(free_reduce(self.letters))):
            raise ValueError("letters are not a canonical cyclic form")

    @classmethod
    def of(cls, w: Word) -> "CyclicWord":
        return cls(w.rank, canonical_cycle(cyclic_reduce_letters(w.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def as_word(self) -> Word:
        return Word(self.rank, self.letters)


def is_conjugate(u: Word, v: Word) -> bool:
    """True iff the canonical cyclic forms of u and v agree."""
    if u.rank != v.rank:
        raise ValueError("cannot compare words of different ranks")
    return CyclicWord.of(u) == CyclicWord.of(v)


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeAutomorphism:
    """A basis-image automorphism with a stored, verified inverse."""

    rank: int
    images: Tuple[Word, ...]
    inverse_images: Tuple[Word, ...]

    def __post_init__(self):
        if len(self.images) != self.rank or len(self.inverse_images) != self.rank:
            raise ValueError("need one image per generator")
        for i in range(1, self.rank + 1):
            gen = Word(self.rank, (i,))
            forward = _substitute(self.images, gen)
            if _substitute(self.inverse_images, forward) != gen:
                raise ValueError("stored inverse does not invert the map on x%d" % i)
            backward = _substitute(self.inverse_images, gen)
            if _substitute(self.images, backward) != gen:
                raise ValueError("stored inverse is not a right inverse on x%d" % i)

    @classmethod
    def identity(cls, rank: int) -> "FreeAutomorphism":
        gens = tuple(Word(rank, (i,)) for i in range(1, rank + 1))
        return cls(rank, gens, gens)

    def apply(self, w: Word) -> Word:
        if w.rank != self.rank:
            raise ValueError("word rank %d does not match automorphism rank %d"
                             % (w.rank, self.rank))
        return _substitute(self.images, w)

    def inverse(self) -> "FreeAutomorphism":
        return FreeAutomorphism(self.rank, self.inverse_images, self.images)

    def compose(self, other: "FreeAutomorphism") -> "FreeAutomorphism":
        """The automorphism ``w -> self(other(w))``."""
        if self.rank != other.rank:
            raise ValueError("rank mismatch in composition")
        images = tuple(self.apply(img) for img in other.images)
        inverse_images = tuple(other.inverse().apply(img) for img in self.inverse_images)
        return FreeAutomorphism(self.rank, images, inverse_images)


def _substitute(images: Tuple[Word, ...], w: Word) -> Word:
    out: List[int] = []
    for l in w.letters:
        img = images[abs(l) - 1].letters
        out.extend(img if l > 0 else tuple(-x for x in reversed(img)))
    return Word.make(w.rank, out)


def nielsen(rank: int, i: int, j: int, side: str = "right") -> FreeAutomorphism:
    """The map sending xi to xi*xj (side="right") or xj*xi (side="left").

    All other generators are fixed; i and j must be distinct generator
    indices.
    """
    if i == j:
        raise ValueError("Nielsen map needs distinct generator indices")
    for idx in (i, j):
        if not (1 <= idx <= rank):
            raise ValueError("generator index %d out of range for rank %d" % (idx, rank))
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    images = []
    inverse_images = []
    for g in range(1, rank + 1):
        if g != i:
            images.append(Word(rank, (g,)))
            inverse_images.append(Word(rank, (g,)))
        elif side == "right":
            images.append(Word(rank, (i, j)))
            inverse_images.append(Word(rank, (i, -j)))
        else:
            images.append(Word(rank, (j, i)))
            inverse_images.append(Word(rank, (-j, i)))
    return FreeAutomorphism(rank, tuple(images), tuple(inverse_images))


def twist(rank: int, stable: int, z: Word, side: str = "right") -> FreeAutomorphism:
    """Identity on the corank-one factor, sending the stable letter t to zt or tz.

    ``z`` must omit the stable letter (it lives in the complementary
    factor).  An empty z gives the identity.
    """
    if not (1 <= stable <= rank):
        raise ValueError("stable index %d out of range for rank %d" % (stable, rank))
    if z.rank != rank:
        raise ValueError("twisting word must live in the ambient rank")
    if any(abs(l) == stable for l in z.letters):
        raise ValueError("twisting word must omit the stable letter x%d" % stable)
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    images = []
    inverse_images = []
    t = Word(rank, (stable,))
    for g in range(1, rank + 1):
        if g != stable:
            images.append(Word(rank, (g,)))
            inverse_images.append(Word(rank, (g,)))
        elif side == "right":
            images.append(t * z)
            inverse_images.append(t * z.inverse())
        else:
            images.append(z * t)
            inverse_images.append(z.inverse() * t)
    return FreeAutomorphism(rank, tuple(images), tuple(inverse_images))


def whitehead_automorphism(rank: int, letters: Iterable[int], multiplier: int) -> FreeAutomorphism:
    """The Whitehead map (A, a): a is fixed, letters of A are multiplied by a.

    ``multiplier`` must belong to ``letters`` and its inverse must not.  A
    generator x with x in A and x^-1 not in A maps to x*a; with x^-1 in A
    only, to a^-1*x; with both, to a^-1*x*a; otherwise it is fixed.
    """
    A = frozenset(letters)
    a = multiplier
    if a not in A or -a in A:
        raise ValueError("need multiplier in the letter set and its inverse outside")
    for l in A:
        if not (1 <= abs(l) <= rank):
            raise ValueError("letter %d out of range for rank %d" % (l, rank))
    images = tuple(
        Word(rank, _wh_image(g, A, a)) for g in range(1, rank + 1)
    )
    A_inv = (A - {a}) | {-a}
    inverse_images = tuple(
        Word(rank, _wh_image(g, A_inv, -a)) for g in range(1, rank + 1)
    )
    return FreeAutomorphism(rank, images, inverse_images)


def _wh_image(g: int, A: frozenset, a: int) -> Tuple[int, ...]:
    if g == abs(a):
        return (g,)
    pos, neg = g in A, -g in A
    if pos and not neg:
        return (g, a)
    if neg and not pos:
        return (-a, g)
    if pos and neg:
        return (-a, g, a)
    return (g,)


# ---------------------------------------------------------------------------
# Whitehead graphs and the simplicity test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WhiteheadGraph:
    """Graph on the 2N signed letters recording adjacencies of a cyclic word.

    Each cyclically adjacent letter pair (u, v) contributes the edge
    {u, v^-1} with multiplicity.  Cyclic reduction rules out loop edges,
    and the total multiplicity equals the cyclic word length.
    """

    rank: int
    edges: Tuple[Tuple[Tuple[int, int], int], ...]

    def vertices(self) -> Tuple[int, ...]:
        out = []
        for i in range(1, self.rank + 1):
            out.extend((i, -i))
        return tuple(out)

    def multiplicity(self, u: int, v: int) -> int:
        pair = _edge_pair(u, v)
        for stored, count in self.edges:
            if stored == pair:
                return count
        return 0

    def neighbors(self, v: int) -> Tuple[int, ...]:
        out = set()
        for (a, b), _ in self.edges:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return tuple(sorted(out, key=letter_key))

    def degree(self, v: int) -> int:
        return sum(count for (a, b), count in self.edges if v in (a, b))

    def total_multiplicity(self) -> int:
        return sum(count for _, count in self.edges)


def _edge_pair(u: int, v: int) -> Tuple[int, int]:
    return tuple(sorted((u, v), key=letter_key))  # type: ignore[return-value]


def whitehead_graph(w: Word) -> WhiteheadGraph:
    """Whitehead graph of a nontrivial word's cyclic reduction."""
    if w.is_trivial():
        raise ValueError("Whitehead graph of the trivial word is undefined")
    cyc = cyclic_reduce_letters(w.letters)
    counts: Dict[Tuple[int, int], int] = {}
    n = len(cyc)
    for k in range(n):
        u, v = cyc[k], cyc[(k + 1) % n]
        pair = _edge_pair(u, -v)
        counts[pair] = counts.get(pair, 0) + 1
    edges = tuple(sorted(counts.items(), key=lambda item: (letter_key(item[0][0]), letter_key(item[0][1]))))
    return WhiteheadGraph(rank=w.rank, edges=edges)


def connected_no_cutvertex(g: WhiteheadGraph) -> bool:
    """Connectivity and absence of cut vertices, on the full 2N-vertex set.

    Letters that do not occur in the word are isolated vertices, so a word
    omitting a generator always fails the connectivity half.  This matches
    the graph's use as a nonsimplicity certificate.
    """
    verts = set(g.vertices())
    adj: Dict[int, set] = {v: set() for v in verts}
    for (a, b), _ in g.edges:
        adj[a].add(b)
        adj[b].add(a)

    def connected(subset: set) -> bool:
        if not subset:
            return True
        start = next(iter(subset))
        seen = {start}
        stack = [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt in subset and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(subset)

    if not connected(verts):
        return False
    for v in verts:
        if not connected(verts - {v}):
            return False
    return True


@lru_cache(maxsize=None)
def _wh_moves(rank: int) -> Tuple[Tuple[int, int], ...]:
    """Every nonidentity Whitehead move (A, a) as (mask of A, bit of a).

    Bit b of a mask stands for the letter with vertex index b (see _bit).
    Moves are sorted by their encoding, (bit of a, sorted bits of A - {a}),
    which orders them for deterministic tie-breaking.
    """
    moves = []
    for a in range(2 * rank):
        others = [b for b in range(2 * rank) if b // 2 != a // 2]
        for size in range(1, len(others) + 1):
            for combo in itertools.combinations(others, size):
                moves.append(((a, combo), sum(1 << b for b in combo) | 1 << a))
    moves.sort()
    return tuple((mask, a) for (a, _), mask in moves)


def _cut_capacities(mult: List[List[int]]) -> List[int]:
    """cap[A] for every vertex mask A: the multiplicity of edges leaving A.

    Adding a vertex v above every vertex of S gives
    cap(S + v) = cap(S) + deg(v) - 2 * mult(v, S); ``into`` holds
    mult(v, S) for every S below v.
    """
    cap = [0]
    for v, row in enumerate(mult):
        into = [0]
        for u in range(v):
            m = row[u]
            into += [x + m for x in into]
        deg = sum(row)
        cap += [c + deg - 2 * x for c, x in zip(cap, into)]
    return cap


def _cyclic_canon(letters: Sequence[int]) -> Tuple[int, ...]:
    return canonical_cycle(cyclic_reduce_letters(letters))


def whitehead_minimize(w: Word) -> CyclicWord:
    """Greedy cyclic-length minimization under Whitehead moves.

    At each step every move (A, a) is scored from the Whitehead graph of
    the current word: the change in cyclic length is cap(A, A') - deg(a)
    (Higgins-Lyndon).  Among the moves achieving the largest strict
    decrease, the lexicographically least encoding wins, and only that move
    rewrites the word.  Cyclic length strictly decreases, so the loop halts.
    """
    if w.is_trivial():
        raise ValueError("cannot minimize the trivial word")
    rank = w.rank
    moves = _wh_moves(rank)
    current = _cyclic_canon(w.letters)
    while True:
        mult = [[0] * (2 * rank) for _ in range(2 * rank)]
        for u, v in zip(current[-1:] + current, current):
            i, j = _bit(u), _bit(-v)  # the edge {u, v^-1}
            mult[i][j] += 1
            mult[j][i] += 1
        cap = _cut_capacities(mult)
        deg = [sum(row) for row in mult]
        best = min(moves, key=lambda move: cap[move[0]] - deg[move[1]], default=None)
        if best is None or cap[best[0]] - deg[best[1]] >= 0:
            return CyclicWord(rank, current)
        mask, a = best
        A = frozenset(_letter(b) for b in range(2 * rank) if mask >> b & 1)
        images = tuple(Word(rank, _wh_image(g, A, _letter(a))) for g in range(1, rank + 1))
        current = _cyclic_canon(_substitute(images, Word(rank, current)).letters)


def is_simple(w: Word) -> bool:
    """Whether w lies in a proper free factor.

    Minimizes the cyclic length greedily, then applies the Whitehead-graph
    criterion at the minimum: the word is simple iff its graph is
    disconnected or has a cut vertex.
    """
    if w.is_trivial():
        raise ValueError("simplicity of the trivial word is undefined")
    minimized = whitehead_minimize(w)
    graph = whitehead_graph(minimized.as_word())
    return not connected_no_cutvertex(graph)


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


def enumerate_factor_product(a_rank: int, w: Word, max_len: int) -> List[Word]:
    """All nontrivial elements of A * <t w t^-1> of reduced length <= max_len.

    A is the free factor on the first ``a_rank`` generators of the ambient
    rank ``a_rank + 1`` group, and t is the stable letter.  Elements are
    alternating products of nontrivial A-syllables and nonzero powers of
    t*w*t^-1; products of that shape reduce without cross-syllable
    cancellation, so lengths add.
    """
    _check_factor_word(a_rank, w)
    ambient = a_rank + 1
    t = ambient
    base = Word.make(ambient, w.letters)

    # Nonzero powers of t w t^-1 that fit the budget, as reduced letter runs.
    u_powers: List[Tuple[int, ...]] = []
    acc = Word.identity(ambient)
    while True:
        acc = acc * base
        run = free_reduce((t,) + acc.letters + (-t,))
        if len(run) > max_len:
            break
        u_powers.append(run)
        u_powers.append(tuple(-x for x in reversed(run)))
    u_powers.sort(key=lambda run: (len(run), [letter_key(l) for l in run]))

    a_words: Dict[int, List[Tuple[int, ...]]] = {}
    frontier: List[Tuple[int, ...]] = [()]
    a_letters = sorted(
        (l for i in range(1, a_rank + 1) for l in (i, -i)), key=letter_key
    )
    for length in range(1, max_len + 1):
        nxt = []
        for word in frontier:
            for l in a_letters:
                if word and word[-1] == -l:
                    continue
                nxt.append(word + (l,))
        a_words[length] = nxt
        frontier = nxt

    results = set()

    def extend(letters: Tuple[int, ...], budget: int, last: Optional[str]) -> None:
        if letters:
            results.add(letters)
        if last != "u":
            for run in u_powers:
                if len(run) <= budget:
                    extend(letters + run, budget - len(run), "u")
        if last != "a":
            for length in range(1, budget + 1):
                for syllable in a_words[length]:
                    extend(letters + syllable, budget - length, "a")

    extend((), max_len, None)

    out = [Word(ambient, letters) for letters in results]
    out.sort(key=lambda v: (len(v.letters), [letter_key(l) for l in v.letters]))
    return out


def conjugate_into_factor(g: Word, a_rank: int) -> bool:
    """True iff g is conjugate into the factor on the first a_rank generators.

    Valid exactly for this coordinate factor: the cyclic reduction must
    omit every generator beyond the first a_rank.
    """
    if a_rank >= g.rank:
        raise ValueError("ambient rank must exceed the factor rank")
    cyc = cyclic_reduce_letters(g.letters)
    return all(abs(l) <= a_rank for l in cyc)
