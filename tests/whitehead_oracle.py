"""Brute-force Whitehead oracles, independent of the library's implementation.

A word is declared simple when some product of at most ``max_moves``
Whitehead automorphisms sends it to a word whose cyclic reduction omits a
generator.  The search is a breadth-first scan over canonical cyclic forms
with its own letter maps and reduction code, so it shares no logic with
the minimize-then-cut-vertex path it is used to check.

``reference_minimize`` is the rewrite-every-move greedy minimizer: it
applies every Whitehead move to the word at every step and keeps the first
move, in encoding order, with the largest strict decrease.
"""

import itertools


def _key(letter):
    return (abs(letter), 0 if letter > 0 else 1)


def _reduce(seq):
    out = []
    for l in seq:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def _cyclic(seq):
    i, j = 0, len(seq)
    while j - i >= 2 and seq[i] == -seq[j - 1]:
        i += 1
        j -= 1
    return tuple(seq[i:j])


def _canon(seq):
    seq = _cyclic(_reduce(seq))
    if not seq:
        return ()
    return min(
        (seq[k:] + seq[:k] for k in range(len(seq))),
        key=lambda rot: [_key(l) for l in rot],
    )


def whitehead_moves(rank):
    """Every nonidentity Whitehead move (A, a) as (frozenset A, a), in encoding order.

    The encoding of a move is (key of a, sorted keys of A - {a}).
    """
    letters = sorted((l for i in range(1, rank + 1) for l in (i, -i)), key=_key)
    moves = []
    for a in letters:
        others = [l for l in letters if abs(l) != abs(a)]
        for size in range(1, len(others) + 1):
            for combo in itertools.combinations(others, size):
                encoding = (_key(a), tuple(sorted(_key(l) for l in combo)))
                moves.append((encoding, frozenset(combo) | {a}, a))
    moves.sort(key=lambda move: move[0])
    return [(cut, a) for _, cut, a in moves]


def letter_moves(rank):
    """Every nonidentity Whitehead substitution as a letter-to-run table, in encoding order."""
    moves = []
    for cut, a in whitehead_moves(rank):
        table = {}
        for g in range(1, rank + 1):
            if g == abs(a):
                img = (g,)
            else:
                pos, neg = g in cut, -g in cut
                if pos and not neg:
                    img = (g, a)
                elif neg and not pos:
                    img = (-a, g)
                elif pos and neg:
                    img = (-a, g, a)
                else:
                    img = (g,)
            table[g] = img
            table[-g] = tuple(-x for x in reversed(img))
        moves.append(table)
    return moves


def reference_minimize(letters, rank, moves=None):
    """Greedy minimization that rewrites the word under every move at every step.

    Returns the canonical cyclic form reached.  Among the moves with the
    largest strict decrease in cyclic length, the first in encoding order
    wins.
    """
    if moves is None:
        moves = letter_moves(rank)
    current = _canon(tuple(letters))
    if not current:
        raise ValueError("cannot minimize the trivial word")
    while True:
        best = current
        for table in moves:
            image = _canon([x for l in current for x in table[l]])
            if len(image) < len(best):
                best = image
        if best is current:
            return current
        current = best


def _omits_generator(cyc, rank):
    return len({abs(l) for l in cyc}) < rank


def oracle_is_simple(letters, rank, moves=None, max_moves=6):
    """BFS over products of at most max_moves Whitehead automorphisms."""
    if moves is None:
        moves = letter_moves(rank)
    start = _canon(tuple(letters))
    if not start:
        raise ValueError("oracle needs a nontrivial word")
    if _omits_generator(start, rank):
        return True
    seen = {start}
    frontier = [start]
    for _ in range(max_moves):
        bigger = []
        for word in frontier:
            for table in moves:
                image = _canon([x for l in word for x in table[l]])
                if image in seen:
                    continue
                if _omits_generator(image, rank):
                    return True
                seen.add(image)
                bigger.append(image)
        if not bigger:
            return False
        frontier = bigger
    return False


def all_cyclically_reduced(rank, max_len):
    """Every nontrivial cyclically reduced word of length at most max_len."""
    letters = [l for i in range(1, rank + 1) for l in (i, -i)]
    out = []

    def grow(prefix, budget):
        if prefix and prefix[0] != -prefix[-1] or len(prefix) == 1:
            if prefix:
                out.append(tuple(prefix))
        if budget == 0:
            return
        for l in letters:
            if prefix and prefix[-1] == -l:
                continue
            prefix.append(l)
            grow(prefix, budget - 1)
            prefix.pop()

    grow([], max_len)
    return out
