"""Brute-force Whitehead oracles, independent of the library's implementation.

A word is declared simple when some product of at most ``max_moves``
Whitehead automorphisms sends it to a word whose cyclic reduction omits a
generator.  The search is a breadth-first scan over canonical cyclic forms
with its own letter maps and reduction code, so it shares no logic with
the minimize-then-cut-vertex path it is used to check.

``side_twist_images`` is the side-twist image rule written out: each
generator xj goes to z^[xj+ in S] xj z^-[xj- in S], freely reduced, for a
direction mask S (xj+ at bit 2j-2, xj- at bit 2j-1).

``reference_minimize`` is the rewrite-every-move greedy minimizer: it
applies every Whitehead move to the word at every step and keeps the first
move, in encoding order, with the largest strict decrease.

``reference_descend`` is the library's greedy descent step for step, with
a plainer step kernel: multiplicities from ``_bit`` per letter pair, every
cut-table entry built by a comprehension, and the winning mask found by
``list(...).index``.  It shares the move table and the rewrite with the
library, so a test comparing the two checks that every step scores and
picks the same move.  It returns every step's letters and rows.

``ReferenceWhiteheadGraph`` is the Whitehead graph as a sorted tuple of
letter-pair edges, built from a dict of pair counts, and
``reference_connected_no_cutvertex`` walks it with set BFS.

``reference_word_error`` and ``reference_inverse_error`` are the letter
loops of ``Word`` validation and the generator-by-generator stored-inverse
check of ``FreeAutomorphism``, substituting by concatenate-then-reduce.

``factor_product_closure`` is the factor product A * <t w t^-1> as the
closure of {A-letters, u, u^-1}, u = t w t^-1, under right multiplication
with free reduction, capped at a length.  ``reference_whitehead_factor`` is
the other kind of reference: the whitehead-factor verifier's loop on the
library's ``Word`` objects, one ``Word`` per element of that closure in
this module's key order.  It decides the two alternatives with this
module's own cyclic reduction and canonical rotation, and calls the
library's ``is_simple`` only on the rest.  A test requires the verifier's
report to equal it.
"""

import itertools

from freesplit import freegroup
from freesplit.verify import VerificationReport


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


def move_table(rank, cut, a):
    """The Whitehead substitution (A, a) as a letter-to-run table."""
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
    return table


def letter_moves(rank):
    """Every nonidentity Whitehead substitution as a letter-to-run table, in encoding order."""
    return [move_table(rank, cut, a) for cut, a in whitehead_moves(rank)]


def side_twist_images(rank, side, z):
    """The basis images of the side twist of ``side`` by the letters ``z``."""
    z = tuple(z)
    z_inv = tuple(-x for x in reversed(z))
    return tuple(
        _reduce((z if side >> (2 * j - 2) & 1 else ()) + (j,)
                + (z_inv if side >> (2 * j - 1) & 1 else ()))
        for j in range(1, rank + 1)
    )


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


def _reference_multiplicities(rank, cyc):
    mult = [[0] * (2 * rank) for _ in range(2 * rank)]
    for u, v in zip(cyc[-1:] + cyc, cyc):
        i, j = freegroup._bit(u), freegroup._bit(-v)  # the edge {u, v^-1}
        mult[i][j] += 1
        mult[j][i] += 1
    return mult


def _reference_cut_capacities(mult):
    cap = [0]
    for v, row in enumerate(mult[:-1]):
        into = [0]
        for u in range(v):
            m = row[u]
            into += [x + m for x in into]
        deg = sum(row)
        cap += [c + deg - 2 * x for c, x in zip(cap, into)]
    return cap


def reference_descend(rank, letters):
    """The descent loop step for step, as the list of its steps: each step's
    cyclically reduced letters, as the rewrite leaves them, and the rows of
    their Whitehead graph.  The last step's letters are minimal."""
    groups = freegroup._wh_moves(rank)
    full = (1 << 2 * rank) - 1
    plus = full // 3
    current = freegroup.cyclic_reduce_letters(letters)
    steps = []
    while True:
        mult = _reference_multiplicities(rank, current)
        steps.append((current, mult))
        cap = _reference_cut_capacities(mult)
        deg = [sum(row) for row in mult]
        best, winner = 0, None
        for a, masks in enumerate(groups):
            if masks and -deg[a] < best:
                score = min(map(cap.__getitem__, masks)) - deg[a]
                if score < best:
                    best, winner = score, a
        if winner is None:
            return steps
        masks = groups[winner]
        mask = masks[list(map(cap.__getitem__, masks)).index(best + deg[winner])]
        if not mask >> winner & 1:
            mask ^= full
        side = ((mask & plus) << 1 | mask >> 1 & plus) & ~(3 << (winner & ~1))
        table = freegroup._letter_table(
            freegroup._side_runs(rank, side, (-freegroup._letter(winner),)))
        current = freegroup.cyclic_reduce_letters(freegroup._substitute_letters(table, current))


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


def all_reduced(rank, max_len):
    """Every nontrivial freely reduced word of length at most max_len."""
    letters = [l for i in range(1, rank + 1) for l in (i, -i)]
    out = []
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (l,) for w in frontier for l in letters if not w or w[-1] != -l]
        out.extend(frontier)
    return out


def _edge_pair(u, v):
    return tuple(sorted((u, v), key=_key))


class ReferenceWhiteheadGraph:
    """The Whitehead graph of a reduced word's cyclic reduction, as sorted edges.

    Each cyclically adjacent pair (u, v) counts toward the edge {u, v^-1};
    edges are ((u, v), multiplicity) with u before v in key order, sorted.
    """

    def __init__(self, rank, letters):
        self.rank = rank
        cyc = _cyclic(tuple(letters))
        counts = {}
        for k in range(len(cyc)):
            pair = _edge_pair(cyc[k], -cyc[(k + 1) % len(cyc)])
            counts[pair] = counts.get(pair, 0) + 1
        self.edges = tuple(sorted(counts.items(), key=lambda item: (_key(item[0][0]), _key(item[0][1]))))

    def vertices(self):
        return tuple(l for i in range(1, self.rank + 1) for l in (i, -i))

    def multiplicity(self, u, v):
        return dict(self.edges).get(_edge_pair(u, v), 0)

    def neighbors(self, v):
        out = {a if b == v else b for (a, b), _ in self.edges if v in (a, b)}
        return tuple(sorted(out, key=_key))

    def degree(self, v):
        return sum(count for (a, b), count in self.edges if v in (a, b))

    def total_multiplicity(self):
        return sum(count for _, count in self.edges)


def reference_connected_no_cutvertex(g):
    """Connected on all 2N letters, and still connected after removing any one."""
    verts = set(g.vertices())
    adj = {v: set() for v in verts}
    for (a, b), _ in g.edges:
        adj[a].add(b)
        adj[b].add(a)

    def connected(subset):
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
        return seen == subset

    return connected(verts) and all(connected(verts - {v}) for v in verts)


def reference_word_error(rank, letters):
    """Why ``Word(rank, letters)`` must be refused, or None: one letter at a time."""
    if rank < 1:
        return "word rank must be >= 1"
    for l in letters:
        if not (1 <= abs(l) <= rank):
            return "letter %d out of range for rank %d" % (l, rank)
    for a, b in zip(letters, letters[1:]):
        if a == -b:
            return "word is not freely reduced"
    return None


def reference_substitute(images, letters):
    """Concatenate the image runs of ``letters`` (Xi runs the inverse of xi's), then reduce."""
    run = []
    for l in letters:
        img = images[abs(l) - 1]
        run.extend(img if l > 0 else [-x for x in reversed(img)])
    return _reduce(run)


def reference_inverse_error(rank, images, inverse_images):
    """Why the stored inverse must be refused, or None.

    Each generator is sent forward and then back, and back and then
    forward, and must return to itself.
    """
    forward = [w.letters for w in images]
    backward = [w.letters for w in inverse_images]
    for i in range(1, rank + 1):
        if reference_substitute(backward, reference_substitute(forward, (i,))) != (i,):
            return "stored inverse does not invert the map on x%d" % i
        if reference_substitute(forward, reference_substitute(backward, (i,))) != (i,):
            return "stored inverse is not a right inverse on x%d" % i
    return None


def factor_product_closure(a_rank, w, max_len):
    """Every nontrivial element of A * <t w t^-1> of reduced length <= max_len.

    Closes {A-letters, u, u^-1} under right multiplication with free
    reduction, keeping products of length <= max_len.  Each element is
    reached through products no longer than itself (its prefixes of letters
    and powers of u, and u^(e-1) before u^e), so the cap loses nothing.
    """
    t = a_rank + 1
    u = _reduce((t,) + tuple(w.letters) + (-t,))
    steps = [(l,) for i in range(1, a_rank + 1) for l in (i, -i)]
    steps += [u, tuple(-x for x in reversed(u))]
    seen = set()
    frontier = [()]
    while frontier:
        nxt = []
        for letters in frontier:
            for step in steps:
                product = _reduce(letters + step)
                if product and len(product) <= max_len and product not in seen:
                    seen.add(product)
                    nxt.append(product)
        frontier = nxt
    return seen


def reference_whitehead_factor(a_rank, w, max_len, mutated=False):
    """The whitehead-factor report built one ``Word`` per element."""
    if freegroup.is_simple(w):
        raise ValueError("hypothesis violated: w is simple in the factor")
    u_cycle = _canon((a_rank + 1,) + tuple(w.letters) + (-a_rank - 1,))
    factor_rank = a_rank - 1 if mutated else a_rank
    elements = [
        freegroup.Word(a_rank + 1, g)
        for g in sorted(factor_product_closure(a_rank, w, max_len),
                        key=lambda g: (len(g), [_key(l) for l in g]))
    ]
    failures = tuple(
        "simple element outside both alternatives: %s" % g.to_string()
        for g in elements
        if not (all(abs(l) <= factor_rank for l in _cyclic(g.letters))
                or _canon(g.letters) == u_cycle
                or not freegroup.is_simple(g))
    )
    return VerificationReport(
        lemma="whitehead-factor",
        rank=a_rank + 1,
        cases_checked=len(elements),
        failures=failures,
        details=(("elements", len(elements)), ("max_len", max_len)),
    )
