"""Side-mask partition calculus for splittings relative to a fixed rose.

The vertex of an N-petal rose carries 2N half-edge germs, called
*directions* and written ``x1+, x1-, ..., xN+, xN-``.  A splitting disjoint
from the rose is described by a two-sided partition of the direction set.
A side is stored as an int over 2N bits, ``xi+`` at bit 2i-2 and ``xi-`` at
bit 2i-1, so bit order is the sort order x1+ < x1- < x2+ < ... and every
pairwise predicate (thick, ideal, crossing, rose compatible, cagey) is a
handful of bit operations.  ``Partition(rank, mask)`` is the one
constructor; text is read straight to bits by :meth:`Partition.parse` and
written from them by :func:`side_names`.

A splitting class is its canonical partition: the two petal partitions
{xi+} and {xi-} name one splitting, whose class is the partition of
{xi+}; a thick partition is its own class.

All values are immutable and hashable; every operation is a pure function,
so exhaustive scans can be evaluated concurrently without shared state.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .values import Value

#: Inclusive bounds on a partition's rank.  The universe holds
#: 2**(2N-1) - 1 bipartitions, which stops being desk scale past 7.
MIN_RANK = 3
MAX_RANK = 7


def direction_bit(index: int, sign: int) -> int:
    """The mask bit of ``x_index^sign``: bit 2*index-2 for +, 2*index-1 for -."""
    return 1 << (2 * index - 2 + (sign < 0))


def full_mask(rank: int) -> int:
    """The mask holding all 2N directions."""
    return (1 << 2 * rank) - 1


@lru_cache(maxsize=1 << 10)
def bit_positions(mask: int) -> Tuple[int, ...]:
    """The set bits of a mask in increasing order; sorting by it sorts sides
    in the direction order x1+ < x1- < x2+ < ...

    Cached because sorting and labelling ask for the same few masks over and
    over; 2**10 entries hold every mask up to rank 5 and bound the memory.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _separates(side: int, rank: int) -> bool:
    """True iff ``side`` holds exactly one of xi+, xi- for some i.

    ``full_mask(rank) // 3`` has the plus bits 0, 2, 4, ... set.
    """
    return bool((side ^ (side >> 1)) & full_mask(rank) // 3)


@lru_cache(maxsize=None)
def _bit_name(bit: int) -> str:
    """``x<i><sign>`` for one bit; the cache holds one entry per bit index."""
    return "x%d%s" % (bit // 2 + 1, "-" if bit & 1 else "+")


def side_names(mask: int) -> Tuple[str, ...]:
    """The directions of a side mask as text, in direction order."""
    return tuple(map(_bit_name, bit_positions(mask)))


def _direction_bit_index(text: str) -> int:
    """The bit index of one ``x<i><sign>`` token: 2i-2 for +, 2i-1 for -."""
    text = text.strip()
    digits = text[1:-1]  # an index is ASCII digits only, [0-9]+
    if not (text[:1] == "x" and text[-1:] in ("+", "-")
            and digits.isascii() and digits.isdigit()):
        raise ValueError("bad direction %r (expected e.g. 'x2+')" % (text,))
    index = int(digits)
    if index < 1:
        raise ValueError("direction index must be >= 1, got %r" % (text,))
    return 2 * index - 2 + (text[-1] == "-")


class Partition(Value):
    """A two-block split of the 2N directions, stored as ``(rank, mask)``.

    ``mask`` is either side.  The stored mask is the canonical side1, the
    side *not* containing ``x1+``: a mask holding bit 0 is flipped on
    construction, so equality and hashing see the partition as an unordered
    pair of sides.
    """

    __slots__ = _fields = ("rank", "mask")

    def __init__(self, rank: int, mask: int):
        _check_rank(rank)
        full = full_mask(rank)
        if not 0 <= mask <= full:
            raise ValueError("partition sides must cover all %d directions" % (2 * rank))
        if mask & 1:
            mask ^= full
        if not mask:
            raise ValueError("both sides of a partition must be nonempty")
        # Stored directly: a hot constructor skips the loop in Value.__init__.
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def parse(cls, rank: int, text: str) -> "Partition":
        """Parse a comma-separated list of directions as one side, e.g. ``"x2+,x3-"``."""
        items = [piece for piece in text.split(",") if piece.strip()]
        if not items:
            raise ValueError("empty partition side spec")
        bits = [_direction_bit_index(piece) for piece in items]
        _check_rank(rank)
        mask = 0
        for bit in bits:
            if bit >= 2 * rank:
                # Named past the cache, which holds one entry per valid bit.
                name = _bit_name.__wrapped__(bit)
                raise ValueError("direction %s exceeds rank %d" % (name, rank))
            mask |= 1 << bit
        return cls(rank, mask)

    def encode(self) -> str:
        return ",".join(side_names(self.mask))

    def to_json(self) -> dict:
        return {"rank": self.rank, "side1": list(side_names(self.mask))}

    def __repr__(self):
        return "Partition(%d, {%s})" % (self.rank, self.encode())


def _check_rank(rank: int) -> None:
    if not MIN_RANK <= rank <= MAX_RANK:
        raise ValueError("rank %d outside the partition guard [%d, %d]"
                         % (rank, MIN_RANK, MAX_RANK))


def _check_pair(p: Partition, q: Partition) -> None:
    if p.rank != q.rank:
        raise ValueError("partitions have different ranks: %d vs %d" % (p.rank, q.rank))


def is_thick(p: Partition) -> bool:
    """True iff both sides hold at least two directions (a genuine blow-up edge)."""
    return 2 <= p.mask.bit_count() <= 2 * p.rank - 2


def is_ideal(p: Partition) -> bool:
    """True iff some pair {xi+, xi-} is split across the two sides.

    Such partitions are exactly the ones determining nonseparating
    splittings; the singleton partitions are the (trivial) petal edges.
    """
    return _separates(p.mask, p.rank)


def corner_masks(p: Partition, q: Partition) -> Tuple[int, int, int, int]:
    """The corner masks ``k_ij = side_i(p) & side_j(q)``: k11, k12, k21, k22.

    The four masks partition the full mask; all four are nonzero exactly when
    the pair crosses.
    """
    _check_pair(p, q)
    a, b = p.mask, q.mask
    return (a & b, a & ~b, b & ~a, full_mask(p.rank) ^ (a | b))


def crosses(p: Partition, q: Partition) -> bool:
    """True iff all four corner sets are nonempty (the spheres meet in a circle).

    Both side2s hold ``x1+``, so k22 is never empty and three ANDs decide.
    """
    _check_pair(p, q)
    a, b = p.mask, q.mask
    return bool(a & b and a & ~b and b & ~a)


def compatible(p: Partition, q: Partition) -> bool:
    """Negation of :func:`crosses`: some corner is empty, so the pair refines."""
    return not crosses(p, q)


def _check_relation(p: Partition, q: Partition, relation: str) -> None:
    """Refuse a pair outside a relation's domain: ideal edges of distinct splittings."""
    _check_pair(p, q)
    for name, r in (("p", p), ("q", q)):
        if not is_ideal(r):
            raise ValueError("%s must be ideal (it separates no pair): {%s}" % (name, r.encode()))
    if class_mask(p.rank, p.mask) == class_mask(q.rank, q.mask):
        raise ValueError("%s is defined for distinct splittings" % relation)


def rose_compatible(p: Partition, q: Partition) -> bool:
    """True iff the common refinement of two ideal edges is a two-petal rose.

    The pair must be compatible, and the union of the aligned disjoint
    sides must separate some pair {xi+, xi-}; otherwise the refinement is a
    two-edge loop (circle splitting).  Distinct compatible partitions have
    exactly one alignment, read off the empty corner: disjoint side1s, or
    one side1 inside the other.  The verdict depends only on the classes,
    and one splitting named twice, by either petal partition, is refused.
    """
    _check_relation(p, q, "rose compatibility")
    return rose_compatible_masks(p.mask, q.mask, p.rank)


def rose_compatible_masks(a: int, b: int, rank: int) -> bool:
    """:func:`rose_compatible` on the side masks of two distinct ideal edges.

    False for a crossing pair.  Nothing is checked: callers pass masks
    known to be distinct and ideal.  A petal's partition crosses nothing,
    so on the masks of two distinct classes this is
    :func:`compatible` and :func:`rose_compatible`.
    """
    full = full_mask(rank)
    if not a & b:
        union = a | b
    elif not a & ~b:
        union = a | (full ^ b)
    elif not b & ~a:
        union = (full ^ a) | b
    else:
        return False
    return _separates(union, rank)


def circle_compatible(p: Partition, q: Partition) -> bool:
    """Compatible ideal edges of distinct splittings whose refinement is a two-edge loop."""
    _check_relation(p, q, "circle compatibility")
    return compatible(p, q) and not rose_compatible_masks(p.mask, q.mask, p.rank)


def is_cagey(p: Partition, q: Partition) -> bool:
    """Combinatorial test for a crossing pair whose boundary splitting is a cage.

    Requires: the pair crosses, each corner set determines an ideal edge,
    and the union of every two distinct corner sets separates some pair.
    With side1 masks ``a`` of p and ``b`` of q, the six unions are the two
    sides of p, the two sides of q, ``a ^ b`` and its complement.  Separation
    is invariant under complement and p, q are ideal, so ``a ^ b`` alone
    decides the unions.  One splitting named twice is refused.
    """
    _check_relation(p, q, "caginess")
    corners = corner_masks(p, q)
    rank = p.rank
    return (
        all(corners)
        and all(_separates(c, rank) for c in corners)
        and _separates(p.mask ^ q.mask, rank)
    )


def petal_index(p: Partition) -> Optional[int]:
    """The petal a partition names, or None for a thick partition.

    A singleton side1 is one bit; a singleton side2 is ``{x1+}``.
    """
    size = p.mask.bit_count()
    if size == 1:
        return (p.mask.bit_length() + 1) // 2
    if size == 2 * p.rank - 1:
        return 1
    return None


def petal_class(rank: int, index: int) -> Partition:
    """The canonical partition of petal ``index``: side {x<index>+}."""
    if not (1 <= index <= rank):
        raise ValueError("petal index %d out of range for rank %d" % (index, rank))
    return Partition(rank, direction_bit(index, 1))


def class_mask(rank: int, mask: int) -> int:
    """The mask of the class of ``Partition(rank, mask)``; nothing is checked.

    A mask holding ``x1+`` is flipped to the canonical side, and {xi-} is
    mapped to petal i's canonical mask: {xi+}, or its complement for i = 1.
    """
    full = full_mask(rank)
    if mask & 1:
        mask ^= full
    if mask.bit_count() == 1 and not mask & full // 3:
        mask = mask >> 1 if mask > 2 else full ^ 1
    return mask


def class_of(p: Partition) -> Partition:
    """The splitting class of a partition: its canonical partition.

    The two petal partitions {xi+} and {xi-} name one splitting, whose
    class is :func:`petal_class`; a thick partition is its own class.
    """
    mask = class_mask(p.rank, p.mask)
    return p if mask == p.mask else Partition(p.rank, mask)


def encode_class(c: Partition) -> str:
    """``"petal:i"`` for a petal, the side text for a thick edge."""
    index = petal_index(c)
    return c.encode() if index is None else "petal:%d" % index


def class_key(c: Partition) -> Tuple:
    """Sort key of classes: petals by index, then thick edges in direction order."""
    index = petal_index(c)
    return (1, bit_positions(c.mask)) if index is None else (0, index)


def parse_class(rank: int, text: str) -> Partition:
    """Parse ``"petal:3"`` or a side spec such as ``"x1-,x2+"``."""
    text = text.strip()
    if text.startswith("petal:"):
        index = text[len("petal:"):]
        if not (index.isascii() and index.isdigit()):
            raise ValueError("bad class spec %r (expected 'petal:<i>' or a side spec "
                             "such as 'x1-,x2+')" % (text,))
        return petal_class(rank, int(index))
    return class_of(Partition.parse(rank, text))


#: The relations under the names the benchmark's census calls them by.
classes_compatible = compatible
classes_rose_compatible = rose_compatible
classes_cagey = is_cagey


def ideal_masks(rank: int, thick_only: bool = False) -> list:
    """The canonical side masks of the ideal partitions at ``rank``, in numeric order.

    The base direction ``x1+`` is pinned to side2, so candidate side1 masks
    are the nonzero even ints below ``2**(2N)``; a thick side holds 2 to
    2N-2 directions.
    """
    _check_rank(rank)
    low = 2 if thick_only else 1
    plus = full_mask(rank) // 3  # _separates, with the plus bits built once
    return [mask for mask in range(2, full_mask(rank), 2)
            if low <= mask.bit_count() <= 2 * rank - low and (mask ^ mask >> 1) & plus]


def enumerate_ideal_edges(rank: int, thick_only: bool = False) -> list:
    """The partitions of :func:`ideal_masks`, sorted in direction order."""
    found = [Partition(rank, mask) for mask in ideal_masks(rank, thick_only)]
    # Read past the bounded bit_positions cache: from rank 6 on every lookup
    # would miss and evict the small masks labels reuse.
    found.sort(key=lambda p: bit_positions.__wrapped__(p.mask))
    return found


def enumerate_splitting_classes(rank: int) -> list:
    """All splitting classes of the universe in :func:`class_key` order: the N
    petals, then the thick ideal edges."""
    classes = [petal_class(rank, i) for i in range(1, rank + 1)]
    classes.extend(enumerate_ideal_edges(rank, thick_only=True))
    return classes


@lru_cache(maxsize=None)
def signed_permutation_tables(rank: int) -> Tuple[Tuple[int, ...], ...]:
    """The bit images of every 2N-bit mask under two generators of B_N.

    B_N, the 2**N * N! signed permutations of the petals, fixes the rose.
    The generators swap petals 1 and 2, and cycle the petals, i to i+1, with
    petal N to petal 1 sign flipped (xN+ to x1-).  Conjugating the swap by
    powers of the cycle gives every adjacent transposition, so all of S_N;
    the cycle times the unsigned inverse cycle flips one petal, and S_N
    carries that flip to every petal.  Entry ``m`` of a table is the image
    of mask ``m`` bit for bit; it may hold ``x1+``, so ``Partition(rank,
    image)`` is the image partition.  Each table is filled low bit first,
    one step per mask, on first use of the rank.
    """
    _check_rank(rank)
    width = 2 * rank
    bit_images = (
        (2, 3, 0, 1) + tuple(range(4, width)),
        tuple(range(2, width)) + (1, 0),
    )
    tables = []
    for images in bit_images:
        table = [0] * (1 << width)
        for mask in range(1, 1 << width):
            low = mask & -mask
            table[mask] = table[mask ^ low] | 1 << images[low.bit_length() - 1]
        tables.append(tuple(table))
    return tuple(tables)


def _check_signed_permutation(rank: int, index: int, table: Sequence[int]) -> None:
    """Raise RuntimeError unless ``table`` extends a permutation of the 2N
    bits bit by bit that carries every petal pair {xi+, xi-} onto a petal pair."""
    width = 2 * rank
    if len(table) == 1 << width:
        images = [table[1 << b] for b in range(width)]
        pairs = {images[b] | images[b + 1] for b in range(0, width, 2)}
        if (all(m.bit_count() == 1 for m in images)
                and pairs == {3 << b for b in range(0, width, 2)}
                and table[0] == 0
                and all(table[m] == table[m & -m] | table[m & (m - 1)]
                        for m in range(1, len(table)))):
            return
    raise RuntimeError("signed permutation table %d is no signed permutation of the petals: "
                       "it may map corner sets off the crossing thick pairs" % index)


def crossing_pair_orbits(rank: int, masks: Sequence[int]) -> List[List[Tuple[int, int]]]:
    """The crossing pairs (i, j), i < j, of the thick side ``masks``, grouped
    by the B_N orbit of their corner sets: groups in first-met pair order,
    pairs ascending within a group.

    A pair's corner set, the set of its four corner masks, fixes its
    boundary family, so it fixes the boundary type, an isomorphism invariant
    of the family's blow-up.  It fixes caginess too: a pair is cagey iff
    every corner and every union of two corners separates some petal pair.
    A signed permutation of the petals keeps both, so both are constant on a
    group.  Each table of :func:`signed_permutation_tables` is checked to be
    one first, so no image falls off the crossing thick pairs and no group
    merges two boundary types.  Each new corner set is closed under the
    tables by a walk.
    """
    full = full_mask(rank)
    tables = signed_permutation_tables(rank)
    for index, table in enumerate(tables):
        _check_signed_permutation(rank, index, table)
    group_of: Dict[FrozenSet[int], List[Tuple[int, int]]] = {}
    groups = []
    for i, a in enumerate(masks):
        for j in range(i + 1, len(masks)):
            b = masks[j]
            if not (a & b and a & ~b and b & ~a):
                continue
            key = frozenset((a & b, a & ~b, b & ~a, full ^ (a | b)))
            group = group_of.get(key)
            if group is None:
                group = group_of[key] = []
                groups.append(group)
                todo = [key]
                while todo:
                    current = todo.pop()
                    for table in tables:
                        image = frozenset(map(table.__getitem__, current))
                        if image not in group_of:
                            group_of[image] = group
                            todo.append(image)
            group.append((i, j))
    return groups
