"""Side-mask partition calculus for splittings relative to a fixed rose.

The vertex of an N-petal rose carries 2N half-edge germs, called
*directions* and written ``x1+, x1-, ..., xN+, xN-``.  A splitting disjoint
from the rose is described by a two-sided partition of the direction set.
A side is stored as an int over 2N bits, ``xi+`` at bit 2i-2 and ``xi-`` at
bit 2i-1, so bit order is the sort order x1+ < x1- < x2+ < ... and every
pairwise predicate (thick, ideal, crossing, rose compatible, cagey) is a
handful of bit operations.  :class:`Direction` and frozensets of directions
appear only where sides are parsed, encoded or handed out as sets.

All values are immutable and hashable; every operation is a pure function,
so exhaustive scans can be evaluated concurrently without shared state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, NamedTuple, Tuple

#: Inclusive bounds accepted by the exhaustive enumerators.  The universe
#: holds 2**(2N-1) - 1 bipartitions, which stops being desk scale past 7.
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


def _names(mask: int) -> Tuple[str, ...]:
    return tuple(map(_bit_name, bit_positions(mask)))


class Direction(NamedTuple):
    """One half-edge germ at the rose vertex: a petal index and a sign."""

    index: int
    sign: int

    def opposite(self) -> "Direction":
        return Direction(self.index, -self.sign)

    @property
    def key(self) -> Tuple[int, int]:
        # Sort order used everywhere: x1+ < x1- < x2+ < x2- < ...
        return (self.index, 0 if self.sign > 0 else 1)

    def encode(self) -> str:
        return "x%d%s" % (self.index, "+" if self.sign > 0 else "-")

    @classmethod
    def parse(cls, text: str) -> "Direction":
        text = text.strip()
        if len(text) < 3 or text[0] != "x" or text[-1] not in "+-":
            raise ValueError("bad direction %r (expected e.g. 'x2+')" % (text,))
        try:
            index = int(text[1:-1])
        except ValueError:
            raise ValueError("bad direction %r (expected e.g. 'x2+')" % (text,)) from None
        if index < 1:
            raise ValueError("direction index must be >= 1, got %r" % (text,))
        return cls(index, 1 if text[-1] == "+" else -1)


def all_directions(rank: int) -> frozenset:
    """The full set of 2N directions at the vertex of the N-rose."""
    return frozenset(Direction(i, s) for i in range(1, rank + 1) for s in (1, -1))


def _side_mask(side: Iterable[Direction]) -> int:
    """The mask of a set of directions."""
    mask = 0
    for d in side:
        mask |= direction_bit(d.index, d.sign)
    return mask


@lru_cache(maxsize=1 << 10)
def _side_directions(mask: int) -> frozenset:
    """The set of directions of a mask.

    Cached so that reading ``side1``/``side2`` in a loop, as reference
    checks do, costs a lookup rather than building the set again.
    """
    return frozenset(Direction(b // 2 + 1, -1 if b & 1 else 1) for b in bit_positions(mask))


def encode_side(side: Iterable[Direction]) -> Tuple[str, ...]:
    return _names(_side_mask(side))


def separates_some_pair(side: frozenset, rank: int) -> bool:
    """True iff some pair {xi+, xi-} has exactly one direction in ``side``."""
    return _separates(_side_mask(side), rank)


@dataclass(frozen=True, init=False)
class Partition:
    """A two-block split of the 2N directions, stored as ``(rank, mask)``.

    ``mask`` is the canonical side1, the side *not* containing ``x1+``, so
    bit 0 is always clear; passing the sides the other way round swaps them
    on construction, so equality and hashing see the partition as an
    unordered pair of sides.  ``side1`` and ``side2`` decode on access.
    """

    rank: int
    mask: int

    def __init__(self, rank: int, side1: Iterable[Direction], side2: Iterable[Direction]):
        _check_rank(rank)
        side1 = frozenset(side1)
        side2 = frozenset(side2)
        if Direction(1, 1) in side1:
            side1, side2 = side2, side1
        if not side1 or not side2:
            raise ValueError("both sides of a partition must be nonempty")
        if side1 & side2:
            raise ValueError("partition sides must be disjoint")
        if (side1 | side2) != all_directions(rank):
            raise ValueError("partition sides must cover all %d directions" % (2 * rank))
        self._store(rank, _side_mask(side1))

    def _store(self, rank: int, mask: int) -> None:
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_mask(cls, rank: int, mask: int) -> "Partition":
        """Build the partition with the given mask as one side."""
        _check_rank(rank)
        full = full_mask(rank)
        if not 0 <= mask <= full:
            raise ValueError("partition sides must cover all %d directions" % (2 * rank))
        if mask & 1:
            mask ^= full
        if not mask:
            raise ValueError("both sides of a partition must be nonempty")
        p = cls.__new__(cls)
        p._store(rank, mask)
        return p

    @classmethod
    def of(cls, rank: int, side: Iterable[Direction]) -> "Partition":
        """Build the partition with the given set as one side."""
        side = frozenset(side)
        return cls(rank, side, all_directions(rank) - side)

    @classmethod
    def parse(cls, rank: int, text: str) -> "Partition":
        """Parse a comma-separated list of directions as one side, e.g. ``"x2+,x3-"``."""
        items = [piece for piece in text.split(",") if piece.strip()]
        if not items:
            raise ValueError("empty partition side spec")
        side = frozenset(Direction.parse(piece) for piece in items)
        for d in side:
            if d.index > rank:
                raise ValueError("direction %s exceeds rank %d" % (d.encode(), rank))
        return cls.of(rank, side)

    @property
    def side1(self) -> frozenset:
        return _side_directions(self.mask)

    @property
    def side2(self) -> frozenset:
        return _side_directions(full_mask(self.rank) ^ self.mask)

    @property
    def key(self) -> Tuple:
        return (self.rank, bit_positions(self.mask))

    def encode(self) -> str:
        return ",".join(_names(self.mask))

    def to_json(self) -> dict:
        return {"rank": self.rank, "side1": list(_names(self.mask))}

    def __repr__(self):
        return "Partition(%d, {%s})" % (self.rank, self.encode())


def _check_rank(rank: int) -> None:
    if rank < MIN_RANK:
        raise ValueError("partition rank must be >= %d, got %d" % (MIN_RANK, rank))


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
    """The corner masks ``k_ij = side_i(p) & side_j(q)``: k11, k12, k21, k22."""
    _check_pair(p, q)
    a, b = p.mask, q.mask
    return (a & b, a & ~b, b & ~a, full_mask(p.rank) ^ (a | b))


@dataclass(frozen=True)
class CornerSets:
    """The four intersections ``k_ij = side_i(p) & side_j(q)`` of a pair.

    The four sets always partition the full direction set; all four are
    nonempty exactly when the pair crosses.
    """

    k11: frozenset
    k12: frozenset
    k21: frozenset
    k22: frozenset

    def __post_init__(self):
        corners = self.as_tuple()
        for a, b in itertools.combinations(corners, 2):
            if a & b:
                raise ValueError("corner sets must be pairwise disjoint")

    def as_tuple(self) -> Tuple[frozenset, frozenset, frozenset, frozenset]:
        return (self.k11, self.k12, self.k21, self.k22)

    def to_json(self) -> dict:
        return {
            name: list(encode_side(side))
            for name, side in zip(("k11", "k12", "k21", "k22"), self.as_tuple())
        }


def corner_sets(p: Partition, q: Partition) -> CornerSets:
    """The four corner sets of the pair, under canonical orientations."""
    return CornerSets(*map(_side_directions, corner_masks(p, q)))


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


def _alignments(p: Partition, q: Partition) -> Tuple[Tuple[int, int], ...]:
    _check_pair(p, q)
    full = full_mask(p.rank)
    return tuple(
        (a, b)
        for a in (p.mask, full ^ p.mask)
        for b in (q.mask, full ^ q.mask)
        if not a & b
    )


def all_alignments(p: Partition, q: Partition) -> Tuple[Tuple[frozenset, frozenset], ...]:
    """Every ordered choice (side of p, side of q) with empty intersection.

    Used to check alignment-independence of predicates; distinct compatible
    partitions admit exactly one such choice, an equal pair admits two.
    """
    return tuple(
        (_side_directions(a), _side_directions(b)) for a, b in _alignments(p, q)
    )


def aligned_sides(p: Partition, q: Partition) -> Optional[Tuple[frozenset, frozenset]]:
    """A choice of disjoint sides for a compatible pair, or None when crossing.

    Tie-break: among valid choices, the lexicographically least pair of
    canonical side encodings.
    """
    choices = _alignments(p, q)
    if not choices:
        return None
    a, b = min(choices, key=lambda ab: (bit_positions(ab[0]), bit_positions(ab[1])))
    return _side_directions(a), _side_directions(b)


def _require_ideal(p: Partition, name: str) -> None:
    if not is_ideal(p):
        raise ValueError("%s must be ideal (it separates no pair): {%s}" % (name, p.encode()))


def rose_compatible(p: Partition, q: Partition) -> bool:
    """True iff the common refinement of two distinct ideal edges is a two-petal rose.

    The pair must be compatible, and the union of the aligned disjoint
    sides must separate some pair {xi+, xi-}; otherwise the refinement is a
    two-edge loop (circle splitting).  Distinct compatible partitions have
    exactly one alignment, read off the empty corner: disjoint side1s, or
    one side1 inside the other.
    """
    _check_pair(p, q)
    _require_ideal(p, "p")
    _require_ideal(q, "q")
    if p == q:
        raise ValueError("rose compatibility is defined for distinct partitions")
    full = full_mask(p.rank)
    a, b = p.mask, q.mask
    if not a & b:
        union = a | b
    elif not a & ~b:
        union = a | (full ^ b)
    elif not b & ~a:
        union = (full ^ a) | b
    else:
        return False
    return _separates(union, p.rank)


def circle_compatible(p: Partition, q: Partition) -> bool:
    """Compatible ideal edges of distinct splittings whose refinement is a two-edge loop."""
    if class_of(p) == class_of(q):
        return False
    return compatible(p, q) and not rose_compatible(p, q)


def is_cagey(p: Partition, q: Partition) -> bool:
    """Combinatorial test for a crossing pair whose boundary splitting is a cage.

    Requires: the pair crosses, each corner set determines an ideal edge,
    and the union of every two distinct corner sets separates some pair.
    With side1 masks ``a`` of p and ``b`` of q, the six unions are the two
    sides of p, the two sides of q, ``a ^ b`` and its complement.  Separation
    is invariant under complement and p, q are ideal, so ``a ^ b`` alone
    decides the unions.
    """
    _check_pair(p, q)
    _require_ideal(p, "p")
    _require_ideal(q, "q")
    corners = corner_masks(p, q)
    rank = p.rank
    return (
        all(corners)
        and all(_separates(c, rank) for c in corners)
        and _separates(p.mask ^ q.mask, rank)
    )


@dataclass(frozen=True)
class SplittingClass:
    """A splitting in the universe, as an identified class of partitions.

    Each petal of the rose is represented by two partitions (the two
    singleton sides {xi+} and {xi-}); both map to the class ``petal(i)``.
    Thick partitions represent pairwise distinct splittings and each is its
    own class.
    """

    kind: str  # "petal" | "thick"
    petal_index: Optional[int]
    representative: Partition

    def __post_init__(self):
        if self.kind not in ("petal", "thick"):
            raise ValueError("kind must be 'petal' or 'thick'")
        if (self.kind == "petal") != (self.petal_index is not None):
            raise ValueError("petal classes carry an index, thick classes do not")

    @property
    def rank(self) -> int:
        return self.representative.rank

    def representatives(self) -> Tuple[Partition, ...]:
        """All partitions determining this splitting (two for a petal)."""
        if self.kind == "thick":
            return (self.representative,)
        i, rank = self.petal_index, self.rank
        return (
            Partition.from_mask(rank, direction_bit(i, 1)),
            Partition.from_mask(rank, direction_bit(i, -1)),
        )

    @property
    def key(self) -> Tuple:
        if self.kind == "petal":
            return (0, self.petal_index, ())
        return (1, 0, self.representative.key)

    def encode(self) -> str:
        if self.kind == "petal":
            return "petal:%d" % self.petal_index
        return self.representative.encode()

    def __repr__(self):
        return "SplittingClass(%s)" % self.encode()


def petal_class(rank: int, index: int) -> SplittingClass:
    if not (1 <= index <= rank):
        raise ValueError("petal index %d out of range for rank %d" % (index, rank))
    rep = Partition.from_mask(rank, direction_bit(index, 1))
    return SplittingClass("petal", index, rep)


def class_of(p: Partition) -> SplittingClass:
    """The splitting class of a partition (petal classes identified).

    A singleton side1 is one bit; a singleton side2 is ``{x1+}``.
    """
    size = p.mask.bit_count()
    if size == 1:
        return petal_class(p.rank, (p.mask.bit_length() + 1) // 2)
    if size == 2 * p.rank - 1:
        return petal_class(p.rank, 1)
    return SplittingClass("thick", None, p)


def parse_class(rank: int, text: str) -> SplittingClass:
    """Parse ``"petal:3"`` or a side spec such as ``"x1-,x2+"``."""
    text = text.strip()
    if text.startswith("petal:"):
        return petal_class(rank, int(text[len("petal:"):]))
    return class_of(Partition.parse(rank, text))


def classes_compatible(s: SplittingClass, t: SplittingClass) -> bool:
    """Compatibility of splittings: petals never cross anything in the universe."""
    if s.rank != t.rank:
        raise ValueError("classes have different ranks")
    if s.kind == "petal" or t.kind == "petal":
        return True
    return compatible(s.representative, t.representative)


def classes_rose_compatible(s: SplittingClass, t: SplittingClass) -> bool:
    """Rose compatibility on classes; independent of representative choice."""
    if s == t:
        raise ValueError("rose compatibility is defined for distinct splittings")
    return rose_compatible(s.representative, t.representative)


def classes_cagey(s: SplittingClass, t: SplittingClass) -> bool:
    if s == t:
        raise ValueError("caginess is defined for distinct splittings")
    return is_cagey(s.representative, t.representative)


def _check_rank_guard(rank: int, max_rank: int) -> None:
    if not (MIN_RANK <= rank <= max_rank):
        raise ValueError(
            "rank %d outside the enumeration guard [%d, %d]" % (rank, MIN_RANK, max_rank)
        )


def enumerate_ideal_edges(rank: int, thick_only: bool = False,
                          max_rank: int = MAX_RANK) -> list:
    """All ideal partitions at the given rank, canonically oriented and sorted.

    The base direction ``x1+`` is pinned to side2, so candidate side1 masks
    are the nonzero even ints below ``2**(2N)``.
    """
    _check_rank_guard(rank, max_rank)
    found = []
    for mask in range(2, full_mask(rank), 2):
        p = Partition.from_mask(rank, mask)
        if is_ideal(p) and (not thick_only or is_thick(p)):
            found.append(p)
    found.sort(key=lambda p: p.key)
    return found


def enumerate_splitting_classes(rank: int, max_rank: int = MAX_RANK) -> list:
    """All splitting classes of the universe: N petals plus the thick ideal edges."""
    classes = [petal_class(rank, i) for i in range(1, rank + 1)]
    classes.extend(
        class_of(p) for p in enumerate_ideal_edges(rank, thick_only=True, max_rank=max_rank)
    )
    classes.sort(key=lambda c: c.key)
    return classes


def count_splitting_classes(rank: int, max_rank: int = MAX_RANK) -> int:
    return len(enumerate_splitting_classes(rank, max_rank=max_rank))
