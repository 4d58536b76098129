"""Canonical words of idempotent letters connecting [1, r] to each r-subset.

A letter is an (idempotent) generator named by a kernel partition together
with a transversal image subset.  Words multiply left to right in the full
transformation monoid.  For every r-subset A we keep ``word_to(A)``, from
the base subset [1, r] out to A.

The words are built by a single recursion on A: take the least position m
where A differs from [1, r], lower that element by one to get the
predecessor B, and extend B's word by one letter whose kernel is the convex
partition cut at the elements of A.  The word evaluates to the
order-preserving bijection from [1, r] onto A, and the construction is
prefix-closed: every intermediate subset on the path has its own word as a
prefix.  So ``word_to(B)`` followed by the letter (P, A) is ``word_to(A)``
exactly when B is the predecessor of A and P is A's convex partition; the
top relations are those pairs, which the SQ3 index names on ids (its
``top_of``).  The tests evaluate the words, and the words back from A to
[1, r], in ``tests/schreier_reference.py``; no other module reads them.
"""

from __future__ import annotations

from .combinatorics import Partition, Subset, enumerate_subsets
from .errors import InvalidParameters
from .frozen import Frozen


class IdempotentLetter(Frozen):
    """One generator: the idempotent with the given kernel and image."""

    __slots__ = ("partition", "subset")

    def __init__(self, partition: Partition, subset: Subset):
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "subset", subset)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.partition == other.partition and self.subset == other.subset

    def __hash__(self) -> int:
        return hash((self.partition, self.subset))

    def __str__(self) -> str:
        return f"e[{self.partition}|{self.subset}]"


EWord = tuple[IdempotentLetter, ...]


def convex_partition_of(subset: Subset) -> Partition:
    """The interval partition cutting [1, n] just after each element.

    Blocks are [1, a_1], [a_1+1, a_2], ..., with the last stretched to n.
    This is the kernel used for the letter appended at subset A, and A is
    transversal to it by construction.

    >>> str(convex_partition_of(Subset.parse("{2,4,5}", 6)))
    '{{1,2},{3,4},{5,6}}'
    """
    a = subset.elements
    n = subset.n
    blocks = []
    lo = 1
    for i, x in enumerate(a):
        hi = x if i < len(a) - 1 else n
        blocks.append(tuple(range(lo, hi + 1)))
        lo = hi + 1
    return Partition(n, tuple(blocks))


def predecessor(subset: Subset) -> Subset | None:
    """One step down the canonical chain, or None at the base subset.

    Lowers by one the element at the least position where the subset
    differs from [1, r].  The result is always a valid subset that is
    strictly smaller in the positional-lex order.
    """
    for m, x in enumerate(subset.elements, start=1):
        if x != m:
            return subset.replace(x, x - 1)
    return None


class SchreierSystem:
    """All canonical words for parameters (n, r), built eagerly.

    >>> sch = build_schreier(5, 2)
    >>> a = Subset.parse("{3,5}", 5)
    >>> len(sch.word_to(a))
    5
    >>> [str(letter.subset) for letter in sch.word_to(a)[-2:]]
    ['{2,5}', '{3,5}']
    """

    def __init__(self, n: int, r: int):
        if not 1 <= r <= n:
            raise InvalidParameters(f"need 1 <= r <= n, got r={r}, n={n}")
        self.n = n
        self.r = r
        self.base = Subset(n, tuple(range(1, r + 1)))
        self._to: dict[Subset, EWord] = {self.base: ()}
        # lex order guarantees each predecessor is ready before it is needed
        for a in enumerate_subsets(n, r):
            if a == self.base:
                continue
            self._to[a] = self._to[predecessor(a)] + (IdempotentLetter(convex_partition_of(a), a),)

    def subsets(self) -> list[Subset]:
        return sorted(self._to, key=lambda s: s.elements)

    def word_to(self, subset: Subset) -> EWord:
        self._check(subset)
        return self._to[subset]

    def _check(self, subset: Subset) -> None:
        if subset not in self._to:
            raise InvalidParameters(
                f"{subset} is not an {self.r}-subset of [1,{self.n}] known to this system"
            )


def build_schreier(n: int, r: int) -> SchreierSystem:
    return SchreierSystem(n, r)
