"""Canonical words of idempotent letters connecting [1, r] to each r-subset.

A letter is an (idempotent) generator named by a kernel partition together
with a transversal image subset.  Words multiply left to right in the full
transformation monoid.  For every r-subset A we keep two words:

* ``word_to(A)``   — from the base subset [1, r] out to A;
* ``word_from(A)`` — from A back to the base subset.

They are built by a single recursion on A: take the least position m where
A differs from [1, r], lower that element by one to get the predecessor B,
and extend B's words by one letter whose kernel is the convex partition cut
at the elements of A.  The two words evaluate to mutually inverse
order-preserving bijections between [1, r] and A, and the construction is
prefix-closed: every intermediate subset on the path has its own words as
prefixes/suffixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .combinatorics import Partition, Subset, enumerate_subsets
from .errors import InvalidParameters
from .transform import Transformation, idempotent


@dataclass(frozen=True)
class IdempotentLetter:
    """One generator: the idempotent with the given kernel and image."""

    partition: Partition
    subset: Subset

    def transformation(self) -> Transformation:
        return _letter_transformation(self)

    def __str__(self) -> str:
        return f"e[{self.partition}|{self.subset}]"


@lru_cache(maxsize=None)
def _letter_transformation(letter: IdempotentLetter) -> Transformation:
    return idempotent(letter.partition, letter.subset)


EWord = tuple[IdempotentLetter, ...]


def eval_word(word: EWord, n: int) -> Transformation:
    """Multiply the letters left to right; the empty word is the identity."""
    out = Transformation.identity(n)
    for letter in word:
        if letter.partition.n != n:
            raise InvalidParameters(f"letter on [1,{letter.partition.n}] in a degree-{n} word")
        out = out * letter.transformation()
    return out


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
    >>> eval_word(sch.word_to(a), 5).images[:2]
    (3, 5)
    """

    def __init__(self, n: int, r: int):
        if not 1 <= r <= n:
            raise InvalidParameters(f"need 1 <= r <= n, got r={r}, n={n}")
        self.n = n
        self.r = r
        self.base = Subset(n, tuple(range(1, r + 1)))
        self._to: dict[Subset, EWord] = {self.base: ()}
        self._from: dict[Subset, EWord] = {self.base: ()}
        # lex order guarantees each predecessor is ready before it is needed
        for a in enumerate_subsets(n, r):
            if a == self.base:
                continue
            b = predecessor(a)
            p = convex_partition_of(a)
            self._to[a] = self._to[b] + (IdempotentLetter(p, a),)
            self._from[a] = (IdempotentLetter(p, b),) + self._from[b]

    def subsets(self) -> list[Subset]:
        return sorted(self._to, key=lambda s: s.elements)

    def word_to(self, subset: Subset) -> EWord:
        self._check(subset)
        return self._to[subset]

    def word_from(self, subset: Subset) -> EWord:
        self._check(subset)
        return self._from[subset]

    def into_map(self, subset: Subset) -> Transformation:
        """Evaluation of ``word_to``; order-preserving [1, r] -> A on [1, r]."""
        return eval_word(self._to[subset], self.n)

    def back_map(self, subset: Subset) -> Transformation:
        return eval_word(self._from[subset], self.n)

    def _check(self, subset: Subset) -> None:
        if subset not in self._to:
            raise InvalidParameters(
                f"{subset} is not an {self.r}-subset of [1,{self.n}] known to this system"
            )


def build_schreier(n: int, r: int) -> SchreierSystem:
    return SchreierSystem(n, r)
