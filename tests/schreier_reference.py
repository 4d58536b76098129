"""The canonical words of :mod:`igmax.schreier` evaluated as transformations.

The package compares Schreier words letter for letter and never multiplies
them.  The tests evaluate them here to check the paper's claims about them:
``word_to(A)`` maps [1, r] onto A in order, and ``word_from(A)``, the same
letters read backwards with each image lowered to its predecessor, maps A
back onto [1, r].
"""

from __future__ import annotations

from functools import lru_cache

from igmax.combinatorics import Subset
from igmax.errors import InvalidParameters
from igmax.schreier import EWord, IdempotentLetter, SchreierSystem, predecessor

from transform_reference import Transformation, idempotent


@lru_cache(maxsize=None)
def letter_transformation(letter: IdempotentLetter) -> Transformation:
    """The idempotent a letter names."""
    return idempotent(letter.partition, letter.subset)


def eval_word(word: EWord, n: int) -> Transformation:
    """Multiply the letters left to right; the empty word is the identity.

    >>> from igmax.schreier import build_schreier
    >>> a = Subset.parse("{3,5}", 5)
    >>> eval_word(build_schreier(5, 2).word_to(a), 5).images[:2]
    (3, 5)
    """
    out = Transformation.identity(n)
    for letter in word:
        if letter.partition.n != n:
            raise InvalidParameters(f"letter on [1,{letter.partition.n}] in a degree-{n} word")
        out = out * letter_transformation(letter)
    return out


def word_from(sch: SchreierSystem, subset: Subset) -> EWord:
    """The word from ``subset`` back to the base subset: the letter (P, A)
    that ``word_to`` appends at A becomes (P, predecessor(A)), in reverse."""
    return tuple(
        IdempotentLetter(letter.partition, predecessor(letter.subset))
        for letter in reversed(sch.word_to(subset))
    )


def into_map(sch: SchreierSystem, subset: Subset) -> Transformation:
    """Evaluation of ``word_to``; order-preserving [1, r] -> A on [1, r]."""
    return eval_word(sch.word_to(subset), sch.n)


def back_map(sch: SchreierSystem, subset: Subset) -> Transformation:
    return eval_word(word_from(sch, subset), sch.n)
