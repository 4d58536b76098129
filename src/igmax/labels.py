"""The permutation label of a (kernel, transversal image) pair.

The label measures how far the chosen image sits from the block-minima
transversal of the same kernel.  It is the degree-r permutation obtained by
composing, left to right:

1. the order-preserving map from [1, r] onto the block minima,
2. the transfer sending each block minimum to the image element sharing its
   block,
3. the inverse of the order-preserving map from [1, r] onto the image.

Equivalently (and this is the quick way to read it off): the i-th entry of
the label in one-line form is the position within the sorted image of the
image element lying in block i.  Both routes are implemented, one public
function each: :func:`label_with_context` composes the three maps and keeps
them for audit output, and :func:`label` reads the label off the pair's
pick of one image element per block (:func:`pick_label`, which the SQ3
index calls on the picks it makes).  Tests hold the two against each other.
A label is a one-line image tuple (:mod:`igmax.perms`).

A label is the identity precisely when the i-th image element lies in the
i-th block, which holds in particular whenever the kernel is convex.
"""

from __future__ import annotations

from typing import Iterable

from .combinatorics import Partition, Subset, require_transversal
from .frozen import Frozen

# Not called here: perfbench/trace_run.py wraps this name in this module.
from .combinatorics import enumerate_transversal_pairs  # noqa: F401


class LabelContext(Frozen):
    """The three composed maps, kept for audit output.

    ``into_minima`` lists the block minima in order (the image of the first
    map); ``across_blocks`` pairs each minimum with the image element of its
    block; ``image_sorted`` is the sorted image, whose positions invert the
    third map.
    """

    __slots__ = ("into_minima", "across_blocks", "image_sorted")

    def __init__(self, into_minima: tuple[int, ...], across_blocks: tuple, image_sorted: tuple[int, ...]):
        object.__setattr__(self, "into_minima", into_minima)
        object.__setattr__(self, "across_blocks", across_blocks)
        object.__setattr__(self, "image_sorted", image_sorted)

    def to_json(self) -> dict:
        return {
            "into_minima": list(self.into_minima),
            "across_blocks": [list(p) for p in self.across_blocks],
            "image_sorted": list(self.image_sorted),
        }


def label_with_context(partition: Partition, subset: Subset) -> tuple[tuple[int, ...], LabelContext]:
    require_transversal(subset, partition)
    minima = partition.minima
    transfer: dict[int, int] = {}
    for x in subset.elements:
        transfer[minima[partition.block_index(x) - 1]] = x
    ctx = LabelContext(
        into_minima=minima,
        across_blocks=tuple((m, transfer[m]) for m in minima),
        image_sorted=subset.elements,
    )
    images = []
    for i in range(1, len(minima) + 1):
        stop1 = minima[i - 1]
        stop2 = transfer[stop1]
        images.append(subset.position_of(stop2))
    return tuple(images), ctx


def label(partition: Partition, subset: Subset) -> tuple[int, ...]:
    """Label of the pair; raises TransversalityViolation when undefined.

    >>> p = Partition.parse("{{1},{2,3,5},{4,7},{6}}")
    >>> label(p, Subset.parse("{1,4,5,6}", 7))
    (1, 3, 2, 4)
    """
    require_transversal(subset, partition)
    # a transversal puts exactly one of its elements in each block
    return pick_label(sorted(subset.elements, key=partition.block_index), subset.elements)


def pick_label(pick: Iterable[int], elements: tuple[int, ...]) -> tuple[int, ...]:
    """The one-line label of a pair whose sorted image ``elements`` meets
    block i of the kernel in ``pick[i]``: entry i is that element's position
    in the image.  A transversal made as one pick per block is one, so
    nothing is checked."""
    return tuple([elements.index(x) + 1 for x in pick])

