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
image element lying in block i.  Both routes are implemented; tests hold
them against each other.

A label is the identity precisely when the i-th image element lies in the
i-th block, which holds in particular whenever the kernel is convex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import Partition, Subset, require_transversal
from .perms import Permutation

# Not called here: perfbench/trace_run.py wraps this name in this module.
from .combinatorics import enumerate_transversal_pairs  # noqa: F401


@dataclass(frozen=True)
class LabelContext:
    """The three composed maps, kept for audit output.

    ``into_minima`` lists the block minima in order (the image of the first
    map); ``across_blocks`` pairs each minimum with the image element of its
    block; ``image_sorted`` is the sorted image, whose positions invert the
    third map.
    """

    into_minima: tuple[int, ...]
    across_blocks: tuple[tuple[int, int], ...]
    image_sorted: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "into_minima": list(self.into_minima),
            "across_blocks": [list(p) for p in self.across_blocks],
            "image_sorted": list(self.image_sorted),
        }


def label_with_context(partition: Partition, subset: Subset) -> tuple[Permutation, LabelContext]:
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
    return Permutation(tuple(images)), ctx


def label(partition: Partition, subset: Subset) -> Permutation:
    """Label of the pair; raises TransversalityViolation when undefined.

    >>> p = Partition.parse("{{1},{2,3,5},{4,7},{6}}")
    >>> a = Subset.parse("{1,4,5,6}", 7)
    >>> label(p, a).cycle_form()
    '(2 3)'
    """
    return label_with_context(partition, subset)[0]


def label_by_subscripts(partition: Partition, subset: Subset) -> Permutation:
    """Direct read-off: entry i is the image-position of the block-i element."""
    require_transversal(subset, partition)
    images = [0] * len(partition)
    for pos, x in enumerate(subset.elements, start=1):
        images[partition.block_index(x) - 1] = pos
    # a transversal puts exactly one position in each block
    return Permutation._trusted(tuple(images))

