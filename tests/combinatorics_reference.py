"""Closed-form counts the tests hold the package's enumerations to."""

from math import prod

from igmax.combinatorics import Partition, _check_sizes, enumerate_partitions


def transversal_count(p: Partition) -> int:
    """The number of transversals of ``p``: the product of its block sizes."""
    return prod(map(len, p.blocks))


def count_transversal_pairs(n: int, r: int) -> int:
    """Number of (partition, transversal) pairs; the generator count later on.

    Equals the sum over all r-block partitions of the product of block sizes.

    >>> count_transversal_pairs(7, 4)
    2240
    """
    _check_sizes(n, r)
    return sum(transversal_count(p) for p in enumerate_partitions(n, r))
