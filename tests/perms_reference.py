"""Reference permutation routines that the package no longer needs but the
tests still state their lemmas with."""

from igmax.errors import InvalidParameters
from igmax.perms import Permutation, rightmost_descent


def resolve_rightmost_descent(p: Permutation) -> Permutation:
    """Move the rightmost descent entry behind everything it dominates.

    The entry at the descent start is displaced to just after position v+w,
    shifting the intermediate entries one place left.  The result has descent
    count exactly one less, which is what drives the elimination recursion:
    it is the label of the (Q, A) corner of the square that
    ``igmax.pipeline.descent_reduction`` builds.
    """
    loc = rightmost_descent(p)
    if loc is None:
        raise InvalidParameters("identity permutation has no descent to resolve")
    v, w = loc.v, loc.w
    seq = list(p.images)
    entry = seq.pop(v - 1)
    seq.insert(v + w - 1, entry)
    return Permutation(tuple(seq))
