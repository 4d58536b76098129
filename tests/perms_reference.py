"""Reference permutation routines that the package no longer needs but the
tests still state their lemmas with, on one-line image tuples, and
:func:`perm`, which reads the cycle text the tests write permutations in."""

import math
import re

from igmax.errors import InvalidParameters
from igmax.perms import compose, rightmost_descent


def perm(text: str, r: int) -> tuple[int, ...]:
    """The degree-r permutation with cycle form ``text``, as its one-line
    image tuple; cycle points may be split by spaces or commas.

    >>> perm("(1 3 4)", 4), perm("()", 3), perm("(2,3)(4,5)", 5)
    ((3, 2, 4, 1), (1, 2, 3), (1, 3, 2, 5, 4))
    """
    if not re.fullmatch(r"\s*(\(\s*(\d+([\s,]+\d+)*)?\s*\)\s*)+", text):
        raise InvalidParameters(f"malformed cycle form {text!r}")
    images = list(range(1, r + 1))
    seen: set[int] = set()
    for body in re.findall(r"\(([^()]*)\)", text):
        cycle = [int(x) for x in re.split(r"[\s,]+", body.strip()) if x]
        for i, x in enumerate(cycle):
            if not 1 <= x <= r or x in seen:
                raise InvalidParameters(f"cycle point {x} repeated or outside [1,{r}] in {text!r}")
            seen.add(x)
            images[x - 1] = cycle[(i + 1) % len(cycle)]
    return tuple(images)


def identity(r: int) -> tuple[int, ...]:
    return tuple(range(1, r + 1))


def is_identity(p: tuple[int, ...]) -> bool:
    return p == identity(len(p))


def generated_order(perms: set[tuple[int, ...]], r: int) -> int:
    """Order of the subgroup of the degree-r symmetric group they generate;
    the search stops once it has seen all r! permutations."""
    full = math.factorial(r)
    seen = {identity(r)}
    frontier = [identity(r)]
    while frontier:
        nxt = []
        for p in frontier:
            for g in perms:
                q = compose(p, g)
                if q not in seen:
                    seen.add(q)
                    if len(seen) == full:
                        return full
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def resolve_rightmost_descent(p: tuple[int, ...]) -> tuple[int, ...]:
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
    v, w = loc
    seq = list(p)
    entry = seq.pop(v - 1)
    seq.insert(v + w - 1, entry)
    return tuple(seq)
