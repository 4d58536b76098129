"""Permutations of {1, ..., r} as one-line image tuples, with descent
bookkeeping.

A permutation is the tuple ``(p(1), ..., p(r))`` of its images.
Composition is left-to-right, matching the transformation layer.  Text
appears only at the edges, in cycle form (:func:`cycle_form`): fixed points
are omitted, every cycle starts at its smallest element, cycles are ordered
by those smallest elements, and the identity prints as ``()``.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Optional

from .errors import InvalidParameters


def cycle_form(images: tuple[int, ...]) -> str:
    """Cycle notation, ``()`` for the identity.

    >>> cycle_form((3, 2, 4, 1)), cycle_form((1, 2, 3))
    ('(1 3 4)', '()')
    """
    seen = [False] * len(images)
    out = []
    for start in range(1, len(images) + 1):
        if seen[start - 1] or images[start - 1] == start:
            continue
        cyc = [start]
        x = images[start - 1]
        while x != start:
            cyc.append(x)
            seen[x - 1] = True
            x = images[x - 1]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Left-to-right product of two one-line image tuples: ``x -> q(p(x))``."""
    return tuple([q[y - 1] for y in p])


def invert(p: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of a one-line image tuple."""
    inv = [0] * len(p)
    for x, y in enumerate(p, start=1):
        inv[y - 1] = x
    return tuple(inv)


class ProductTable:
    """Permutations of one degree numbered as they are met, with their
    products filled in on demand.

    This is where words are evaluated in S_r.  Equal permutations get equal
    ids, so comparing two products is comparing two ints, and a product of
    two ids is composed once per table.  :meth:`evaluate` gives the
    left-to-right product of a word over letters that ``ids`` maps to ids.

    >>> t = ProductTable(3)
    >>> ids = {"c": t.intern((2, 3, 1))}
    >>> t.images[t.evaluate("cc", ids)], t.evaluate("ccc", ids) == t.identity
    ((3, 1, 2), True)
    >>> t.evaluate("", ids) == t.identity
    True
    """

    def __init__(self, r: int):
        self.images: list[tuple[int, ...]] = []
        self._ids: dict[tuple[int, ...], int] = {}
        self._products: list[dict[int, int]] = []
        self.identity = self.intern(tuple(range(1, r + 1)))

    def intern(self, images: tuple[int, ...]) -> int:
        """The id of the permutation with these one-line images."""
        i = self._ids.get(images)
        if i is None:
            i = self._ids[images] = len(self.images)
            self.images.append(images)
            self._products.append({})
        return i

    def product(self, i: int, j: int) -> int:
        """The id of the product of permutations ``i`` and ``j``."""
        row = self._products[i]
        k = row.get(j)
        if k is None:
            k = row[j] = self.intern(compose(self.images[i], self.images[j]))
        return k

    def evaluate(self, word: Iterable[Hashable], ids: Mapping[Hashable, int]) -> int:
        """The id of the product of ``ids[letter]`` over the word's letters."""
        acc = self.identity
        products = self._products
        for letter in word:
            i = ids[letter]
            nxt = products[acc].get(i)
            acc = self.product(acc, i) if nxt is None else nxt
        return acc


def descent_number(p: tuple[int, ...]) -> int:
    """Number of positions k whose entry exceeds some later entry.

    Zero exactly for the identity.

    >>> descent_number((3, 2, 4, 1))
    3
    """
    count = 0
    suffix_min = len(p) + 1
    for x in reversed(p):
        if x > suffix_min:
            count += 1
        else:
            suffix_min = x
    return count


def contiguous_cycle(k: int, l: int, r: int) -> tuple[int, ...]:
    """The cycle (k+l, k+l-1, ..., k+1, k) as a degree-r permutation.

    In one-line form: position k holds k+l, positions k+1..k+l hold their
    predecessor, everything else is fixed.

    >>> contiguous_cycle(1, 2, 3), cycle_form(contiguous_cycle(2, 1, 4))
    ((3, 1, 2), '(2 3)')
    """
    if not (1 <= k and 1 <= l and k + l <= r):
        raise InvalidParameters(f"need 1 <= k, 1 <= l, k+l <= r; got k={k}, l={l}, r={r}")
    images = list(range(1, r + 1))
    images[k - 1] = k + l
    for i in range(k + 1, k + l + 1):
        images[i - 1] = i - 1
    return tuple(images)


def classify_descent_one(p: tuple[int, ...]) -> Optional[tuple[int, int]]:
    """Return (k, l) when p is exactly the contiguous cycle at (k, l), else None.

    A permutation has descent count one iff it is such a cycle, so this also
    serves as the descent-one detector.
    """
    k = next((i for i, y in enumerate(p, start=1) if y != i), None)
    if k is None:
        return None
    l = p[k - 1] - k
    if l < 1 or k + l > len(p):
        return None
    # contiguous_cycle(k, l, r) read in place: k+1..k+l go one down, the rest stay
    if all(p[i] == i for i in range(k, k + l)) and all(p[i] == i + 1 for i in range(k + l, len(p))):
        return (k, l)
    return None


def rightmost_descent(p: tuple[int, ...]) -> Optional[tuple[int, int]]:
    """The rightmost descent start ``v`` and its reach ``w``, or None for the
    identity: ``v`` is the largest position whose entry exceeds some later
    entry and ``w`` the largest offset with ``p(v) > p(v+w)``.

    >>> rightmost_descent((4, 2, 3, 1))
    (3, 1)
    """
    suffix_min = len(p) + 1
    for v in range(len(p), 0, -1):
        if p[v - 1] > suffix_min:
            return v, max(d for d in range(1, len(p) - v + 1) if p[v - 1] > p[v + d - 1])
        suffix_min = min(suffix_min, p[v - 1])
    return None
