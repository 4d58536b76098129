"""Permutations of {1, ..., r} with descent bookkeeping.

Composition is left-to-right, matching the transformation layer.  Two text
forms are supported: one-line ("image") form ``[3,2,4,1]`` and cycle form
``(1 3 4)``.  Cycle printing omits fixed points and starts every cycle at its
smallest element, with cycles ordered by those smallest elements; the
identity prints as ``()``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Mapping

from .errors import InvalidParameters


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        r = len(self.images)
        if r < 1:
            raise InvalidParameters("permutation degree must be >= 1")
        if sorted(self.images) != list(range(1, r + 1)):
            raise InvalidParameters(f"not a permutation of [1,{r}]: {self.images}")

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap images already known to form a permutation, without re-validation.

        Only for internal results such as products and inverses of valid
        permutations; text and outside input go through the constructor.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, r: int) -> "Permutation":
        return cls(tuple(range(1, r + 1)))

    def is_identity(self) -> bool:
        return all(y == i for i, y in enumerate(self.images, start=1))

    def __call__(self, x: int) -> int:
        if not 1 <= x <= len(self.images):
            raise InvalidParameters(f"point {x} outside [1,{len(self.images)}]")
        return self.images[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Left-to-right: ``(p * q)(x) == q(p(x))``.

        >>> p = Permutation.parse("(2 3)", 4)
        >>> q = Permutation.parse("(3 4)", 4)
        >>> (p.inverse() * q).cycle_form()
        '(2 4 3)'
        """
        if len(self.images) != len(other.images):
            raise InvalidParameters("degree mismatch in permutation product")
        return Permutation._trusted(compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation._trusted(invert(self.images))

    @cached_property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its least element, sorted."""
        seen = [False] * len(self.images)
        out: list[tuple[int, ...]] = []
        for start in range(1, len(self.images) + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            x = self.images[start - 1]
            while x != start:
                cyc.append(x)
                seen[x - 1] = True
                x = self.images[x - 1]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_form(self) -> str:
        """Cycle notation, ``()`` for the identity.

        >>> Permutation((3, 2, 4, 1)).cycle_form()
        '(1 3 4)'
        >>> Permutation.identity(3).cycle_form()
        '()'
        """
        if not self.cycles:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in self.cycles)

    def image_form(self) -> str:
        return "[" + ",".join(str(y) for y in self.images) + "]"

    def __str__(self) -> str:
        return self.cycle_form()

    @classmethod
    def from_cycles(cls, cycles, r: int) -> "Permutation":
        images = list(range(1, r + 1))
        for cyc in cycles:
            cyc = list(cyc)
            if len(set(cyc)) != len(cyc):
                raise InvalidParameters(f"repeated point in cycle {cyc}")
            for i, x in enumerate(cyc):
                if not 1 <= x <= r:
                    raise InvalidParameters(f"cycle point {x} outside [1,{r}]")
                images[x - 1] = cyc[(i + 1) % len(cyc)]
        if sorted(images) != list(range(1, r + 1)):
            raise InvalidParameters(f"cycles {cycles} overlap")
        return cls(tuple(images))

    @classmethod
    def parse(cls, text: str, r: int) -> "Permutation":
        """Parse either text form at the given degree.

        >>> Permutation.parse("(2 3)", 4).image_form()
        '[1,3,2,4]'
        >>> Permutation.parse("[1,3,2,4]", 4).cycle_form()
        '(2 3)'
        """
        t = text.strip().replace(",", " ") if text.strip().startswith("(") else text.strip()
        if t.startswith("["):
            if not t.endswith("]"):
                raise InvalidParameters(f"unterminated image form {text!r}")
            body = t[1:-1].strip()
            try:
                images = tuple(int(p) for p in body.split(",")) if body else ()
            except ValueError:
                raise InvalidParameters(f"non-integer entry in {text!r}") from None
            if len(images) != r:
                raise InvalidParameters(f"expected degree {r}, got {len(images)} in {text!r}")
            return cls(images)
        if t == "()":
            return cls.identity(r)
        if t.startswith("("):
            if not re.fullmatch(r"(\s*\([\d\s]*\)\s*)+", t):
                raise InvalidParameters(f"malformed cycle form {text!r}")
            chunks = re.findall(r"\(([^()]*)\)", t)
            try:
                cycles = [[int(p) for p in chunk.split()] for chunk in chunks]
            except ValueError:
                raise InvalidParameters(f"non-integer entry in {text!r}") from None
            return cls.from_cycles([c for c in cycles if c], r)
        raise InvalidParameters(f"unrecognised permutation text {text!r}")

    def to_json(self) -> list[int]:
        return list(self.images)


Letter = tuple[Hashable, int]


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Left-to-right product of two one-line image tuples: ``x -> q(p(x))``."""
    return tuple([q[y - 1] for y in p])


def invert(p: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of a one-line image tuple."""
    inv = [0] * len(p)
    for x, y in enumerate(p, start=1):
        inv[y - 1] = x
    return tuple(inv)


def letter_images(perms: Mapping[Hashable, Permutation]) -> dict[Letter, tuple[int, ...]]:
    """Image tuples of both letters ``(g, 1)`` and ``(g, -1)`` of each generator."""
    out: dict[Letter, tuple[int, ...]] = {}
    for g, p in perms.items():
        out[(g, 1)] = p.images
        out[(g, -1)] = invert(p.images)
    return out


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


def descent_number(p: Permutation) -> int:
    """Number of positions k whose entry exceeds some later entry.

    Zero exactly for the identity.

    >>> descent_number(Permutation((3, 2, 4, 1)))
    3
    """
    count = 0
    suffix_min = p.degree + 1
    for x in reversed(p.images):
        if x > suffix_min:
            count += 1
        else:
            suffix_min = x
    return count


def contiguous_cycle(k: int, l: int, r: int) -> Permutation:
    """The cycle (k+l, k+l-1, ..., k+1, k) as a degree-r permutation.

    In one-line form: position k holds k+l, positions k+1..k+l hold their
    predecessor, everything else is fixed.

    >>> contiguous_cycle(1, 2, 3).image_form()
    '[3,1,2]'
    >>> contiguous_cycle(2, 1, 4).cycle_form()
    '(2 3)'
    """
    if not (1 <= k and 1 <= l and k + l <= r):
        raise InvalidParameters(f"need 1 <= k, 1 <= l, k+l <= r; got k={k}, l={l}, r={r}")
    images = list(range(1, r + 1))
    images[k - 1] = k + l
    for i in range(k + 1, k + l + 1):
        images[i - 1] = i - 1
    return Permutation(tuple(images))


def classify_descent_one(p: Permutation) -> tuple[int, int] | None:
    """Return (k, l) when p is exactly the contiguous cycle at (k, l), else None.

    A permutation has descent count one iff it is such a cycle, so this also
    serves as the descent-one detector.
    """
    images = p.images
    k = next((i for i, y in enumerate(images, start=1) if y != i), None)
    if k is None:
        return None
    l = images[k - 1] - k
    if l < 1 or k + l > len(images):
        return None
    # contiguous_cycle(k, l, r) read in place: k+1..k+l go one down, the rest stay
    if all(images[i] == i for i in range(k, k + l)) and all(images[i] == i + 1 for i in range(k + l, len(images))):
        return (k, l)
    return None


@dataclass(frozen=True)
class DescentLocator:
    """Rightmost descent start ``v`` and reach ``w``.

    ``v`` is the largest position whose entry exceeds some later entry and
    ``w`` is the largest offset with ``p(v) > p(v+w)``.
    """

    v: int
    w: int


def rightmost_descent(p: Permutation) -> DescentLocator | None:
    """Locate the rightmost descent start, or None for the identity.

    >>> rightmost_descent(Permutation((4, 2, 3, 1)))
    DescentLocator(v=3, w=1)
    """
    v = None
    suffix_min = p.degree + 1
    for i in range(p.degree, 0, -1):
        if p.images[i - 1] > suffix_min:
            v = i
            break
        suffix_min = min(suffix_min, p.images[i - 1])
    if v is None:
        return None
    w = max(d for d in range(1, p.degree - v + 1) if p.images[v - 1] > p.images[v + d - 1])
    return DescentLocator(v=v, w=w)
