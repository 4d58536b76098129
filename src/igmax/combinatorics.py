"""Ground-set combinatorics: r-subsets and r-block partitions of [1, n].

Both carriers are immutable and carry their ground-set size with them, so
every later layer can validate compatibility cheaply.  Partitions are kept in
a canonical form (elements sorted inside each block, blocks sorted by their
minima), which makes equality, hashing and the enumeration order reproducible.

Text forms match the command-line conventions used throughout:

>>> str(Subset.parse("{1,4,5,6}", 7))
'{1,4,5,6}'
>>> str(Partition.parse("{{1},{2,3,5},{4,7},{6}}"))
'{{1},{2,3,5},{4,7},{6}}'
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .errors import InvalidParameters, TransversalityViolation


@dataclass(frozen=True)
class Subset:
    """A nonempty subset of {1, ..., n}, stored sorted ascending.

    Comparison between subsets of equal size is positional-lexicographic:
    the first place where the sorted element tuples differ decides.  That is
    exactly the tuple order on ``elements``, so the dataclass order methods
    would do, but we keep explicit helpers for clarity.
    """

    n: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidParameters(f"ground set size must be >= 1, got {self.n}")
        if not self.elements:
            raise InvalidParameters("empty subset not allowed")
        prev = 0
        for x in self.elements:
            if not isinstance(x, int) or x <= prev:
                raise InvalidParameters(
                    f"subset elements must be strictly increasing integers, got {self.elements}"
                )
            prev = x
        if prev > self.n:
            raise InvalidParameters(f"element {prev} exceeds ground set [1,{self.n}]")

    @classmethod
    def of(cls, n: int, elements) -> "Subset":
        return cls(n, tuple(sorted(elements)))

    @classmethod
    def parse(cls, text: str, n: int) -> "Subset":
        t = text.strip()
        if not (t.startswith("{") and t.endswith("}")):
            raise InvalidParameters(f"subset text must look like {{1,4,5}}, got {text!r}")
        body = t[1:-1].strip()
        if not body:
            raise InvalidParameters("empty subset not allowed")
        try:
            parts = [int(p) for p in body.split(",")]
        except ValueError:
            raise InvalidParameters(f"non-integer entry in subset {text!r}") from None
        if len(set(parts)) != len(parts):
            raise InvalidParameters(f"repeated element in subset {text!r}")
        return cls.of(n, parts)

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        # the log serialiser names each subset once per generator and square
        return "{" + ",".join(str(x) for x in self.elements) + "}"

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self._as_set

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # subsets key the hot dictionaries of presentation building and replay
        return hash((self.n, self.elements))

    @cached_property
    def _as_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    @cached_property
    def _rank(self) -> dict[int, int]:
        return {x: i + 1 for i, x in enumerate(self.elements)}

    def position_of(self, x: int) -> int:
        """1-based position of ``x`` in the sorted element list.

        >>> Subset.of(7, [1, 4, 5, 6]).position_of(5)
        3
        """
        try:
            return self._rank[x]
        except KeyError:
            raise InvalidParameters(f"{x} not in subset {self}") from None

    def element_at(self, i: int) -> int:
        """Element at 1-based position ``i``."""
        if not 1 <= i <= len(self.elements):
            raise InvalidParameters(f"position {i} out of range for {self}")
        return self.elements[i - 1]

    def replace(self, old: int, new: int) -> "Subset":
        """Subset with ``old`` swapped for ``new`` (re-sorted)."""
        if old not in self._as_set:
            raise InvalidParameters(f"{old} not in subset {self}")
        if new in self._as_set and new != old:
            raise InvalidParameters(f"{new} already in subset {self}")
        return Subset.of(self.n, [new if x == old else x for x in self.elements])

    def to_json(self) -> list[int]:
        return list(self.elements)


@dataclass(frozen=True)
class Partition:
    """A partition of {1, ..., n} into nonempty blocks, canonically ordered.

    Blocks are tuples sorted ascending; the block list is sorted by block
    minimum.  Since block minima are distinct this order is total, and the
    first block always contains 1.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidParameters(f"ground set size must be >= 1, got {self.n}")
        seen: set[int] = set()
        prev_min = 0
        for block in self.blocks:
            if not block:
                raise InvalidParameters("empty block not allowed")
            if list(block) != sorted(block):
                raise InvalidParameters(f"block {block} not sorted")
            if block[0] <= prev_min:
                raise InvalidParameters("blocks must be ordered by strictly increasing minima")
            prev_min = block[0]
            for x in block:
                if not isinstance(x, int) or not 1 <= x <= self.n:
                    raise InvalidParameters(f"element {x} outside ground set [1,{self.n}]")
                if x in seen:
                    raise InvalidParameters(f"element {x} appears in two blocks")
                seen.add(x)
        if len(seen) != self.n:
            missing = sorted(set(range(1, self.n + 1)) - seen)
            raise InvalidParameters(f"partition does not cover ground set; missing {missing}")

    @classmethod
    def of(cls, n: int, blocks) -> "Partition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        return cls(n, canon)

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "Partition":
        """Parse ``{{1},{2,3,5},{4,7},{6}}``.

        When ``n`` is omitted it is inferred as the largest element, which is
        correct because a partition covers its ground set.
        """
        t = text.strip()
        if not (t.startswith("{{") and t.endswith("}}")):
            raise InvalidParameters(f"partition text must look like {{{{1}},{{2,3}}}}, got {text!r}")
        inner = t[1:-1]
        blocks: list[list[int]] = []
        depth = 0
        current = ""
        for ch in inner:
            if ch == "{":
                depth += 1
                if depth == 1:
                    current = ""
                    continue
            elif ch == "}":
                depth -= 1
                if depth < 0:
                    raise InvalidParameters(f"unbalanced braces in {text!r}")
                if depth == 0:
                    body = current.strip()
                    if not body:
                        raise InvalidParameters("empty block not allowed")
                    try:
                        blocks.append([int(p) for p in body.split(",")])
                    except ValueError:
                        raise InvalidParameters(f"non-integer entry in {text!r}") from None
                    continue
            elif depth == 0:
                if ch not in ", \t":
                    raise InvalidParameters(f"unexpected {ch!r} between blocks in {text!r}")
                continue
            current += ch
        if depth != 0:
            raise InvalidParameters(f"unbalanced braces in {text!r}")
        size = n if n is not None else max(max(b) for b in blocks)
        return cls.of(size, blocks)

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        return "{" + ",".join("{" + ",".join(str(x) for x in b) + "}" for b in self.blocks) + "}"

    def __len__(self) -> int:
        return len(self.blocks)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.n, self.blocks))

    @cached_property
    def _block_index(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, block in enumerate(self.blocks, start=1):
            for x in block:
                out[x] = i
        return out

    def block_index(self, x: int) -> int:
        """1-based index of the block containing ``x``.

        >>> Partition.parse("{{1},{2,3,5},{4,7},{6}}").block_index(7)
        3
        """
        try:
            return self._block_index[x]
        except KeyError:
            raise InvalidParameters(f"{x} outside ground set of {self}") from None

    def block(self, i: int) -> tuple[int, ...]:
        """Block at 1-based index ``i``."""
        if not 1 <= i <= len(self.blocks):
            raise InvalidParameters(f"block index {i} out of range for {self}")
        return self.blocks[i - 1]

    @cached_property
    def minima(self) -> tuple[int, ...]:
        return tuple(b[0] for b in self.blocks)

    def min_transversal(self) -> Subset:
        """The block-minima subset; the lexicographically least transversal."""
        return Subset(self.n, self.minima)

    def is_convex(self) -> bool:
        """True when every block is an interval of consecutive integers."""
        return all(b[-1] - b[0] + 1 == len(b) for b in self.blocks)

    def meets_once(self, subset: Subset) -> bool:
        counts = [0] * len(self.blocks)
        for x in subset.elements:
            i = self._block_index.get(x)
            if i is None:
                return False
            counts[i - 1] += 1
            if counts[i - 1] > 1:
                return False
        return all(c == 1 for c in counts)

    def transversals(self) -> list[Subset]:
        """All transversal subsets, in increasing positional-lex order."""
        picks = itertools.product(*self.blocks)
        subsets = [Subset.of(self.n, p) for p in picks]
        subsets.sort(key=lambda s: s.elements)
        return subsets

    def to_json(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]


def enumerate_subsets(n: int, r: int) -> Iterator[Subset]:
    """All r-element subsets of [1, n] in increasing lexicographic order.

    >>> [str(s) for s in enumerate_subsets(4, 2)][:3]
    ['{1,2}', '{1,3}', '{1,4}']
    """
    _check_sizes(n, r)
    for combo in itertools.combinations(range(1, n + 1), r):
        yield Subset(n, combo)


def enumerate_partitions(n: int, r: int) -> Iterator[Partition]:
    """All partitions of [1, n] into exactly r blocks, canonical form.

    Enumeration goes over restricted-growth strings in lexicographic order:
    element 1 gets label 0, and each later element gets a label that is at
    most one more than the maximum used so far.  Labels in order of first
    appearance coincide with block order by minima, so each string maps to a
    canonical partition directly and no sorting pass is needed.
    """
    _check_sizes(n, r)

    labels = [0] * n

    def walk(i: int, used: int) -> Iterator[Partition]:
        if i == n:
            if used == r:
                blocks: list[list[int]] = [[] for _ in range(r)]
                for x, lab in enumerate(labels, start=1):
                    blocks[lab].append(x)
                yield Partition(n, tuple(tuple(b) for b in blocks))
            return
        remaining = n - i
        # prune: must still be able to reach exactly r labels
        for lab in range(min(used + 1, r)):
            if used + (1 if lab == used else 0) + (remaining - 1) < r:
                continue
            labels[i] = lab
            yield from walk(i + 1, used + (1 if lab == used else 0))

    yield from walk(1, 1) if n >= 1 else iter(())


def is_transversal(subset: Subset, partition: Partition) -> bool:
    """True when ``subset`` meets every block of ``partition`` exactly once.

    Sizes must be compatible: same ground set, |subset| == #blocks.
    """
    if subset.n != partition.n:
        raise InvalidParameters(
            f"ground sets differ: subset on [1,{subset.n}], partition on [1,{partition.n}]"
        )
    if len(subset) != len(partition):
        raise InvalidParameters(
            f"size mismatch: |subset|={len(subset)} but partition has {len(partition)} blocks"
        )
    return partition.meets_once(subset)


def require_transversal(subset: Subset, partition: Partition) -> None:
    if not is_transversal(subset, partition):
        raise TransversalityViolation(f"{subset} is not a transversal of {partition}")


def enumerate_transversal_pairs(n: int, r: int) -> Iterator[tuple[Partition, Subset]]:
    """All (partition, transversal) pairs, partition-major order."""
    for p in enumerate_partitions(n, r):
        for a in p.transversals():
            yield p, a


def _check_sizes(n: int, r: int) -> None:
    if not isinstance(n, int) or not isinstance(r, int):
        raise InvalidParameters(f"n and r must be integers, got {n!r}, {r!r}")
    if n < 1:
        raise InvalidParameters(f"n must be >= 1, got {n}")
    if not 1 <= r <= n:
        raise InvalidParameters(f"r must satisfy 1 <= r <= n, got r={r}, n={n}")
