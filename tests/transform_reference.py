"""Total maps on {1, ..., n} under left-to-right composition.

The package no longer multiplies transformations: it works with labels in
S_r.  The tests keep these maps to state the paper's definitions verbatim,
as the idempotents the witness search and the Schreier words multiply.
A word ``s t`` acts as "apply s, then t": ``x (s t) = (x s) t``, the
package's convention for permutations and group words too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from igmax.combinatorics import Partition, Subset, require_transversal
from igmax.errors import InvalidParameters


@dataclass(frozen=True)
class Transformation:
    """A map [1, n] -> [1, n] in one-line form: ``images[i-1]`` is the image of i.

    >>> t = Transformation.parse("[1,2,3,4,4,4,4]")
    >>> t(6)
    4
    >>> t.rank()
    4
    """

    n: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidParameters(f"degree must be >= 1, got {self.n}")
        if len(self.images) != self.n:
            raise InvalidParameters(
                f"expected {self.n} images, got {len(self.images)}: {self.images}"
            )
        for y in self.images:
            if not isinstance(y, int) or not 1 <= y <= self.n:
                raise InvalidParameters(f"image value {y} outside [1,{self.n}]")

    @classmethod
    def identity(cls, n: int) -> "Transformation":
        return cls(n, tuple(range(1, n + 1)))

    @classmethod
    def parse(cls, text: str) -> "Transformation":
        t = text.strip()
        if not (t.startswith("[") and t.endswith("]")):
            raise InvalidParameters(f"transformation text must look like [1,2,2], got {text!r}")
        body = t[1:-1].strip()
        if not body:
            raise InvalidParameters("empty transformation not allowed")
        try:
            images = tuple(int(p) for p in body.split(","))
        except ValueError:
            raise InvalidParameters(f"non-integer entry in {text!r}") from None
        return cls(len(images), images)

    def __str__(self) -> str:
        return "[" + ",".join(str(y) for y in self.images) + "]"

    def __call__(self, x: int) -> int:
        if not 1 <= x <= self.n:
            raise InvalidParameters(f"point {x} outside [1,{self.n}]")
        return self.images[x - 1]

    def __mul__(self, other: "Transformation") -> "Transformation":
        """Left-to-right composition: ``(s * t)(x) == t(s(x))``."""
        return compose(self, other)

    @cached_property
    def _image_set(self) -> frozenset[int]:
        return frozenset(self.images)

    def image(self) -> Subset:
        return Subset.of(self.n, self._image_set)

    def kernel(self) -> Partition:
        """Partition of [1, n] into fibres, blocks ordered by minima."""
        fibres: dict[int, list[int]] = {}
        for x, y in enumerate(self.images, start=1):
            fibres.setdefault(y, []).append(x)
        return Partition.of(self.n, fibres.values())

    def rank(self) -> int:
        return len(self._image_set)

    def is_idempotent(self) -> bool:
        """True when the map fixes each of its image values.

        >>> Transformation.parse("[1,2,3,4,4,4,4]").is_idempotent()
        True
        >>> Transformation.parse("[2,1]").is_idempotent()
        False
        """
        return all(self.images[y - 1] == y for y in self._image_set)

    def to_json(self) -> list[int]:
        return list(self.images)


def compose(s: Transformation, t: Transformation) -> Transformation:
    """Apply ``s`` first, then ``t``."""
    if s.n != t.n:
        raise InvalidParameters(f"degree mismatch: {s.n} vs {t.n}")
    return Transformation(s.n, tuple(t.images[y - 1] for y in s.images))


def idempotent(partition: Partition, subset: Subset) -> Transformation:
    """The unique idempotent with the given kernel and image.

    Requires ``subset`` transversal to ``partition``; each point maps to the
    chosen representative of its block.

    >>> p = Partition.parse("{{1},{2,3,5},{4,7},{6}}")
    >>> a = Subset.parse("{1,5,6,7}", 7)
    >>> str(idempotent(p, a))
    '[1,5,5,7,5,6,7]'
    """
    require_transversal(subset, partition)
    rep = [0] * (len(partition) + 1)
    for x in subset.elements:
        rep[partition.block_index(x)] = x
    images = tuple(rep[partition.block_index(x)] for x in range(1, partition.n + 1))
    return Transformation(partition.n, images)
