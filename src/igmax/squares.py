"""Squares of idempotents, two singularity tests, and the singular-square
enumerator.

A square is an ordered quadruple (P, Q, A, B) of two kernels and two images
with every image transversal to every kernel.  It is *singular* when some
idempotent of the ambient monoid glues the four corner idempotents together
in the left-right sense (4) or the up-down sense (5):

    LR:  e e_PA = e_PA,  e e_QA = e_QA,  e_PA e = e_PB,  e_QA e = e_QB
    UD:  e_PA e = e_PA,  e_PB e = e_PB,  e e_PA = e_QA,  e e_PB = e_QB

Two equivalent characterisations are implemented:

* SQ2 — the family of (image-element, other-image-element) pairs per block
  of P equals the family per block of Q;
* SQ3 — the label quotient identity
  label(P,A)^-1 label(P,B) == label(Q,A)^-1 label(Q,B).

The tests hold both to the definition itself: a search for an idempotent
witness, in ``tests/squares_reference.py``, agrees with them on every
square up to n = 6.

The proper singular squares are enumerated without testing kernel pairs:
each ordered pair (A, B) of distinct transversals of a kernel P is keyed by
(A, B, label(P,A)^-1 label(P,B)).  Two kernels share a key exactly when the
square they span over (A, B) passes SQ3, so every ordered pair of distinct
kernels in one bucket is a proper singular square, and the work depends on
the output rather than on the number of kernel pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Optional

from .combinatorics import Partition, Subset, enumerate_partitions, enumerate_subsets
from .errors import InvalidParameters, NotASquare, VerificationFailed
from .labels import label_by_subscripts
from .perms import Permutation, compose, invert

CORNERS = ("PA", "PB", "QA", "QB")


@dataclass(frozen=True)
class Square:
    """Ordered square: kernels (P, Q), images (A, B), all cross-transversal."""

    kernels: tuple[Partition, Partition]
    images: tuple[Subset, Subset]

    def __post_init__(self) -> None:
        p, q = self.kernels
        a, b = self.images
        if not (p.n == q.n == a.n == b.n):
            raise NotASquare("kernels and images live on different ground sets")
        if not (len(p) == len(q) == len(a) == len(b)):
            raise NotASquare("kernel block counts and image sizes disagree")
        for part in (p, q):
            for img in (a, b):
                if not part.meets_once(img):
                    raise NotASquare(f"{img} is not a transversal of {part}")

    @classmethod
    def _trusted(
        cls,
        kernels: tuple[Partition, Partition],
        images: tuple[Subset, Subset],
        corner_labels: Optional[tuple[Permutation, ...]] = None,
    ) -> "Square":
        """A square whose corners are already known to be transversal pairs.

        Skips the checks of the constructor; only for squares built from
        enumerated transversals, never for outside input.  ``corner_labels``,
        when given, are the labels of the corners in ``CORNERS`` order, as
        the generators of those pairs carry them.
        """
        sq = object.__new__(cls)
        sq.__dict__.update(kernels=kernels, images=images)
        if corner_labels is not None:
            sq.__dict__["corner_labels"] = corner_labels
        return sq

    @property
    def n(self) -> int:
        return self.kernels[0].n

    @property
    def r(self) -> int:
        return len(self.kernels[0])

    def is_degenerate(self) -> bool:
        return self.kernels[0] == self.kernels[1] or self.images[0] == self.images[1]

    def corner_pairs(self) -> tuple[tuple[Partition, Subset], ...]:
        p, q = self.kernels
        a, b = self.images
        return ((p, a), (p, b), (q, a), (q, b))

    @cached_property
    def corner_labels(self) -> tuple[Permutation, Permutation, Permutation, Permutation]:
        return tuple(label_by_subscripts(k, i) for k, i in self.corner_pairs())

    def to_json(self) -> dict:
        p, q = self.kernels
        a, b = self.images
        return {"P": p.to_json(), "Q": q.to_json(), "A": a.to_json(), "B": b.to_json()}


def is_singular_sq2(sq: Square) -> bool:
    """Pair-family test: per-block (A-element, B-element) pairs agree."""
    p, q = sq.kernels
    a, b = sq.images
    a_set, b_set = a._as_set, b._as_set

    def pairs(part: Partition) -> frozenset[tuple[int, int]]:
        out = []
        for block in part.blocks:
            ai = bi = None
            for x in block:
                if x in a_set:
                    ai = x
                if x in b_set:
                    bi = x
            out.append((ai, bi))
        return frozenset(out)

    return pairs(p) == pairs(q)


def is_singular_sq3(sq: Square) -> bool:
    """Label quotient test; agrees with SQ2 (their equivalence is tested)."""
    la, lb, lc, ld = sq.corner_labels
    return la.inverse() * lb == lc.inverse() * ld


def _sorted_partitions(n: int, r: int) -> list[Partition]:
    return sorted(enumerate_partitions(n, r), key=lambda p: p.blocks)


def _iter_squares(n: int, r: int) -> Iterator[Square]:
    parts = _sorted_partitions(n, r)
    trans = {p: p.transversals() for p in parts}
    tsets = {p: frozenset(t) for p, t in trans.items()}
    for p in parts:
        for q in parts:
            common = [a for a in trans[p] if a in tsets[q]] if p != q else trans[p]
            for a in common:
                for b in common:
                    yield Square((p, q), (a, b))


def enumerate_squares(n: int, r: int) -> Iterator[Square]:
    """All squares, degenerate ones included, in (P, Q, A, B) lex order."""
    _check(n, r)
    return _iter_squares(n, r)


@dataclass
class _SingularIndex:
    """Kernels bucketed by their SQ3 signature over each ordered image pair.

    ``buckets`` maps (a, b, label(P,A)^-1 label(P,B)) to the ascending indices
    into ``parts`` of the kernels P with A, B among their transversals, where
    a and b index A and B in ``subsets``.  ``rows[i]`` lists, for kernel i,
    every (a, b, bucket) with a != b, so each bucket list is shared between
    the rows of its kernels.
    """

    parts: list[Partition]
    subsets: list[Subset]
    transversal_ids: list[list[int]]
    buckets: dict[tuple[int, int, tuple[int, ...]], list[int]]
    rows: list[list[tuple[int, int, list[int]]]]

    @cached_property
    def _kernel_of(self) -> dict[tuple[tuple[int, ...], ...], Partition]:
        return {p.blocks: p for p in self.parts}

    @cached_property
    def _image_of(self) -> dict[tuple[int, ...], Subset]:
        return {s.elements: s for s in self.subsets}

    def kernel(self, blocks) -> Partition:
        """The index's kernel with these blocks, given in any order.

        A lookup, not a construction: the blocks name one of ``parts`` or
        InvalidParameters is raised, which is what building the partition
        and checking it against (n, r) would find.  The table is built on
        first use, so ``stats`` and ``squares`` never build it.
        """
        key = tuple(sorted(tuple(sorted(b)) for b in blocks))
        p = self._kernel_of.get(key)
        if p is None:
            raise InvalidParameters(f"{key} is not one of the {len(self.parts)} kernels of this index")
        return p

    def image(self, elements) -> Subset:
        """The index's image with these elements, given in any order; a
        lookup, as :meth:`kernel` is."""
        key = tuple(sorted(elements))
        a = self._image_of.get(key)
        if a is None:
            raise InvalidParameters(f"{key} is not one of the {len(self.subsets)} images of this index")
        return a


@lru_cache(maxsize=1)
def _singular_index(n: int, r: int) -> _SingularIndex:
    """Memoised: ``build_presentation``, ``enumerate_singular_squares`` and the
    reduction pipeline share one index, so they hand out the same kernel and
    image objects, and it goes when another (n, r) is indexed.  Callers only
    read it."""
    parts = _sorted_partitions(n, r)
    subsets = list(enumerate_subsets(n, r))
    subset_id = {s.elements: i for i, s in enumerate(subsets)}
    transversal_ids: list[list[int]] = []
    buckets: dict[tuple[int, int, tuple[int, ...]], list[int]] = {}
    rows: list[list[tuple[int, int, list[int]]]] = []
    for pi, p in enumerate(parts):
        trans = p.transversals()
        ids = [subset_id[a.elements] for a in trans]
        labels = [label_by_subscripts(p, a).images for a in trans]
        row = []
        for a, la in zip(ids, labels):
            la_inv = invert(la)
            for b, lb in zip(ids, labels):
                if a == b:
                    continue
                bucket = buckets.setdefault((a, b, compose(la_inv, lb)), [])
                bucket.append(pi)
                row.append((a, b, bucket))
        transversal_ids.append(ids)
        rows.append(row)
    return _SingularIndex(parts, subsets, transversal_ids, buckets, rows)


def enumerate_singular_squares(n: int, r: int) -> Iterator[Square]:
    """The proper singular squares (P != Q and A != B), same order.

    Degenerate squares pass the singularity tests trivially and are
    excluded here; census counts report them separately.  The squares come
    from the SQ3 buckets of the module docstring, one kernel P at a time.
    """
    _check(n, r)
    index = _singular_index(n, r)
    parts, subsets = index.parts, index.subsets
    for pi, p in enumerate(parts):
        found = sorted(
            (qi, a, b) for a, b, bucket in index.rows[pi] for qi in bucket if qi != pi
        )
        for qi, a, b in found:
            yield Square._trusted((p, parts[qi]), (subsets[a], subsets[b]))


@dataclass(frozen=True)
class SquareCensus:
    n: int
    r: int
    partitions: int
    subsets: int
    transversal_pairs: int
    squares: int
    proper_squares: int
    singular_proper: int
    singular_proper_unordered: int
    singular_degenerate: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "partitions": self.partitions,
            "subsets": self.subsets,
            "transversal_pairs": self.transversal_pairs,
            "squares": self.squares,
            "proper_squares": self.proper_squares,
            "singular_proper": self.singular_proper,
            "singular_proper_unordered": self.singular_proper_unordered,
            "singular_degenerate": self.singular_degenerate,
        }


def square_census(n: int, r: int) -> SquareCensus:
    """Counts of ordered squares, read off the SQ3 buckets.

    With m(A, B) the number of kernels having both A and B as transversals
    (m(A, A) for those having A), there are sum m(A,B)^2 ordered squares and
    sum over A != B of m(A,B)(m(A,B)-1) proper ones; a bucket of k kernels
    holds k(k-1) proper singular squares.  Proper singular squares come in
    orbits of four under swapping (P,Q) and swapping (A,B); the unordered
    count divides by that.
    """
    _check(n, r)
    index = _singular_index(n, r)
    per_subset: dict[int, int] = {}
    for ids in index.transversal_ids:
        for a in ids:
            per_subset[a] = per_subset.get(a, 0) + 1
    per_pair: dict[tuple[int, int], int] = {}
    sigma = 0
    for (a, b, _), kernels in index.buckets.items():
        k = len(kernels)
        per_pair[(a, b)] = per_pair.get((a, b), 0) + k
        sigma += k * (k - 1)
    proper = sum(m * (m - 1) for m in per_pair.values())
    squares = sum(m * m for m in per_subset.values()) + sum(m * m for m in per_pair.values())
    if sigma % 4:
        raise VerificationFailed(f"{sigma} proper singular squares do not fall in orbits of 4")
    return SquareCensus(
        n=n,
        r=r,
        partitions=len(index.parts),
        subsets=len(index.subsets),
        transversal_pairs=sum(len(ids) for ids in index.transversal_ids),
        squares=squares,
        proper_squares=proper,
        singular_proper=sigma,
        singular_proper_unordered=sigma // 4,
        singular_degenerate=squares - proper,
    )


def square_record(sq: Square) -> dict:
    """The JSON-able record streamed by the command-line ``squares`` command."""
    record = sq.to_json()
    record["labels"] = {
        name: lam.cycle_form() for name, lam in zip(CORNERS, sq.corner_labels)
    }
    record["singular"] = is_singular_sq3(sq)
    record["evidence_kind"] = None
    return record


# ``square_record`` encoded with sorted keys and no spaces, its values filled in
_LINE = (
    '{"A":%s,"B":%s,"P":%s,"Q":%s,"evidence_kind":null,'
    '"labels":{"PA":%s,"PB":%s,"QA":%s,"QB":%s},"singular":%s}\n'
)


def square_lines(n: int, r: int, only_singular: bool) -> Iterator[str]:
    """The lines of the ``squares`` stream, read off the SQ3 index.

    Equal to ``square_record`` over ``enumerate_squares``, filtered by
    ``is_singular_sq3`` when ``only_singular``, in the same (P, Q, A, B)
    order, each encoded by ``json.dumps(record, sort_keys=True,
    separators=(",", ":"))`` and ended by a newline.  Each kernel's and
    image's JSON and each (kernel, transversal) label's cycle form are
    encoded once, not once per square, and a line fills the record's
    template with them.  A proper square is singular exactly when the rows
    of its two kernels share the bucket for (A, B), whose key is
    label(P,A)^-1 label(P,B): that is the SQ3 test.
    """
    _check(n, r)
    index = _singular_index(n, r)
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    subset_json = [encode(s.to_json()) for s in index.subsets]
    kernels = []
    for p, ids, row in zip(index.parts, index.transversal_ids, index.rows):
        labels = {a: encode(label_by_subscripts(p, index.subsets[a]).cycle_form()) for a in ids}
        buckets = {(a, b): bucket for a, b, bucket in row}
        kernels.append((encode(p.to_json()), ids, labels, buckets))
    for pi, (p_json, p_ids, p_labels, p_buckets) in enumerate(kernels):
        for qi, (q_json, _, q_labels, q_buckets) in enumerate(kernels):
            common = p_ids if qi == pi else [a for a in p_ids if a in q_labels]
            for a in common:
                for b in common:
                    singular = pi == qi or a == b or p_buckets[a, b] is q_buckets[a, b]
                    if only_singular and not singular:
                        continue
                    yield _LINE % (
                        subset_json[a],
                        subset_json[b],
                        p_json,
                        q_json,
                        p_labels[a],
                        p_labels[b],
                        q_labels[a],
                        q_labels[b],
                        "true" if singular else "false",
                    )


def _check(n: int, r: int) -> None:
    if not (isinstance(n, int) and isinstance(r, int) and 1 <= r <= n):
        raise InvalidParameters(f"need integers 1 <= r <= n, got r={r}, n={n}")
