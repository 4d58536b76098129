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

Both take :class:`Square` objects; :func:`is_singular_ids` runs both on the
ids of the SQ3 index below, for the trust path.

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
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

from .combinatorics import Partition, Subset, enumerate_partitions, enumerate_subsets
from .errors import InvalidParameters, NotASquare, VerificationFailed
from .labels import label_by_subscripts
from .perms import Permutation, ProductTable, compose, invert

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
    def _trusted(cls, kernels: tuple[Partition, Partition], images: tuple[Subset, Subset]) -> "Square":
        """A square whose corners are already known to be transversal pairs.

        Skips the checks of the constructor; only for squares built from
        enumerated transversals, never for outside input.
        """
        sq = object.__new__(cls)
        sq.__dict__.update(kernels=kernels, images=images)
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


def is_singular_ids(index: _SingularIndex, p: int, q: int, a: int, b: int) -> bool:
    """SQ3 and then SQ2 on the square (P, Q, A, B) of ``index``, given as
    the ids of its kernels P, Q in ``index.parts`` and of its images A, B in
    ``index.subsets``; A and B must be transversals of both kernels.

    SQ3 compares two products of label ids in ``index.product_table``.
    SQ2 compares, for each element x of A, the element of B in x's block of
    P with the element of B in x's block of Q: the per-block pair families
    agree exactly when these agree, A and B being transversals of both.
    The tests hold this to :func:`is_singular_sq2` and
    :func:`is_singular_sq3` on every square up to (6,3).
    """
    gen_p, gen_q = index.generator_of[p], index.generator_of[q]
    ids, product = index.letter_label_ids, index.product_table.product
    if product(ids[2 * gen_p[a] + 1], ids[2 * gen_p[b]]) != product(ids[2 * gen_q[a] + 1], ids[2 * gen_q[b]]):
        return False
    block_p, block_q = index.block_of[p], index.block_of[q]
    in_p, in_q = [0] * index.r, [0] * index.r
    for y in index.subsets[b].elements:
        in_p[block_p[y]] = y
        in_q[block_q[y]] = y
    for x in index.subsets[a].elements:
        if in_p[block_p[x]] != in_q[block_q[x]]:
            return False
    return True


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

    The (kernel, image) pairs are numbered kernel by kernel in ``parts``
    order, each kernel's transversals in ``transversal_ids`` order: the
    generator order of :func:`~igmax.presentation.build_presentation`.
    ``labels[g]`` is the label of pair g.  The trust path holds kernels,
    images and generators as these ids; the tables that map between ids and
    objects, and the ones the id singularity test reads, are built on first
    use, so ``stats`` and ``squares`` never build them.
    """

    n: int
    r: int
    parts: list[Partition]
    subsets: list[Subset]
    transversal_ids: list[list[int]]
    labels: list[Permutation]
    buckets: dict[tuple[int, int, tuple[int, ...]], list[int]]
    rows: list[list[tuple[int, int, list[int]]]]

    @cached_property
    def kernel_ids(self) -> dict[tuple[tuple[int, ...], ...], int]:
        """The id of each kernel, keyed by its blocks."""
        return {p.blocks: i for i, p in enumerate(self.parts)}

    @cached_property
    def image_ids(self) -> dict[tuple[int, ...], int]:
        """The id of each image, keyed by its elements."""
        return {s.elements: i for i, s in enumerate(self.subsets)}

    @cached_property
    def generator_of(self) -> list[dict[int, int]]:
        """``generator_of[k][a]``: the id of the pair (kernel k, image a)."""
        out, g = [], 0
        for ids in self.transversal_ids:
            out.append(dict(zip(ids, range(g, g + len(ids)))))
            g += len(ids)
        return out

    @cached_property
    def pairs(self) -> list[tuple[int, int]]:
        """``pairs[g]``: the (kernel id, image id) of pair g."""
        return [(k, a) for k, ids in enumerate(self.transversal_ids) for a in ids]

    @cached_property
    def product_table(self) -> ProductTable:
        """The table of the labels' products in S_r."""
        return ProductTable(self.r)

    @cached_property
    def letter_label_ids(self) -> list[int]:
        """The id in ``product_table`` of pair g's label at ``2*g`` and of its
        inverse at ``2*g + 1``, the int letters of a presentation."""
        intern = self.product_table.intern
        ids: list[int] = []
        for lam in self.labels:
            ids.append(intern(lam.images))
            ids.append(intern(invert(lam.images)))
        return ids

    @cached_property
    def block_of(self) -> list[bytes]:
        """``block_of[k][x]``: the 0-based block of kernel k holding x."""
        out = []
        for p in self.parts:
            blocks = bytearray(self.n + 1)
            for i, block in enumerate(p.blocks):
                for x in block:
                    blocks[x] = i
            out.append(bytes(blocks))
        return out

    def kernel(self, blocks) -> Partition:
        """The index's kernel with these blocks, given in any order.

        A lookup, not a construction: the blocks name one of ``parts`` or
        InvalidParameters is raised, which is what building the partition
        and checking it against (n, r) would find.
        """
        key = tuple(sorted(tuple(sorted(b)) for b in blocks))
        k = self.kernel_ids.get(key)
        if k is None:
            raise InvalidParameters(f"{key} is not one of the {len(self.parts)} kernels of this index")
        return self.parts[k]

    def image(self, elements) -> Subset:
        """The index's image with these elements, given in any order; a
        lookup, as :meth:`kernel` is."""
        key = tuple(sorted(elements))
        a = self.image_ids.get(key)
        if a is None:
            raise InvalidParameters(f"{key} is not one of the {len(self.subsets)} images of this index")
        return self.subsets[a]

    def generator(self, p: Partition, a: Subset) -> int:
        """The id of the pair (p, a); InvalidParameters when p and a are
        not a kernel and a transversal image of this index."""
        k, i = self.kernel_ids.get(p.blocks), self.image_ids.get(a.elements)
        g = None if k is None or i is None else self.generator_of[k].get(i)
        if g is None:
            raise InvalidParameters(f"({p}, {a}) is not a generator of the presentation")
        return g

    def square(self, p: Partition, q: Partition, a: Subset, b: Subset) -> tuple[int, int, int, int]:
        """The ids of the square (p, q, a, b), each a kernel or an image of
        this index; a kernel or image it lacks raises KeyError."""
        kernel_ids, image_ids = self.kernel_ids, self.image_ids
        return kernel_ids[p.blocks], kernel_ids[q.blocks], image_ids[a.elements], image_ids[b.elements]

    def name(self, g: int) -> str:
        """The text ``f[P|A]`` of pair g, as GeneratorId displays it."""
        k, a = self.pairs[g]
        return f"f[{self.parts[k]}|{self.subsets[a]}]"

    def family_sizes(self) -> tuple[int, int, int]:
        """The presentation's top, middle and bottom family sizes: C(n, r) - 1,
        the kernels, and k(k-1) proper singular squares per bucket of k."""
        bottom = sum(k * (k - 1) for k in map(len, self.buckets.values()))
        return len(self.subsets) - 1, len(self.parts), bottom


@lru_cache(maxsize=1)
def _singular_index(n: int, r: int) -> _SingularIndex:
    """Memoised: ``build_presentation``, ``enumerate_singular_squares`` and the
    reduction pipeline share one index, so they hand out the same kernel and
    image objects and number them alike, and it goes when another (n, r) is
    indexed.  Callers only read it (its product table fills on demand)."""
    parts = _sorted_partitions(n, r)
    subsets = list(enumerate_subsets(n, r))
    subset_id = {s.elements: i for i, s in enumerate(subsets)}
    transversal_ids: list[list[int]] = []
    all_labels: list[Permutation] = []
    buckets: dict[tuple[int, int, tuple[int, ...]], list[int]] = {}
    rows: list[list[tuple[int, int, list[int]]]] = []
    for pi, p in enumerate(parts):
        trans = p.transversals()
        ids = [subset_id[a.elements] for a in trans]
        perms = [label_by_subscripts(p, a) for a in trans]
        all_labels += perms
        labels = [lam.images for lam in perms]
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
    return _SingularIndex(n, r, parts, subsets, transversal_ids, all_labels, buckets, rows)


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
    holds k(k-1) proper singular squares, the presentation's bottom family
    (:meth:`_SingularIndex.family_sizes`).  Proper singular squares come in
    orbits of four under swapping (P,Q) and swapping (A,B); the unordered
    count divides by that.
    """
    _check(n, r)
    index = _singular_index(n, r)
    per_subset = Counter(a for ids in index.transversal_ids for a in ids)
    per_pair: dict[tuple[int, int], int] = {}
    for (a, b, _), kernels in index.buckets.items():
        per_pair[(a, b)] = per_pair.get((a, b), 0) + len(kernels)
    sigma = index.family_sizes()[2]
    proper = sum(m * (m - 1) for m in per_pair.values())
    squares = sum(m * m for m in per_subset.values()) + sum(m * m for m in per_pair.values())
    if sigma % 4:
        raise VerificationFailed(f"{sigma} proper singular squares do not fall in orbits of 4")
    return SquareCensus(
        n=n,
        r=r,
        partitions=len(index.parts),
        subsets=len(index.subsets),
        transversal_pairs=len(index.labels),
        squares=squares,
        proper_squares=proper,
        singular_proper=sigma,
        singular_proper_unordered=sigma // 4,
        singular_degenerate=squares - proper,
    )


def label_spectrum(n: int, r: int) -> dict[Permutation, int]:
    """How many (kernel, image) pairs carry each permutation as label."""
    _check(n, r)
    return Counter(_singular_index(n, r).labels)


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
    kernels, lams = [], iter(index.labels)  # the pairs' labels, in pair order
    for p, ids, row in zip(index.parts, index.transversal_ids, index.rows):
        labels = {a: encode(next(lams).cycle_form()) for a in ids}
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
