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

import itertools
import json
from collections import Counter
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Sequence

from .combinatorics import Partition, Subset, enumerate_partitions, enumerate_subsets
from .errors import InvalidParameters, NotASquare, VerificationFailed
from .frozen import Frozen
from .labels import label, pick_label
from .perms import ProductTable, compose, cycle_form, invert

CORNERS = ("PA", "PB", "QA", "QB")


class Square(Frozen):
    """Ordered square: kernels (P, Q), images (A, B), all cross-transversal."""

    def __init__(self, kernels: tuple[Partition, Partition], images: tuple[Subset, Subset]):
        p, q = kernels
        a, b = images
        if not (p.n == q.n == a.n == b.n):
            raise NotASquare("kernels and images live on different ground sets")
        if not (len(p) == len(q) == len(a) == len(b)):
            raise NotASquare("kernel block counts and image sizes disagree")
        for part in (p, q):
            for img in (a, b):
                if not part.meets_once(img):
                    raise NotASquare(f"{img} is not a transversal of {part}")
        self.__dict__.update(kernels=kernels, images=images)

    @classmethod
    def _trusted(cls, kernels: tuple[Partition, Partition], images: tuple[Subset, Subset]) -> "Square":
        """A square whose corners are already known to be transversal pairs.

        Skips the checks of the constructor; only for squares built from
        enumerated transversals, never for outside input.
        """
        sq = object.__new__(cls)
        sq.__dict__.update(kernels=kernels, images=images)
        return sq

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kernels == other.kernels and self.images == other.images

    def __hash__(self) -> int:
        return hash((self.kernels, self.images))

    @property
    def n(self) -> int:
        return self.kernels[0].n

    @property
    def r(self) -> int:
        return len(self.kernels[0])

    def corner_pairs(self) -> tuple[tuple[Partition, Subset], ...]:
        p, q = self.kernels
        a, b = self.images
        return ((p, a), (p, b), (q, a), (q, b))

    @cached_property
    def corner_labels(self) -> tuple[tuple[int, ...], ...]:
        """The labels of the corners PA, PB, QA and QB."""
        return tuple(label(k, i) for k, i in self.corner_pairs())

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
    return compose(invert(la), lb) == compose(invert(lc), ld)


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


class _SingularIndex:
    """Kernels bucketed by their SQ3 signature over each ordered image pair.

    ``buckets`` maps (a, b, label(P,A)^-1 label(P,B)) to the ascending indices
    into ``parts`` of the kernels P with A, B among their transversals, where
    a and b index A and B in ``subsets``.  ``rows[i]`` lists, for kernel i,
    every (a, b, bucket) with a != b, so each bucket list is shared between
    the rows of its kernels; it is built on first use, as only the bottom
    family's read and the square enumerator need it.

    The (kernel, image) pairs are numbered kernel by kernel in ``parts``
    order, each kernel's transversals in ``transversal_ids`` order: the
    generator order of :func:`~igmax.presentation.build_presentation`.
    ``labels[g]`` is the label of pair g.  The trust path holds kernels,
    images and generators as these ids.  It finds a kernel's id by its
    ``block_of`` string (``kernel_of``, :meth:`kernel_id`) and an image's by
    its bit mask (``image_of``), the one lookup of each kind; the top and
    middle relations are the id tables ``top_of`` and ``min_image``.  These
    tables, and the ones the id singularity test reads, are built on first
    use, so ``stats`` and ``squares`` never build them.
    """

    def __init__(self, n: int, r: int, parts: list[Partition], subsets: list[Subset],
                 transversal_ids: list[list[int]], labels: list[tuple[int, ...]], buckets: dict):
        self.n, self.r, self.parts, self.subsets = n, r, parts, subsets
        self.transversal_ids, self.labels, self.buckets = transversal_ids, labels, buckets

    @cached_property
    def rows(self) -> list[list[tuple[int, int, list[int]]]]:
        """``rows[i]``: every (a, b, bucket) of kernel i, in bucket order."""
        rows: list[list[tuple[int, int, list[int]]]] = [[] for _ in self.parts]
        for (a, b, _), bucket in self.buckets.items():
            for i in bucket:
                rows[i].append((a, b, bucket))
        return rows

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
            ids.append(intern(lam))
            ids.append(intern(invert(lam)))
        return ids

    @cached_property
    def letters(self) -> list[int]:
        """``letters[x]`` is the int letter x, 2*g for pair g and 2*g + 1 for
        its inverse: words that take their letters from this list share one
        int object per letter, where ints above 256 are each a new object."""
        return list(range(2 * len(self.labels)))

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

    @cached_property
    def kernel_of(self) -> dict[bytes, int]:
        """The id of each kernel, keyed by its ``block_of`` string: blocks
        are numbered by their minima, so each kernel has one such string."""
        return {key: k for k, key in enumerate(self.block_of)}

    @cached_property
    def image_mask(self) -> list[int]:
        """``image_mask[a]``: the sum of the bits 1 << x over image a's elements x."""
        return [sum(1 << x for x in s.elements) for s in self.subsets]

    @cached_property
    def image_of(self) -> dict[int, int]:
        """The id of each image, keyed by its ``image_mask``."""
        return {mask: a for a, mask in enumerate(self.image_mask)}

    def kernel_id(self, s: bytearray) -> int:
        """The id of the kernel that puts each x of [1, n] in the block named
        ``s[x]``, any name below 256; ``s`` may be overwritten.

        A kernel's ``block_of`` string numbers its blocks in the order of their
        minima, so ``s`` is looked up as it is first: a move that keeps that
        order hits.  Otherwise the blocks are renumbered in the order their
        names first appear, which is the order of their minima, and looked up
        again; neither needs sorting.  InvalidParameters when ``s`` names no
        kernel of the index.
        """
        k = self.kernel_of.get(bytes(s))
        if k is None:
            s[0] = s[1]  # block_of[k][0] is 0, the block of 1
            order = bytes(dict.fromkeys(s))
            key = bytes(s.translate(bytes.maketrans(order, bytes(range(len(order))))))
            k = self.kernel_of.get(key)
            if k is None:
                raise InvalidParameters(f"{list(key[1:])} names none of the {len(self.parts)} kernels of this index")
        return k

    def kernel_with(self, blocks: Sequence[Sequence[int]]) -> int:
        """The id of the kernel with these blocks, given in any order;
        InvalidParameters unless they split [1, n] into one of its kernels."""
        if sorted(x for block in blocks for x in block) != list(range(1, self.n + 1)):
            raise InvalidParameters(f"{blocks} does not split [1, {self.n}] into blocks")
        s = bytearray(self.n + 1)
        for i, block in enumerate(blocks, start=1):
            for x in block:
                s[x] = i
        return self.kernel_id(s)

    def image_with(self, elements: Sequence[int]) -> int:
        """The id of the image with these elements, given in any order."""
        a = self.image_of.get(sum(1 << x for x in elements))
        if a is None:
            raise InvalidParameters(f"{sorted(elements)} is not one of the {len(self.subsets)} images of this index")
        return a

    @cached_property
    def top_of(self) -> list[Optional[tuple[int, int]]]:
        """``top_of[y]``: the ids (P, X) of image y's top relation
        f[P,X] = f[P,Y], None for the base image [1, r].  X, the predecessor
        of Y, lowers by one the element of Y at the least position where Y
        differs from [1, r], and P, Y's convex kernel, cuts [1, n] just after
        each element of Y but the last (``LOG_FORMAT.md``)."""
        out = []
        for s, mask in zip(self.subsets, self.image_mask):
            x = next((x for i, x in enumerate(s.elements, start=1) if x != i), None)
            # z's block in Y's convex kernel: the elements of Y but the last below z
            cut = bytes(sum(y < z for y in s.elements[:-1]) for z in range(self.n + 1))
            # x is in Y and x - 1 is not
            out.append(None if x is None else (self.kernel_of[cut], self.image_of[mask ^ (3 << (x - 1))]))
        return out

    @cached_property
    def min_image(self) -> list[int]:
        """``min_image[k]``: the image of kernel k's block minima, whose pair
        with k is 1 by the middle relation."""
        return [self.image_with(p.minima) for p in self.parts]

    def singular_squares(self) -> Iterator[tuple[int, int, int, int]]:
        """The proper singular squares as ids (p, q, a, b), read off
        ``rows`` in (P, Q, A, B) order: kernel P by kernel P, each kernel's
        (Q, A, B) sorted."""
        for p, row in enumerate(self.rows):
            for q, a, b in sorted([(q, a, b) for a, b, bucket in row for q in bucket if q != p]):
                yield p, q, a, b

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
    """Memoised: the relation families, the producer, the checker and the
    square enumerator share one index, so they number kernels, images and
    pairs alike, and it goes when another (n, r) is indexed.  Callers only
    read it (its id tables and product table fill on demand).

    Each kernel's transversals are made as picks of one element per block,
    so each is a transversal and its label is read off the pick unchecked
    (:func:`~igmax.labels.pick_label`); pairs with equal labels share one
    label tuple, and each distinct quotient label^-1 label' is composed
    once."""
    parts = _sorted_partitions(n, r)
    subsets = list(enumerate_subsets(n, r))
    subset_id = {s.elements: i for i, s in enumerate(subsets)}
    transversal_ids: list[list[int]] = []
    all_labels: list[tuple[int, ...]] = []
    buckets: dict[tuple[int, int, tuple[int, ...]], list[int]] = {}
    # each distinct label once, with the quotients label^-1 label' met so far
    label_id: dict[tuple[int, ...], int] = {}
    distinct: list[tuple[int, ...]] = []
    quotients: list[dict[int, tuple[int, ...]]] = []
    for pi, p in enumerate(parts):
        # p's transversals as (image id, pick), in image order
        found = sorted((subset_id[tuple(sorted(pick))], pick) for pick in itertools.product(*p.blocks))
        ids, lids = [a for a, _ in found], []
        for a, pick in found:
            lam = pick_label(pick, subsets[a].elements)
            i = label_id.get(lam)
            if i is None:
                i = label_id[lam] = len(distinct)
                distinct.append(lam)
                quotients.append({})
            lids.append(i)
            all_labels.append(distinct[i])
        for a, i in zip(ids, lids):
            quotient = quotients[i]
            for b, j in zip(ids, lids):
                if a != b:
                    q = quotient.get(j)
                    if q is None:
                        q = quotient[j] = compose(invert(distinct[i]), distinct[j])
                    buckets.setdefault((a, b, q), []).append(pi)
        transversal_ids.append(ids)
    return _SingularIndex(n, r, parts, subsets, transversal_ids, all_labels, buckets)


def enumerate_singular_squares(n: int, r: int) -> Iterator[Square]:
    """The proper singular squares (P != Q and A != B), same order.

    Degenerate squares pass the singularity tests trivially and are
    excluded here; census counts report them separately.  The squares come
    from the SQ3 buckets of the module docstring, through
    :meth:`_SingularIndex.singular_squares`.
    """
    _check(n, r)
    index = _singular_index(n, r)
    parts, subsets = index.parts, index.subsets
    for p, q, a, b in index.singular_squares():
        yield Square._trusted((parts[p], parts[q]), (subsets[a], subsets[b]))


class SquareCensus(Frozen):
    """The counts of :func:`square_census`, one field each, in ``to_json`` order."""

    __slots__ = (
        "n", "r", "partitions", "subsets", "transversal_pairs", "squares", "proper_squares",
        "singular_proper", "singular_proper_unordered", "singular_degenerate",
    )

    def __init__(self, **counts: int):
        if counts.keys() != set(self.__slots__):
            raise TypeError(f"SquareCensus needs exactly the counts {', '.join(self.__slots__)}")
        for name in self.__slots__:
            object.__setattr__(self, name, counts[name])

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


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


def label_spectrum(n: int, r: int) -> dict[tuple[int, ...], int]:
    """How many (kernel, image) pairs carry each permutation as label."""
    _check(n, r)
    return Counter(_singular_index(n, r).labels)


def square_record(sq: Square) -> dict:
    """The record of ``schemas/square-record.schema.json`` for ``sq``."""
    record = sq.to_json()
    record["labels"] = {
        name: cycle_form(lam) for name, lam in zip(CORNERS, sq.corner_labels)
    }
    record["singular"] = is_singular_sq3(sq)
    return record


# ``square_record`` encoded with sorted keys and no spaces, its values filled in
_LINE = (
    '{"A":%s,"B":%s,"P":%s,"Q":%s,'
    '"labels":{"PA":%s,"PB":%s,"QA":%s,"QB":%s},"singular":%s}\n'
)


def square_lines(n: int, r: int, only_singular: bool) -> Iterator[str]:
    """The lines of the ``squares`` stream, read off the SQ3 index.

    Equal to ``square_record`` over ``enumerate_squares``, filtered by
    ``is_singular_sq3`` when ``only_singular``, in the same (P, Q, A, B)
    order, each encoded by ``json.dumps(record, sort_keys=True,
    separators=(",", ":"))`` and ended by a newline, so each line is one
    record of ``schemas/square-record.schema.json``.  Each kernel's and
    image's JSON and each distinct label's cycle form are encoded once, not
    once per square or pair, and a line fills the record's template with
    them.  A proper square is singular exactly when its two
    kernels share the bucket for (A, B), whose key is
    label(P,A)^-1 label(P,B): that is the SQ3 test.
    """
    _check(n, r)
    index = _singular_index(n, r)
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    subset_json = [encode(s.to_json()) for s in index.subsets]
    # each kernel's bucket for each (a, b)
    buckets: list[dict[tuple[int, int], list[int]]] = [{} for _ in index.parts]
    for (a, b, _), bucket in index.buckets.items():
        for i in bucket:
            buckets[i][a, b] = bucket
    texts = {lam: encode(cycle_form(lam)) for lam in set(index.labels)}
    kernels, lams = [], iter(index.labels)  # the pairs' labels, in pair order
    for p, ids, p_buckets in zip(index.parts, index.transversal_ids, buckets):
        labels = {a: texts[next(lams)] for a in ids}
        kernels.append((encode(p.to_json()), ids, labels, p_buckets))
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
