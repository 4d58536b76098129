"""Group presentations: the big generating presentation, the Coxeter target,
and the word operations the reduction rewrites with (free reduction,
substitution).

Generators of the big presentation are the transversal pairs themselves;
abstract symbols appear only in the Coxeter target and after final
renaming.  Relations are equations (pairs of words), not relators, and
carry a provenance tag:

``top``     pairs of generators sharing a kernel whose canonical words
            differ by exactly the appended letter;
``middle``  the block-minima generator of each kernel is trivial;
``bottom``  one relation per ordered proper singular square;
``derived`` produced by the reduction pipeline;
``coxeter`` the target relations.

Words multiply left to right, like everything else in the package.

A :class:`GroupPresentation` holds its relations as int letter words:
generator i is the letter ``2*i`` and its inverse ``2*i + 1``, the encoding
the coset enumerator works in.  :class:`Relation` objects, with
:class:`GeneratorId` letters, are made only when ``relations`` is read (by
``igmax present``, the boundary checks and the tests).  The bottom family of
:func:`build_presentation` is lazy: it is counted off the SQ3 buckets and
its squares are enumerated only when a bottom relation is first asked for.
Whether it holds on labels is read off the buckets, one product per
member (:meth:`GroupPresentation.label_equations`), so ``reduce``,
``replay`` and ``verify``'s replay never enumerate it on a passing run, and
the coset oracle reads it once, as ints.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Union

from .combinatorics import Partition, Subset, require_transversal
from .errors import InvalidParameters, VerificationFailed
from .labels import label_by_subscripts
from .perms import Permutation, ProductTable, invert
from .schreier import convex_partition_of, predecessor
from .squares import _singular_index, enumerate_singular_squares

# Not called here: perfbench/trace_run.py wraps this name in this module.
from .schreier import build_schreier  # noqa: F401


@dataclass(frozen=True)
class GeneratorId:
    """A concrete generator named by its (kernel, image) pair.

    The label rides along for cheap access but is excluded from equality;
    two ids with the same pair are the same generator.
    """

    partition: Partition
    subset: Subset
    label: Permutation = field(compare=False)

    def __post_init__(self) -> None:
        require_transversal(self.subset, self.partition)
        if self.label != label_by_subscripts(self.partition, self.subset):
            raise InvalidParameters(f"stored label does not match recomputation for {self}")

    @classmethod
    def of(cls, partition: Partition, subset: Subset, label: Optional[Permutation] = None) -> "GeneratorId":
        """The generator of a pair, its label computed (and the pair checked)
        once; or, when ``label`` is given, taken as the label of a pair
        already known to be transversal."""
        g = object.__new__(cls)
        g.__dict__.update(
            partition=partition,
            subset=subset,
            label=label_by_subscripts(partition, subset) if label is None else label,
        )
        return g

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.partition, self.subset))

    def display(self) -> str:
        return f"f[{self.partition}|{self.subset}]"

    def __str__(self) -> str:
        return self.display()


@dataclass(frozen=True)
class AbstractGenerator:
    name: str

    def display(self) -> str:
        return self.name

    def __str__(self) -> str:
        return self.name


Gen = Union[GeneratorId, AbstractGenerator]
GroupWord = tuple[tuple[Gen, int], ...]


def free_reduce(word: GroupWord) -> GroupWord:
    """Cancel adjacent inverse pairs until none remain.

    >>> g, h = AbstractGenerator("g"), AbstractGenerator("h")
    >>> free_reduce(((g, 1), (g, -1), (h, 1)))
    ((AbstractGenerator(name='h'), 1),)
    """
    out: list[tuple[Gen, int]] = []
    for letter in word:
        gen, exp = letter
        if exp not in (1, -1):
            raise InvalidParameters(f"exponent must be +-1, got {exp}")
        if out and out[-1][0] == gen and out[-1][1] == -exp:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def inverse_word(word: GroupWord) -> GroupWord:
    return tuple((gen, -exp) for gen, exp in reversed(word))


def concat(*words: GroupWord) -> GroupWord:
    joined: list[tuple[Gen, int]] = []
    for w in words:
        joined.extend(w)
    return free_reduce(tuple(joined))


def substitute(word: GroupWord, gen: Gen, replacement: GroupWord, letters=None) -> GroupWord:
    """Replace every occurrence of ``gen`` (either sign) and freely reduce.

    The result reuses the letters of ``word`` and ``replacement``.  The
    inverse's letters are new tuples, or ``letters[g, e]`` when a mapping
    ``letters`` is given, so that a caller keeping one tuple per letter
    gets its own.
    """
    if letters is None:
        rep_inv = inverse_word(replacement)
    else:
        rep_inv = tuple(letters[g, -e] for g, e in reversed(replacement))
    out: list[tuple[Gen, int]] = []
    for letter in word:
        if letter[0] == gen:
            out.extend(replacement if letter[1] == 1 else rep_inv)
        else:
            out.append(letter)
    return free_reduce(tuple(out))


def word_str(word: GroupWord) -> str:
    if not word:
        return "1"
    return " * ".join(g.display() + ("^-1" if e < 0 else "") for g, e in word)


@dataclass(frozen=True, slots=True)
class Relation:
    lhs: GroupWord
    rhs: GroupWord
    tag: str

    def relator(self) -> GroupWord:
        return concat(self.lhs, inverse_word(self.rhs))

    def __str__(self) -> str:
        return f"{word_str(self.lhs)} = {word_str(self.rhs)}"


def canonical_relator_key(rel: Relation):
    """Key identifying a relation up to rotation, inversion and side-swap."""
    rho = rel.relator()
    if not rho:
        return ()
    variants = []
    for base in (rho, inverse_word(rho)):
        for i in range(len(base)):
            rotated = base[i:] + base[:i]
            variants.append(tuple((_gen_key(g), e) for g, e in rotated))
    return min(variants)


def _gen_key(gen: Gen):
    if isinstance(gen, AbstractGenerator):
        return (0, gen.name)
    return (1, gen.subset.elements, gen.partition.blocks)


class GroupPresentation:
    """Generators, relations over them, and a ``meta`` dict.

    Relations are held as int letter words: letter ``2*i`` is generator i of
    ``generators`` and ``2*i + 1`` its inverse, so ``letter ^ 1`` inverts a
    letter and ``letter >> 1`` names its generator.  :meth:`letters` gives
    one relation's two sides that way and ``relation_count`` their number;
    ``relations`` gives them as :class:`Relation` objects, made on first
    read.  A presentation made by hand from Relation objects converts them
    to letters when it is made; :func:`build_presentation` writes letters
    and reads its bottom family only when a relation of it is asked for,
    which :meth:`label_equations` does only when a bucket disagrees.
    """

    def __init__(self, generators, relations, meta: Optional[dict] = None):
        self.generators: tuple[Gen, ...] = tuple(generators)
        self.meta: dict = {} if meta is None else meta
        self._relations: Optional[tuple[Relation, ...]] = tuple(relations)
        number = {g: i for i, g in enumerate(self.generators)}

        def letters(word: GroupWord) -> tuple[int, ...]:
            return tuple(2 * number[g] + (e < 0) for g, e in word)

        self._words = [(letters(rel.lhs), letters(rel.rhs)) for rel in self._relations]
        self._tags = [rel.tag for rel in self._relations]
        # the relations after ``_words``: all tagged bottom, four letters each
        # in ``_corners`` once ``_read_bottom`` has filled it
        self._bottom = 0
        self._corners: Optional[array] = None
        self._read_bottom: Optional[Callable[[], array]] = None
        self._bucket_letters, self._bucket_ends = array("i"), array("i")

    @classmethod
    def _of_letters(
        cls,
        generators: tuple[Gen, ...],
        words: list[tuple[tuple[int, ...], tuple[int, ...]]],
        tags: list[str],
        bottom: int,
        read_bottom: Callable[[], array],
        bucket_letters: array,
        bucket_ends: array,
        meta: dict,
    ) -> "GroupPresentation":
        """``words`` tagged ``tags``, then ``bottom`` relations p^-1 q = s^-1 t
        whose letters ``read_bottom()`` returns flat, four per relation.

        The bottom relations fall into buckets: in each, the relations are
        x_P = x_Q for every ordered pair P != Q of the bucket's members,
        where x_P = p^-1 q.  ``bucket_letters`` holds the letters p^-1 and q
        of each member's x_P, two per member, bucket after bucket, and
        ``bucket_ends`` the offset in it where each bucket ends.
        """
        pres = cls.__new__(cls)
        pres.generators, pres.meta, pres._relations = generators, meta, None
        pres._words, pres._tags = words, tags
        pres._bottom, pres._corners, pres._read_bottom = bottom, None, read_bottom
        pres._bucket_letters, pres._bucket_ends = bucket_letters, bucket_ends
        return pres

    @property
    def relation_count(self) -> int:
        return len(self._words) + self._bottom

    def letters(self, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The int letters of relation ``i``'s two sides."""
        words = self._words
        if i < len(words):
            return words[i]
        c = self._bottom_letters()
        k = 4 * (i - len(words))
        return (c[k], c[k + 1]), (c[k + 2], c[k + 3])

    def _bottom_letters(self) -> array:
        """The bottom family's letters, four per relation, read on first use."""
        c = self._corners
        if c is None:
            c = self._read_bottom()
            if len(c) != 4 * self._bottom:
                raise VerificationFailed(
                    f"the bottom family holds {len(c) // 4} relations, not the {self._bottom} counted"
                )
            self._corners = c
        return c

    def label_equations(self, table: ProductTable, label_ids: list[int]) -> bytearray:
        """Byte i is 1 when relation i's two sides have equal labels in
        ``table``, its letters read as ``label_ids`` (see
        :func:`letter_label_ids`).  Each word is evaluated.  The bottom
        family is checked per bucket (see :meth:`_of_letters`): all its
        relations x_P = x_Q hold exactly when every member P of every bucket
        gives x_P the same label, one product per member, and then the
        family is not read.  Otherwise each bottom relation p^-1 q = s^-1 t
        takes two products, so the bytes that are 0 name the relations that
        fail."""
        evaluate, product = table.evaluate, table.product
        out = bytearray(self.relation_count)
        words = len(self._words)
        for i, (lhs, rhs) in enumerate(self._words):
            out[i] = evaluate(lhs, label_ids) == evaluate(rhs, label_ids)
        if not self._bottom:
            return out
        if self._buckets_agree(product, label_ids):
            out[words:] = b"\x01" * self._bottom
            return out
        c = iter(self._bottom_letters())
        for i, (p, q, s, t) in enumerate(zip(c, c, c, c), start=words):
            out[i] = product(label_ids[p], label_ids[q]) == product(label_ids[s], label_ids[t])
        return out

    def _buckets_agree(self, product: Callable[[int, int], int], label_ids: list[int]) -> bool:
        """Whether each bucket's members give x_P one label."""
        c, start = self._bucket_letters, 0
        for end in self._bucket_ends:
            x = product(label_ids[c[start]], label_ids[c[start + 1]])
            for k in range(start + 2, end, 2):
                if product(label_ids[c[k]], label_ids[c[k + 1]]) != x:
                    return False
            start = end
        return True

    def tag(self, i: int) -> str:
        return self._tags[i] if i < len(self._words) else "bottom"

    def family(self, tag: str) -> "GroupPresentation":
        """The presentation over the same generators with only the relations
        tagged ``tag``, in order; only ``family("bottom")`` reads the bottom
        relations, through this presentation's own read."""
        keep = [i for i, t in enumerate(self._tags) if t == tag]
        bottom = self._bottom if tag == "bottom" else 0
        return GroupPresentation._of_letters(
            self.generators, [self._words[i] for i in keep], [tag] * len(keep), bottom, self._bottom_letters,
            self._bucket_letters, self._bucket_ends, self.meta,
        )

    @property
    def relations(self) -> tuple[Relation, ...]:
        if self._relations is None:
            gens = self.generators

            def word(letters: tuple[int, ...]) -> GroupWord:
                return tuple((gens[x >> 1], -1 if x & 1 else 1) for x in letters)

            self._relations = tuple(
                Relation(word(lhs), word(rhs), self.tag(i))
                for i, (lhs, rhs) in enumerate(map(self.letters, range(self.relation_count)))
            )
        return self._relations

    def to_json(self) -> dict:
        index = {g: i for i, g in enumerate(self.generators)}

        def gen_json(g: Gen) -> dict:
            if isinstance(g, AbstractGenerator):
                return {"kind": "abstract", "name": g.name}
            return {
                "kind": "pair",
                "P": g.partition.to_json(),
                "A": g.subset.to_json(),
                "label": g.label.cycle_form(),
            }

        def word_json(w: GroupWord) -> list:
            return [[index[g], e] for g, e in w]

        return {
            "generators": [gen_json(g) for g in self.generators],
            "relations": [
                {"lhs": word_json(rel.lhs), "rhs": word_json(rel.rhs), "tag": rel.tag}
                for rel in self.relations
            ],
            "meta": dict(self.meta),
        }


def letter_label_ids(generators: tuple[GeneratorId, ...], table: ProductTable) -> list[int]:
    """The id in ``table`` of each int letter's label: generator i's label at
    ``2*i``, its inverse at ``2*i + 1``.  A relation then holds on the labels
    when ``table.evaluate`` gives its two sides the same id."""
    ids: list[int] = []
    for g in generators:
        ids.append(table.intern(g.label.images))
        ids.append(table.intern(invert(g.label.images)))
    return ids


def presentations_match(a: GroupPresentation, b: GroupPresentation) -> bool:
    """Same generator sequence and same relations up to rotation/inversion."""
    if tuple(g.display() for g in a.generators) != tuple(g.display() for g in b.generators):
        return False
    return sorted(map(canonical_relator_key, a.relations)) == sorted(
        map(canonical_relator_key, b.relations)
    )


def build_presentation(n: int, r: int) -> GroupPresentation:
    """The full presentation on all (kernel, image) generators.

    Generator i is pair i of ``squares._singular_index``: kernel by kernel
    in its order, each kernel's transversals in its order, each labelled
    with the label the index computed.  The top and middle families,
    O(generators) relations, are written as letters here, on the index's
    ids.  The bottom family, one relation per proper singular square and
    nearly all of the relations, is read from ``enumerate_singular_squares``
    only when a bottom relation is first asked for.  The family sizes in
    ``meta`` are the index's :meth:`~igmax.squares._SingularIndex.family_sizes`,
    which :func:`igmax.pipeline.run_pipeline` and
    :func:`~igmax.squares.square_census` read too.  The buckets' letters,
    two per member, go to the presentation as well, so
    :meth:`GroupPresentation.label_equations` checks the family per bucket
    without reading it.

    Only r <= n-2 is in the theorem's scope; r = n-1 is allowed with a
    warning (its bottom family is empty).
    """
    if not (isinstance(n, int) and isinstance(r, int) and 1 <= r < n):
        raise InvalidParameters(f"need 1 <= r <= n-1, got r={r}, n={n}")
    if r == n - 1:
        warnings.warn(
            f"r = n-1 = {r}: no proper singular squares exist, the bottom family is empty",
            stacklevel=2,
        )
    index = _singular_index(n, r)
    parts, subsets = index.parts, index.subsets
    # the index numbers the pairs in this order and holds their labels
    generators = tuple(
        GeneratorId.of(parts[k], subsets[a], lam) for (k, a), lam in zip(index.pairs, index.labels)
    )
    # letter[i][a]: the letter of the generator of kernel i over image a
    letter = [{a: 2 * g for a, g in row.items()} for row in index.generator_of]

    # word_to(X) extended by the letter (P, Y) is word_to(Y) exactly when X
    # is Y's predecessor and P its convex partition (see igmax.schreier):
    # one top relation per subset Y but the base, in generator order
    words: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for b, y in enumerate(subsets):
        x = predecessor(y)
        if x is not None:
            row = letter[index.kernel_ids[convex_partition_of(y).blocks]]
            words.append(((row[index.image_ids[x.elements]],), (row[b],)))
    words.sort()
    tags = ["top"] * len(words)
    for i, p in enumerate(parts):
        words.append(((letter[i][index.image_ids[p.minima]],), ()))
        tags.append("middle")
    # the bottom family is the square relations x_P = x_Q of every bucket of
    # at least two kernels, x_P = f[P,A]^-1 f[P,B]
    top, middle, bottom = index.family_sizes()
    bucket_letters, bucket_ends = array("i"), array("i")
    for (a, b, _), kernels in index.buckets.items():
        if len(kernels) > 1:
            for i in kernels:
                bucket_letters.extend((letter[i][a] + 1, letter[i][b]))
            bucket_ends.append(len(bucket_letters))
    # a generator object: no square is made before the family is read
    squares = enumerate_singular_squares(n, r)

    def read_bottom() -> array:
        rows = {p: {subsets[a]: x for a, x in row.items()} for p, row in zip(parts, letter)}
        corners = array("i")
        for sq in squares:
            (p, q), (a, b) = sq.kernels, sq.images
            rp, rq = rows[p], rows[q]
            corners.extend((rp[a] + 1, rp[b], rq[a] + 1, rq[b]))
        return corners

    return GroupPresentation._of_letters(
        generators,
        words,
        tags,
        bottom,
        read_bottom,
        bucket_letters,
        bucket_ends,
        {
            "n": n,
            "r": r,
            "top_ordered": top,
            "top_distinct": top,
            "middle": middle,
            "bottom": bottom,
        },
    )


def coxeter_generators(r: int) -> tuple[AbstractGenerator, ...]:
    return tuple(AbstractGenerator(f"g{k}") for k in range(1, r))


def coxeter_presentation(r: int) -> GroupPresentation:
    """Adjacent-transposition presentation of the degree-r symmetric group.

    Relation order: involutions ascending, braid pairs ascending, then
    commuting pairs in lex order.

    >>> p = coxeter_presentation(4)
    >>> [rel.tag for rel in p.relations].count("coxeter")
    6
    """
    if r < 1:
        raise InvalidParameters(f"degree must be >= 1, got {r}")
    gens = coxeter_generators(r)
    rels: list[Relation] = []
    for k in range(r - 1):
        rels.append(Relation(((gens[k], 1), (gens[k], 1)), (), "coxeter"))
    for k in range(r - 2):
        a, b = gens[k], gens[k + 1]
        rels.append(
            Relation(((a, 1), (b, 1), (a, 1)), ((b, 1), (a, 1), (b, 1)), "coxeter")
        )
    for k in range(r - 1):
        for l in range(k + 2, r - 1):
            a, b = gens[k], gens[l]
            rels.append(Relation(((a, 1), (b, 1)), ((b, 1), (a, 1)), "coxeter"))
    return GroupPresentation(gens, tuple(rels), meta={"r": r, "kind": "coxeter"})
