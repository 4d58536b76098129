"""Group presentations: the big generating presentation, the Coxeter target,
and the int letter word operations that the producer, the checker and the
coset oracle share (inverse, free reduction, substitution, relators and
their keys).

Generators of the big presentation are the transversal pairs themselves;
abstract symbols appear only in the Coxeter target.  Relations are
equations (pairs of words), not relators, and carry a provenance tag:

``top``     f[P,X] = f[P,Y] for each image Y but [1, r], with X its
            predecessor and P its convex kernel (the index's ``top_of``);
``middle``  the block-minima generator of each kernel is trivial (the
            index's ``min_image``);
``bottom``  one relation per ordered proper singular square;
``coxeter`` the target relations.

Words multiply left to right, like everything else in the package.

Relations are held as int letter words (:class:`RelationFamilies`):
generator i is the letter ``2*i`` and its inverse ``2*i + 1``, the encoding
the coset enumerator works in.  :func:`relation_families` writes the
(n, r) relations that way off the SQ3 index's id tables, with no
generator, kernel or image object and no Schreier word.
A :class:`GroupPresentation` puts generator objects beside them for
``present`` to print; :class:`Relation` objects, with :class:`GeneratorId`
letters, are made only when its ``relations`` is read (by the tests and the
benchmark's baseline table).  The bottom family is lazy: it is
counted off the SQ3 buckets and read off the index's rows only when a
bottom relation is first asked for.  Whether it holds on labels is read off
the buckets, one product per member
(:meth:`RelationFamilies.label_failures`), so ``replay`` and ``verify``'s
replay never read it on a passing run.  The coset oracle reads none of it:
it enumerates on a spanning subfamily made off the buckets
(:meth:`RelationFamilies.spanning_bottom`) and checks the whole family on
its closed table per bucket.
"""

from __future__ import annotations

from array import array
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Optional, Union

from .combinatorics import Partition, Subset
from .errors import InvalidParameters, VerificationFailed
from .frozen import Frozen
from .labels import label
from .perms import ProductTable, cycle_form
from .squares import _singular_index, _SingularIndex

# Not called here: perfbench/trace_run.py wraps these two names in this module.
from .schreier import build_schreier  # noqa: F401
from .squares import enumerate_singular_squares  # noqa: F401


class GeneratorId(Frozen):
    """A concrete generator named by its (kernel, image) pair.

    The label rides along for cheap access but is excluded from equality;
    two ids with the same pair are the same generator.
    """

    @classmethod
    def of(cls, partition: Partition, subset: Subset, lam: Optional[tuple[int, ...]] = None) -> "GeneratorId":
        """The generator of a pair, its label computed (and the pair checked)
        once; or, when ``lam`` is given, taken as the label of a pair
        already known to be transversal."""
        g = object.__new__(cls)
        g.__dict__.update(
            partition=partition,
            subset=subset,
            label=label(partition, subset) if lam is None else lam,
        )
        return g

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.partition == other.partition and self.subset == other.subset

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.partition, self.subset))

    def display(self) -> str:
        return f"f[{self.partition}|{self.subset}]"

    def __str__(self) -> str:
        return self.display()


class AbstractGenerator(Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash((self.name,))

    def display(self) -> str:
        return self.name

    def __str__(self) -> str:
        return self.name


Gen = Union[GeneratorId, AbstractGenerator]
GroupWord = tuple[tuple[Gen, int], ...]


class Relation(Frozen):
    __slots__ = ("lhs", "rhs", "tag")

    def __init__(self, lhs: GroupWord, rhs: GroupWord, tag: str):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "tag", tag)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.lhs == other.lhs and self.rhs == other.rhs and self.tag == other.tag

    def __hash__(self) -> int:
        return hash((self.lhs, self.rhs, self.tag))


# ---------------------------------------------------------------------------
# int letter words
# ---------------------------------------------------------------------------
#
# Generator g is the letter 2*g and its inverse 2*g + 1, so ``x ^ 1`` inverts
# a letter and ``x >> 1`` names its generator.  A caller that keeps one int
# object per letter, such as the index's ``letters``, passes that list as
# ``letters``, and the letters made here are taken from it.

Word = tuple[int, ...]


def inverse(word: Word, letters: Optional[list[int]] = None) -> Word:
    """The inverse of ``word``.

    >>> inverse((0, 3))
    (2, 1)
    """
    if letters is None:
        return tuple([x ^ 1 for x in reversed(word)])
    return tuple([letters[x ^ 1] for x in reversed(word)])


def free_reduce(word: Iterable[int]) -> Word:
    """Cancel adjacent inverse letters until none remain.

    >>> free_reduce((0, 1, 2))
    (2,)
    """
    out: list[int] = []
    for x in word:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def substitute(word: Word, g: int, replacement: Word, letters: Optional[list[int]] = None) -> Word:
    """Replace each letter of generator ``g`` by ``replacement``, or by its
    inverse for the letter of g^-1, and freely reduce."""
    rep_inv = inverse(replacement, letters)
    out: list[int] = []
    for x in word:
        if x >> 1 == g:
            out.extend(rep_inv if x & 1 else replacement)
        else:
            out.append(x)
    return free_reduce(out)


def relator(lhs: Word, rhs: Word) -> Word:
    """The relator lhs * rhs^-1 of the relation lhs = rhs, freely reduced."""
    return free_reduce(lhs + inverse(rhs))


def relator_key(lhs: Word, rhs: Word = ()) -> Word:
    """One key for the relation lhs = rhs up to rotation, inversion and side
    swap: the least rotation of its relator and of the relator's inverse.

    >>> relator_key((2, 0), (0, 2)) == relator_key((0, 2), (2, 0)) == relator_key((0, 2, 1, 3))
    True
    """
    rho = relator(lhs, rhs)
    return min([w[k:] + w[:k] for w in (rho, inverse(rho)) for k in range(len(w))], default=())


def word_text(word: Word, names: Callable[[int], str]) -> str:
    """``word`` as text, generator g named ``names(g)`` and an inverse letter
    suffixed ``^-1``; the empty word is ``1``.

    >>> word_text((0, 3), ["g", "h"].__getitem__)
    'g * h^-1'
    """
    return " * ".join(names(x >> 1) + ("^-1" if x & 1 else "") for x in word) or "1"


def word_json(word: Word) -> list[list[int]]:
    """The letters of ``word`` as ``[generator, exponent]`` pairs, as the log
    and a presentation's JSON document write them."""
    return [[x >> 1, -1 if x & 1 else 1] for x in word]


class RelationFamilies:
    """Relations as int letter words: letter ``2*i`` is generator i and
    ``2*i + 1`` its inverse, so ``letter ^ 1`` inverts a letter and
    ``letter >> 1`` names its generator.

    ``words`` holds the first relations' two sides, tagged ``tags``, over
    generators numbered 0 to ``generator_count - 1``.  After
    them come ``bottom`` relations p^-1 q = s^-1 t, tagged bottom, whose
    letters ``read_bottom()`` returns flat, four per relation, when one of
    them is first asked for.  They fall into buckets: in each, the relations
    are x_P = x_Q for every ordered pair P != Q of the bucket's members,
    where x_P = p^-1 q.  ``bucket_letters`` holds the letters p^-1 and q of
    each member's x_P, two per member, bucket after bucket, and
    ``bucket_ends`` the offset in it where each bucket ends.
    """

    def __init__(
        self, words, tags, bottom=0, read_bottom=None, bucket_letters=(), bucket_ends=(), generator_count=0
    ):
        self.words, self.tags, self.bottom, self._read_bottom = words, tags, bottom, read_bottom
        self.bucket_letters, self.bucket_ends, self._corners = bucket_letters, bucket_ends, None
        self.generator_count = generator_count

    @property
    def relation_count(self) -> int:
        return len(self.words) + self.bottom

    def letters(self, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The int letters of relation ``i``'s two sides."""
        words = self.words
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
            if len(c) != 4 * self.bottom:
                raise VerificationFailed(
                    f"the bottom family holds {len(c) // 4} relations, not the {self.bottom} counted"
                )
            self._corners = c
        return c

    def label_failures(self, table: ProductTable, label_ids: list[int]) -> Callable[[range], Iterator[int]]:
        """``failing(run)``: the relations of ``run``, a range of step 1, whose
        sides have other labels in ``table``, letters read as ``label_ids``.
        A top or middle relation is evaluated.  The bottom family holds when
        the buckets agree (:meth:`buckets_agree`, asked once) and is then not
        read; else each of its relations in ``run`` is evaluated by itself."""
        evaluate, words = table.evaluate, len(self.words)
        agree: Optional[bool] = None

        def failing(run: range) -> Iterator[int]:
            nonlocal agree
            for i in run:
                if i >= words:
                    if agree is None:
                        agree = self.buckets_agree(table.product, label_ids)
                    if agree:
                        return
                lhs, rhs = self.letters(i)
                if evaluate(lhs, label_ids) != evaluate(rhs, label_ids):
                    yield i

        return failing

    def buckets_agree(self, product: Callable[[int, int], int], ids: list[int]) -> bool:
        """Whether each bucket's members give x_P one value, the letters read
        as ``ids`` and multiplied by ``product``: labels in ``replay``, the
        columns of a closed coset table in the coset oracle.  Each member's
        two letters are read once, in both orientations of every bucket."""
        c, start = self.bucket_letters, 0
        for end in self.bucket_ends:
            x = product(ids[c[start]], ids[c[start + 1]])
            for k in range(start + 2, end, 2):
                if product(ids[c[k]], ids[c[k + 1]]) != x:
                    return False
            start = end
        return True

    def spanning_bottom(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """A spanning subfamily of the bottom family: a star per bucket.

        For each bucket (A, B, key) with A before B and members P1 < ... < Pk,
        the k-1 relations x_{P1} = x_{Pi}, i = 2 ... k.  Each relator
        x_P x_Q^-1 of the bucket is (x_{P1} x_P^-1)^-1 (x_{P1} x_Q^-1), a
        product of star relators and their inverses, and the bucket
        (B, A, key^-1) has the same members and the inverse relations, so the
        normal closure is the whole family's: a Tietze move.  A bucket runs
        from A to B with A before B exactly when its first member's
        x_P = p^-1 q has p before q, since a kernel's generators are numbered
        in the order of their images.
        """
        c, start, out = self.bucket_letters, 0, []
        for end in self.bucket_ends:
            first = (c[start], c[start + 1])
            if first[0] >> 1 < first[1] >> 1:
                out += [(first, (c[k], c[k + 1])) for k in range(start + 2, end, 2)]
            start = end
        return out

    def tag(self, i: int) -> str:
        return self.tags[i] if i < len(self.words) else "bottom"

    def family(self, tag: str) -> "RelationFamilies":
        """The relations tagged ``tag``, in order; only ``family("bottom")``
        reads the bottom relations, through this one's own read."""
        keep = [word for word, t in zip(self.words, self.tags) if t == tag]
        bottom = self.bottom if tag == "bottom" else 0
        return RelationFamilies(
            keep,
            [tag] * len(keep),
            bottom,
            self._bottom_letters,
            self.bucket_letters,
            self.bucket_ends,
            self.generator_count,
        )


class GroupPresentation:
    """Generators, their relations (a :class:`RelationFamilies`,
    ``families``) and a ``meta`` dict.  ``relations`` gives the relations
    as :class:`Relation` objects, made on first read."""

    def __init__(self, generators: tuple[Gen, ...], families: RelationFamilies, meta: dict):
        self.generators, self.families, self.meta = generators, families, meta
        self._relations: Optional[tuple[Relation, ...]] = None

    @property
    def relations(self) -> tuple[Relation, ...]:
        if self._relations is None:
            gens, families = self.generators, self.families

            def word(letters: tuple[int, ...]) -> GroupWord:
                return tuple((gens[x >> 1], -1 if x & 1 else 1) for x in letters)

            self._relations = tuple(
                Relation(word(lhs), word(rhs), families.tag(i))
                for i, (lhs, rhs) in enumerate(map(families.letters, range(families.relation_count)))
            )
        return self._relations

    def to_json(self) -> dict:
        def gen_json(g: Gen) -> dict:
            if isinstance(g, AbstractGenerator):
                return {"kind": "abstract", "name": g.name}
            return {
                "kind": "pair",
                "P": g.partition.to_json(),
                "A": g.subset.to_json(),
                "label": cycle_form(g.label),
            }

        families = self.families
        return {
            "generators": [gen_json(g) for g in self.generators],
            "relations": [
                {"lhs": word_json(lhs), "rhs": word_json(rhs), "tag": families.tag(i)}
                for i, (lhs, rhs) in enumerate(map(families.letters, range(families.relation_count)))
            ],
            "meta": dict(self.meta),
        }


def presentations_match(a: GroupPresentation, b: GroupPresentation) -> bool:
    """Same generator sequence and same relations up to rotation/inversion."""
    if tuple(g.display() for g in a.generators) != tuple(g.display() for g in b.generators):
        return False

    def keys(pres: GroupPresentation) -> list[Word]:
        families = pres.families
        return sorted(relator_key(*families.letters(i)) for i in range(families.relation_count))

    return keys(a) == keys(b)


@lru_cache(maxsize=1)
def relation_families(n: int, r: int) -> RelationFamilies:
    """The relations of the (n, r) presentation, their letters numbered by
    the pairs of ``squares._singular_index(n, r)``: the top and the middle
    family, one relation per entry of the index's ``top_of`` (but the base
    image's) and ``min_image``, then the bottom family, one relation per proper
    singular square, counted off the SQ3 buckets and read by
    :func:`read_bottom` only when one of them is first asked for.  The
    buckets' letters, two per member, go along (see :class:`RelationFamilies`).

    Memoised like the index: the replay, the coset oracle and
    :func:`build_presentation` share one, and it goes when another (n, r)
    is asked for.  It holds ints only, numbered alike by every index of
    (n, r), and callers only read it.
    """
    index = _singular_index(n, r)
    # letter[i][a]: the letter of the generator of kernel i over image a
    letter = [{a: 2 * g for a, g in row.items()} for row in index.generator_of]
    # one top relation per image Y but the base, in generator order
    tops = [(y, top) for y, top in enumerate(index.top_of) if top is not None]
    words: list[tuple[Word, Word]] = sorted(((letter[p][x],), (letter[p][y],)) for y, (p, x) in tops)
    tags = ["top"] * len(words)
    for i, a in enumerate(index.min_image):
        words.append(((letter[i][a],), ()))
        tags.append("middle")
    # the bottom family is the square relations x_P = x_Q of every bucket of
    # at least two kernels, x_P = f[P,A]^-1 f[P,B]
    bucket_letters, bucket_ends = array("i"), array("i")
    for (a, b, _), kernels in index.buckets.items():
        if len(kernels) > 1:
            for i in kernels:
                bucket_letters.extend((letter[i][a] + 1, letter[i][b]))
            bucket_ends.append(len(bucket_letters))
    bottom = index.family_sizes()[2]
    # the read looks the index up when it runs, so that the memo holds no index
    return RelationFamilies(
        words,
        tags,
        bottom,
        lambda: read_bottom(_singular_index(n, r)),
        bucket_letters,
        bucket_ends,
        len(index.labels),
    )


def read_bottom(index: _SingularIndex) -> array:
    """The letters p^-1, q, s^-1, t of the bottom family, four per relation
    p^-1 q = s^-1 t, one relation per square of
    :meth:`~igmax.squares._SingularIndex.singular_squares`, in its order."""
    gen = index.generator_of
    corners = array("i")
    for p, q, a, b in index.singular_squares():
        gp, gq = gen[p], gen[q]
        corners.extend((2 * gp[a] + 1, 2 * gp[b], 2 * gq[a] + 1, 2 * gq[b]))
    return corners


def build_presentation(n: int, r: int) -> GroupPresentation:
    """The full presentation on all (kernel, image) generators.

    Generator i is pair i of ``squares._singular_index``: kernel by kernel
    in its order, each kernel's transversals in its order, each labelled
    with the label the index computed.  The relations are
    :func:`relation_families`.  The family sizes in ``meta`` are the
    index's :meth:`~igmax.squares._SingularIndex.family_sizes`, which the
    reduction and :func:`~igmax.squares.square_census` read too.

    At r = n-1 the bottom family is empty.
    """
    if not (isinstance(n, int) and isinstance(r, int) and 1 <= r < n):
        raise InvalidParameters(f"need 1 <= r <= n-1, got r={r}, n={n}")
    index = _singular_index(n, r)
    parts, subsets = index.parts, index.subsets
    # the index numbers the pairs in this order and holds their labels
    generators = tuple(
        GeneratorId.of(parts[k], subsets[a], lam) for (k, a), lam in zip(index.pairs, index.labels)
    )
    top, middle, bottom = index.family_sizes()
    meta = {"n": n, "r": r, "top_ordered": top, "top_distinct": top, "middle": middle, "bottom": bottom}
    return GroupPresentation(generators, relation_families(n, r), meta)


def coxeter_presentation(r: int) -> GroupPresentation:
    """Adjacent-transposition presentation of the degree-r symmetric group,
    on generators g1 ... g(r-1), g(k+1) the letter 2k.

    Relation order: involutions ascending, braid pairs ascending, then
    commuting pairs in lex order.

    >>> p = coxeter_presentation(4)
    >>> [rel.tag for rel in p.relations].count("coxeter")
    6
    """
    if r < 1:
        raise InvalidParameters(f"degree must be >= 1, got {r}")
    words: list[tuple[Word, Word]] = [((2 * k, 2 * k), ()) for k in range(r - 1)]
    words += [((2 * k, 2 * k + 2, 2 * k), (2 * k + 2, 2 * k, 2 * k + 2)) for k in range(r - 2)]
    words += [((2 * k, 2 * l), (2 * l, 2 * k)) for k in range(r - 1) for l in range(k + 2, r - 1)]
    return GroupPresentation(
        tuple(AbstractGenerator(f"g{k}") for k in range(1, r)),
        RelationFamilies(words, ["coxeter"] * len(words), generator_count=r - 1),
        {"r": r, "kind": "coxeter"},
    )
