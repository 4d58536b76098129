"""Group presentations: the big generating presentation, the Coxeter target,
and the word operations the reduction rewrites with (free reduction,
substitution).

Generators of the big presentation are the transversal pairs themselves;
abstract symbols appear only in the Coxeter target and after final
renaming.  Relations are stored as equations (pairs of words), not
relators, and carry a provenance tag:

``top``     pairs of generators sharing a kernel whose canonical words
            differ by exactly the appended letter;
``middle``  the block-minima generator of each kernel is trivial;
``bottom``  one relation per ordered proper singular square;
``derived`` produced by the reduction pipeline;
``coxeter`` the target relations.

Words multiply left to right, like everything else in the package.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

from .combinatorics import Partition, Subset, require_transversal
from .errors import InvalidParameters
from .labels import label_by_subscripts
from .perms import Permutation
from .schreier import IdempotentLetter, build_schreier
from .squares import _singular_index, enumerate_singular_squares


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
    def of(cls, partition: Partition, subset: Subset) -> "GeneratorId":
        """The generator of a pair, its label computed (and the pair checked) once."""
        g = object.__new__(cls)
        g.__dict__.update(
            partition=partition, subset=subset, label=label_by_subscripts(partition, subset)
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
    for gen, exp in word:
        if exp not in (1, -1):
            raise InvalidParameters(f"exponent must be +-1, got {exp}")
        if out and out[-1][0] == gen and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((gen, exp))
    return tuple(out)


def inverse_word(word: GroupWord) -> GroupWord:
    return tuple((gen, -exp) for gen, exp in reversed(word))


def concat(*words: GroupWord) -> GroupWord:
    joined: list[tuple[Gen, int]] = []
    for w in words:
        joined.extend(w)
    return free_reduce(tuple(joined))


def substitute(word: GroupWord, gen: Gen, replacement: GroupWord) -> GroupWord:
    """Replace every occurrence of ``gen`` (either sign) and freely reduce."""
    rep_inv = inverse_word(replacement)
    out: list[tuple[Gen, int]] = []
    for g, e in word:
        if g == gen:
            out.extend(replacement if e == 1 else rep_inv)
        else:
            out.append((g, e))
    return free_reduce(tuple(out))


def word_str(word: GroupWord) -> str:
    if not word:
        return "1"
    return " * ".join(g.display() + ("^-1" if e < 0 else "") for g, e in word)


@dataclass(frozen=True)
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


@dataclass
class GroupPresentation:
    generators: tuple[Gen, ...]
    relations: tuple[Relation, ...]
    meta: dict = field(default_factory=dict)

    def counts_by_tag(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rel in self.relations:
            out[rel.tag] = out.get(rel.tag, 0) + 1
        return out

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


def presentations_match(a: GroupPresentation, b: GroupPresentation) -> bool:
    """Same generator sequence and same relations up to rotation/inversion."""
    if tuple(g.display() for g in a.generators) != tuple(g.display() for g in b.generators):
        return False
    return sorted(map(canonical_relator_key, a.relations)) == sorted(
        map(canonical_relator_key, b.relations)
    )


def build_presentation(n: int, r: int) -> GroupPresentation:
    """The full presentation on all (kernel, image) generators.

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
    sch = build_schreier(n, r)
    # the enumerator's own kernels and images, so the bottom family's
    # gen_of lookups below hit by identity instead of comparing by value
    index = _singular_index(n, r)
    parts = index.parts
    trans = {p: [index.subsets[i] for i in ids] for p, ids in zip(parts, index.transversal_ids)}
    gen_of: dict[tuple[Partition, Subset], GeneratorId] = {}
    generators: list[Gen] = []
    for p in parts:
        for a in trans[p]:
            g = GeneratorId.of(p, a)
            gen_of[(p, a)] = g
            generators.append(g)

    relations: list[Relation] = []
    top_ordered = 0
    top_distinct: set[frozenset] = set()
    for p in parts:
        for a in trans[p]:
            word_a = sch.word_to(a)
            for b in trans[p]:
                if a == b:
                    continue
                if word_a + (IdempotentLetter(p, b),) == sch.word_to(b):
                    top_ordered += 1
                    key = frozenset((a, b))
                    if key not in top_distinct:
                        top_distinct.add(key)
                        relations.append(
                            Relation(((gen_of[(p, a)], 1),), ((gen_of[(p, b)], 1),), "top")
                        )
    for p in parts:
        relations.append(Relation(((gen_of[(p, p.min_transversal())], 1),), (), "middle"))
    bottom = 0
    for sq in enumerate_singular_squares(n, r):
        pk, qk = sq.kernels
        ai, bi = sq.images
        relations.append(
            Relation(
                ((gen_of[(pk, ai)], -1), (gen_of[(pk, bi)], 1)),
                ((gen_of[(qk, ai)], -1), (gen_of[(qk, bi)], 1)),
                "bottom",
            )
        )
        bottom += 1
    return GroupPresentation(
        tuple(generators),
        tuple(relations),
        meta={
            "n": n,
            "r": r,
            "top_ordered": top_ordered,
            "top_distinct": len(top_distinct),
            "middle": len(parts),
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
