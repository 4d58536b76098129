"""Words, relations, the generating presentation, and the Coxeter target."""

import warnings
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from igmax.combinatorics import Partition, Subset
from igmax.errors import InvalidParameters
from igmax.presentation import (
    GeneratorId,
    Relation,
    build_presentation,
    coxeter_presentation,
    free_reduce,
    inverse,
    relator,
    relator_key,
    substitute,
    word_text,
)
from igmax.perms import cycle_form
from igmax.schreier import IdempotentLetter, build_schreier
from igmax.squares import _singular_index, _sorted_partitions, enumerate_singular_squares
from perms_reference import identity

# the int letters of three generators g, h, k and of their inverses
g, g_, h, h_, k, k_ = range(6)


# ---------------------------------------------------------------------------
# int letter words
# ---------------------------------------------------------------------------


def test_free_reduce():
    assert free_reduce((g, g_, h)) == (h,)
    assert free_reduce((g, h, h_, g_)) == ()
    assert free_reduce(()) == ()


def test_inverse_word():
    w = (g, h_)
    assert inverse(w) == (h, g_)
    assert free_reduce(w + inverse(w)) == ()


def test_inverse_takes_its_letters_from_the_list_given():
    # ints above 256 are a new object each time they are made
    letters = list(range(1000))
    assert all(x is letters[x] for x in inverse((600, 701), letters))
    assert inverse((600, 701), letters) == inverse((600, 701)) == (700, 601)


def test_concat_reduces_across_boundaries():
    assert free_reduce((g, h) + (h_, k)) == (g, k)
    # g h = k^-1 h: the relator g h h^-1 k reduces across its two sides
    assert relator((g, h), (k_, h)) == (g, k)


def test_substitute():
    w = (g, h, g_)
    # generator g >> 1 is replaced, its inverse letter by the inverse word
    assert substitute(w, g >> 1, (k, k)) == (k, k, h, k_, k_)
    # substituting a gen by itself is a no-op
    assert substitute(w, h >> 1, (h,)) == w


def test_word_text():
    names = ["g", "h", "k"].__getitem__
    assert word_text((), names) == "1"
    assert word_text((g, h_), names) == "g * h^-1"
    # the names are the ones given
    assert word_text((k_, g), ["a", "b", "c"].__getitem__) == "c^-1 * a"


def test_relation_relator_and_triviality():
    assert relator((g, h), (h, g)) == (g, h, g_, h_)
    assert relator((g,), (g,)) == ()


@given(
    st.lists(st.sampled_from([g, g_, h, h_, k, k_]), max_size=8).map(tuple),
    st.integers(min_value=0, max_value=7),
)
def test_canonical_relator_key_invariances(word, rot):
    """The key must not see rotation or inversion of the relator."""
    rho = relator(word, ())
    key = relator_key(word)
    cyclically_reduced = not rho or rho[0] != rho[-1] ^ 1
    if rho and cyclically_reduced:
        n = rot % len(rho)
        assert relator_key(rho[n:] + rho[:n]) == key
    assert relator_key(inverse(rho)) == key
    # and swapping the sides of the equation
    assert relator_key((), inverse(rho)) == key


# ---------------------------------------------------------------------------
# generator ids
# ---------------------------------------------------------------------------


def test_generator_id_of():
    p = Partition.parse("{{1},{2,3,5},{4,7},{6}}")
    a = Subset.parse("{1,4,5,6}", 7)
    g = GeneratorId.of(p, a)
    assert cycle_form(g.label) == "(2 3)"
    assert g.display() == "f[{{1},{2,3,5},{4,7},{6}}|{1,4,5,6}]"


def test_generator_id_equality_ignores_label_slot():
    p = Partition.parse("{{1},{2,3,4}}")
    a = Subset.parse("{1,3}", 4)
    assert GeneratorId.of(p, a) == GeneratorId.of(p, a)
    assert hash(GeneratorId.of(p, a)) == hash(GeneratorId.of(p, a))


# ---------------------------------------------------------------------------
# the generating presentation
# ---------------------------------------------------------------------------


def test_build_presentation_four_two():
    pres = build_presentation(4, 2)
    assert len(pres.generators) == 24
    families = pres.families
    assert Counter(map(families.tag, range(families.relation_count))) == {"top": 5, "middle": 7, "bottom": 48}
    assert pres.meta["top_ordered"] == 5


def test_build_presentation_relation_shapes():
    pres = build_presentation(4, 2)
    for rel in pres.relations:
        if rel.tag == "middle":
            assert len(rel.lhs) == 1 and rel.rhs == ()
            g = rel.lhs[0][0]
            assert g.subset == Subset(g.partition.n, g.partition.minima)
        elif rel.tag == "top":
            assert len(rel.lhs) == 1 and len(rel.rhs) == 1
            assert rel.lhs[0][0].partition == rel.rhs[0][0].partition
        else:
            assert len(rel.lhs) == 2 and len(rel.rhs) == 2
            assert rel.lhs[0][1] == -1 and rel.lhs[1][1] == 1


def test_build_presentation_at_the_boundary_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pres = build_presentation(4, 3)
    assert Counter(map(pres.families.tag, range(pres.families.relation_count)))["bottom"] == 0


@pytest.mark.parametrize("n,r", [(n, r) for n in range(2, 8) for r in range(1, n)])
def test_family_sizes_are_the_tag_counts(n, r):
    # the one count of each family that the pipeline, the census and the
    # presentation's meta read; the bottom family enumerated, not counted
    pres = build_presentation(n, r)
    top, middle, bottom = _singular_index(n, r).family_sizes()
    tags = Counter(map(pres.families.tag, range(pres.families.relation_count)))
    assert (tags["top"], tags["middle"], tags["bottom"]) == (top, middle, bottom)
    assert sum(1 for _ in enumerate_singular_squares(n, r)) == bottom
    assert (pres.meta["top_ordered"], pres.meta["middle"], pres.meta["bottom"]) == (top, middle, bottom)


def test_build_presentation_rejects_full_rank():
    with pytest.raises(InvalidParameters):
        build_presentation(4, 4)


def _reference_presentation(n, r):
    """The construction before it shared the enumerator's objects: fresh
    partitions and transversals, and generators looked up by value."""
    sch = build_schreier(n, r)
    parts = _sorted_partitions(n, r)
    trans = {p: p.transversals() for p in parts}
    gen_of = {}
    generators = []
    for p in parts:
        for a in trans[p]:
            g = GeneratorId.of(p, a)
            gen_of[(p, a)] = g
            generators.append(g)
    relations = []
    top_ordered = 0
    top_distinct = set()
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
        relations.append(Relation(((gen_of[(p, Subset(p.n, p.minima))], 1),), (), "middle"))
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
    meta = {
        "n": n,
        "r": r,
        "top_ordered": top_ordered,
        "top_distinct": len(top_distinct),
        "middle": len(parts),
        "bottom": bottom,
    }
    return generators, relations, meta


@pytest.mark.parametrize("n,r", [(n, r) for n in range(3, 7) for r in range(1, n - 1)] + [(7, 4)])
def test_build_presentation_matches_the_reference(n, r):
    generators, relations, meta = _reference_presentation(n, r)
    pres = build_presentation(n, r)
    assert [g.display() for g in pres.generators] == [g.display() for g in generators]
    assert [(rel.lhs, rel.rhs, rel.tag) for rel in pres.relations] == [
        (rel.lhs, rel.rhs, rel.tag) for rel in relations
    ]
    assert pres.meta == meta


@pytest.mark.parametrize("n,r,total", [(3, 1, 3), (4, 2, 60), (5, 3, 394)])
def test_relation_totals(n, r, total):
    assert len(build_presentation(n, r).relations) == total


# ---------------------------------------------------------------------------
# the Coxeter target
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "r,gens,rels",
    [(1, 0, 0), (2, 1, 1), (3, 2, 3), (4, 3, 6), (5, 4, 10)],
)
def test_coxeter_presentation_counts(r, gens, rels):
    pres = coxeter_presentation(r)
    assert len(pres.generators) == gens
    assert len(pres.relations) == rels
    # involutions (r-1) + braids (r-2) + commutes (C(r-1,2) - (r-2))
    if r >= 2:
        assert sum(1 for rel in pres.relations if rel.rhs == ()) == r - 1


def test_coxeter_relations_hold_in_symmetric_group():
    from igmax.perms import compose, contiguous_cycle, invert

    r = 5
    pres = coxeter_presentation(r)
    value = {g: contiguous_cycle(k + 1, 1, r) for k, g in enumerate(pres.generators)}

    def ev(word):
        out = identity(r)
        for g, e in word:
            out = compose(out, value[g] if e == 1 else invert(value[g]))
        return out

    for rel in pres.relations:
        assert ev(rel.lhs) == ev(rel.rhs)
