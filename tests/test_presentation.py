"""Words, relations, the generating presentation, and the Coxeter target."""

import warnings
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from igmax.combinatorics import Partition, Subset
from igmax.errors import InvalidParameters
from igmax.presentation import (
    AbstractGenerator,
    GeneratorId,
    Relation,
    build_presentation,
    canonical_relator_key,
    concat,
    coxeter_presentation,
    free_reduce,
    inverse_word,
    substitute,
    word_str,
)
from igmax.schreier import IdempotentLetter, build_schreier
from igmax.squares import _singular_index, _sorted_partitions, enumerate_singular_squares

G, H, K = (AbstractGenerator(x) for x in "ghk")


# ---------------------------------------------------------------------------
# free-group word layer
# ---------------------------------------------------------------------------


def test_free_reduce():
    assert free_reduce(((G, 1), (G, -1), (H, 1))) == ((H, 1),)
    assert free_reduce(((G, 1), (H, 1), (H, -1), (G, -1))) == ()
    assert free_reduce(()) == ()
    with pytest.raises(InvalidParameters):
        free_reduce(((G, 2),))


def test_inverse_word():
    w = ((G, 1), (H, -1))
    assert inverse_word(w) == ((H, 1), (G, -1))
    assert concat(w, inverse_word(w)) == ()


def test_concat_reduces_across_boundaries():
    assert concat(((G, 1), (H, 1)), ((H, -1), (K, 1))) == ((G, 1), (K, 1))


def test_substitute():
    w = ((G, 1), (H, 1), (G, -1))
    out = substitute(w, G, ((K, 1), (K, 1)))
    assert out == ((K, 1), (K, 1), (H, 1), (K, -1), (K, -1))
    # substituting a gen by itself is a no-op
    assert substitute(w, H, ((H, 1),)) == w


def test_word_str():
    assert word_str(()) == "1"
    assert word_str(((G, 1), (H, -1))) == "g * h^-1"


def test_relation_relator_and_triviality():
    rel = Relation(((G, 1), (H, 1)), ((H, 1), (G, 1)), "t")
    assert rel.relator() == ((G, 1), (H, 1), (G, -1), (H, -1))
    assert Relation(((G, 1),), ((G, 1),), "t").relator() == ()


@given(
    st.lists(
        st.tuples(st.sampled_from([G, H, K]), st.sampled_from([1, -1])),
        max_size=8,
    ),
    st.integers(min_value=0, max_value=7),
)
def test_canonical_relator_key_invariances(word, rot):
    """The key must not see rotation or inversion of the relator."""
    rel = Relation(tuple(word), (), "t")
    rho = rel.relator()
    key = canonical_relator_key(rel)
    cyclically_reduced = not rho or rho[0] != (rho[-1][0], -rho[-1][1])
    if rho and cyclically_reduced:
        k = rot % len(rho)
        rotated = Relation(rho[k:] + rho[:k], (), "t")
        assert canonical_relator_key(rotated) == key
    inverted = Relation(inverse_word(rho), (), "t")
    assert canonical_relator_key(inverted) == key
    # and swapping the sides of the equation
    swapped = Relation((), inverse_word(rho), "t")
    assert canonical_relator_key(swapped) == key


# ---------------------------------------------------------------------------
# generator ids
# ---------------------------------------------------------------------------


def test_generator_id_of():
    p = Partition.parse("{{1},{2,3,5},{4,7},{6}}")
    a = Subset.parse("{1,4,5,6}", 7)
    g = GeneratorId.of(p, a)
    assert g.label.cycle_form() == "(2 3)"
    assert g.display() == "f[{{1},{2,3,5},{4,7},{6}}|{1,4,5,6}]"


def test_generator_id_label_checked():
    p = Partition.parse("{{1},{2,3,4}}")
    a = Subset.parse("{1,3}", 4)
    from igmax.perms import Permutation

    with pytest.raises(InvalidParameters):
        GeneratorId(p, a, Permutation.parse("(1 2)", 2))


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
    assert Counter(map(pres.tag, range(pres.relation_count))) == {"top": 5, "middle": 7, "bottom": 48}
    assert pres.meta["top_ordered"] == 5


def test_build_presentation_relation_shapes():
    pres = build_presentation(4, 2)
    for rel in pres.relations:
        if rel.tag == "middle":
            assert len(rel.lhs) == 1 and rel.rhs == ()
            g = rel.lhs[0][0]
            assert g.subset == g.partition.min_transversal()
        elif rel.tag == "top":
            assert len(rel.lhs) == 1 and len(rel.rhs) == 1
            assert rel.lhs[0][0].partition == rel.rhs[0][0].partition
        else:
            assert len(rel.lhs) == 2 and len(rel.rhs) == 2
            assert rel.lhs[0][1] == -1 and rel.lhs[1][1] == 1


def test_build_presentation_boundary_warns():
    with pytest.warns(UserWarning):
        pres = build_presentation(4, 3)
    assert Counter(map(pres.tag, range(pres.relation_count)))["bottom"] == 0


@pytest.mark.parametrize("n,r", [(n, r) for n in range(2, 8) for r in range(1, n)])
def test_family_sizes_are_the_tag_counts(n, r):
    # the one count of each family that the pipeline, the census and the
    # presentation's meta read; the bottom family enumerated, not counted
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pres = build_presentation(n, r)
    top, middle, bottom = _singular_index(n, r).family_sizes()
    tags = Counter(map(pres.tag, range(pres.relation_count)))
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
    from igmax.perms import Permutation, contiguous_cycle

    r = 5
    pres = coxeter_presentation(r)
    value = {g: contiguous_cycle(k + 1, 1, r) for k, g in enumerate(pres.generators)}

    def ev(word):
        out = Permutation.identity(r)
        for g, e in word:
            out = out * (value[g] if e == 1 else value[g].inverse())
        return out

    for rel in pres.relations:
        assert ev(rel.lhs) == ev(rel.rhs)
