"""Canonical word system: construction, invariants, prefix closure."""

import pytest

from igmax.combinatorics import Subset, enumerate_subsets
from igmax.errors import InvalidParameters
from igmax.schreier import IdempotentLetter, build_schreier, convex_partition_of, predecessor
from igmax.squares import _singular_index

from pipeline_reference import ids
from schreier_reference import back_map, eval_word, into_map, letter_transformation, word_from
from transform_reference import Transformation


def test_convex_partition_golden():
    assert str(convex_partition_of(Subset.parse("{2,4,5}", 6))) == "{{1,2},{3,4},{5,6}}"
    assert str(convex_partition_of(Subset.parse("{1,2,3}", 3))) == "{{1},{2},{3}}"
    assert str(convex_partition_of(Subset.parse("{3}", 5))) == "{{1,2,3,4,5}}"


def test_convex_partition_is_transversal_to_its_subset():
    for a in enumerate_subsets(6, 3):
        p = convex_partition_of(a)
        assert p.is_convex()
        assert p.meets_once(a)


def test_predecessor_chain():
    a = Subset.parse("{3,5}", 5)
    chain = [str(a)]
    while (a := predecessor(a)) is not None:
        chain.append(str(a))
    assert chain == ["{3,5}", "{2,5}", "{1,5}", "{1,4}", "{1,3}", "{1,2}"]


def test_predecessor_none_at_base():
    assert predecessor(Subset.parse("{1,2,3}", 7)) is None


@pytest.mark.parametrize("n, r", [(n, r) for n in range(1, 8) for r in range(1, n + 1)])
def test_the_index_names_the_schreier_steps(n, r):
    # the checker and the relation families read the top and middle
    # relations off the index's id tables; the words these tests evaluate
    # are built from predecessor and convex_partition_of, so both name the
    # same kernels and images
    index = _singular_index(n, r)
    for y, a in enumerate(index.subsets):
        x = predecessor(a)
        assert index.top_of[y] == (None if x is None else ids(index, convex_partition_of(a), x)), str(a)
    for k, p in enumerate(index.parts):
        assert index.min_image[k] == ids(index, Subset(n, p.minima))[0], str(p)


def test_words_evaluate_to_recorded_maps():
    sch = build_schreier(5, 2)
    a = Subset.parse("{3,5}", 5)
    assert len(sch.word_to(a)) == 5
    assert eval_word(sch.word_to(a), 5) == into_map(sch, a)
    assert eval_word(word_from(sch, a), 5) == back_map(sch, a)


def test_unknown_subset_rejected():
    sch = build_schreier(5, 2)
    with pytest.raises(InvalidParameters):
        sch.word_to(Subset.parse("{1,2,3}", 5))
    with pytest.raises(InvalidParameters):
        sch.word_to(Subset.parse("{1,2}", 6))


def test_letters_are_idempotents():
    sch = build_schreier(6, 3)
    for a in sch.subsets():
        for letter in sch.word_to(a):
            t = letter_transformation(letter)
            assert t.is_idempotent()
            assert t.kernel() == letter.partition
            assert t.image() == letter.subset


@pytest.mark.parametrize("n,r", [(5, 2), (6, 3), (6, 5), (7, 4), (4, 4)])
def test_mutually_inverse_order_preserving(n, r):
    """Restricted to [1,r] resp. A, the two words invert each other."""
    sch = build_schreier(n, r)
    base = list(range(1, r + 1))
    for a in sch.subsets():
        rho = into_map(sch, a)
        rho_back = back_map(sch, a)
        fwd = [rho(i) for i in base]
        # order-preserving bijection [1,r] -> A
        assert fwd == list(a.elements)
        assert [rho_back(x) for x in a.elements] == base
        # mutually inverse on the restricted domains
        assert all(rho_back(rho(i)) == i for i in base)
        assert all(rho(rho_back(x)) == x for x in a.elements)


@pytest.mark.parametrize("n,r", [(5, 2), (6, 3), (7, 4)])
def test_prefix_closure(n, r):
    """Every proper prefix of word_to(A) is word_to(B) for some B."""
    sch = build_schreier(n, r)
    known = {sch.word_to(a): a for a in sch.subsets()}
    for a in sch.subsets():
        w = sch.word_to(a)
        for cut in range(len(w) + 1):
            assert w[:cut] in known
        # the one-step structure: last letter lands exactly at A
        if w:
            b = known[w[:-1]]
            assert predecessor(a) == b
            assert w[-1].subset == a


def test_word_lengths_match_chain_depth():
    sch = build_schreier(6, 3)
    for a in sch.subsets():
        depth = 0
        b = a
        while (b := predecessor(b)) is not None:
            depth += 1
        assert len(sch.word_to(a)) == depth
        assert len(word_from(sch, a)) == depth


def test_eval_word_empty_is_identity():
    assert eval_word((), 4) == Transformation.identity(4)


def test_letter_str():
    letter = IdempotentLetter(
        convex_partition_of(Subset.parse("{2,4}", 5)), Subset.parse("{2,4}", 5)
    )
    assert str(letter) == "e[{{1,2},{3,4,5}}|{2,4}]"
