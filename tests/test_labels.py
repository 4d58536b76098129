"""The permutation label of a (kernel, image) pair."""

import pytest

from igmax.combinatorics import Partition, Subset, enumerate_transversal_pairs
from igmax.errors import TransversalityViolation
from igmax.labels import label, label_with_context
from igmax.perms import compose, cycle_form, invert
from igmax.squares import label_spectrum
import labels_reference
from perms_reference import identity, perm


GOLDEN_P = Partition.parse("{{1},{2,3,5},{4,7},{6}}")
GOLDEN_A = Subset.parse("{1,4,5,6}", 7)


def test_golden_label():
    assert cycle_form(label(GOLDEN_P, GOLDEN_A)) == "(2 3)"


def test_golden_label_context():
    pi, ctx = label_with_context(GOLDEN_P, GOLDEN_A)
    assert cycle_form(pi) == "(2 3)"
    assert ctx.into_minima == (1, 2, 4, 6)
    assert ctx.image_sorted == (1, 4, 5, 6)
    # (block minimum, member of A in that block), one per block
    assert ctx.across_blocks == ((1, 1), (2, 5), (4, 4), (6, 6))
    assert ctx.to_json()["into_minima"] == [1, 2, 4, 6]


def test_label_requires_transversal():
    for route in (label, label_with_context):
        with pytest.raises(TransversalityViolation):
            route(GOLDEN_P, Subset.parse("{2,3,4,6}", 7))


def test_min_transversal_has_identity_label():
    for p, _ in enumerate_transversal_pairs(5, 3):
        assert label(p, Subset(p.n, p.minima)) == identity(3)


@pytest.mark.parametrize("n,r", [(4, 2), (5, 3), (6, 3)])
def test_two_definitions_agree(n, r):
    # the label composed of the three maps and the label read off the
    # pair's pick are independent implementations; they must agree on every
    # pair
    for p, a in enumerate_transversal_pairs(n, r):
        assert label_with_context(p, a)[0] == label(p, a)


def test_spectrum_four_two():
    spec = label_spectrum(4, 2)
    assert spec == labels_reference.label_spectrum(4, 2)
    as_str = {cycle_form(k): v for k, v in spec.items()}
    assert as_str == {"()": 18, "(1 2)": 6}
    assert sum(spec.values()) == 24


def test_spectrum_seven_five_has_the_double_transposition():
    spec = label_spectrum(7, 5)
    assert spec == labels_reference.label_spectrum(7, 5)
    target = perm("(2 3)(4 5)", 5)
    assert spec[target] == 2
    assert sum(spec.values()) == 525


def test_degenerate_full_rank_labels():
    # at n = r the only partition is discrete and every label is trivial
    spec = label_spectrum(4, 4)
    assert spec == labels_reference.label_spectrum(4, 4)
    assert {cycle_form(k): v for k, v in spec.items()} == {"()": 1}


def test_label_composes_with_row_change():
    # within one kernel the label difference is captured by inverse * product
    p = Partition.parse("{{1},{2,3,6},{4,7},{5}}")
    a = Subset.parse("{1,4,5,6}", 7)
    b = Subset.parse("{1,5,6,7}", 7)
    la, lb = label(p, a), label(p, b)
    assert cycle_form(la) == "(2 4 3)"
    assert cycle_form(lb) == "(2 3 4)"
    assert cycle_form(compose(invert(la), lb)) == "(2 4 3)"


@pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 7) for r in range(1, n + 1)])
def test_spectrum_counts_the_index_labels_as_enumeration_does(n, r):
    assert label_spectrum(n, r) == labels_reference.label_spectrum(n, r)
