"""Permutations, descent statistics, and contiguous cycles."""

import itertools

import pytest

from igmax.errors import InvalidParameters
from igmax.perms import (
    DescentLocator,
    Permutation,
    classify_descent_one,
    contiguous_cycle,
    descent_number,
    rightmost_descent,
)
from perms_reference import resolve_rightmost_descent


def all_perms(r):
    return [Permutation(p) for p in itertools.permutations(range(1, r + 1))]


def naive_descent_number(p):
    # position counts when its entry exceeds *some* later entry
    seq = p.images
    return sum(
        1 for i in range(len(seq)) if any(seq[i] > seq[j] for j in range(i + 1, len(seq)))
    )


def test_cycle_form_goldens():
    assert Permutation((3, 2, 4, 1)).cycle_form() == "(1 3 4)"
    assert Permutation.identity(3).cycle_form() == "()"
    assert Permutation((2, 1, 4, 3)).cycle_form() == "(1 2)(3 4)"
    assert str(Permutation((1, 3, 2))) == "(2 3)"


def test_parse_both_forms():
    assert Permutation.parse("(2 3)", 4).image_form() == "[1,3,2,4]"
    assert Permutation.parse("[1,3,2,4]", 4).cycle_form() == "(2 3)"
    assert Permutation.parse("()", 5) == Permutation.identity(5)
    assert Permutation.parse("(1 2)(3 4)", 4) == Permutation((2, 1, 4, 3))
    # comma-separated cycle entries are accepted too
    assert Permutation.parse("(2,3)(4,5)", 5) == Permutation.parse("(2 3)(4 5)", 5)


@pytest.mark.parametrize("bad", ["(1 1)", "[1,2,2]", "(1 2", "[1,2]"])
def test_parse_rejects(bad):
    with pytest.raises(InvalidParameters):
        Permutation.parse(bad, 3)


def test_multiplication_left_to_right():
    p = Permutation.parse("(1 2)", 3)
    q = Permutation.parse("(2 3)", 3)
    # apply p first: 1 -> 2 -> 3
    assert (p * q)(1) == 3
    assert (p * q).cycle_form() == "(1 3 2)"
    assert (q * p).cycle_form() == "(1 2 3)"


def test_inverse():
    for p in all_perms(4):
        assert p * p.inverse() == Permutation.identity(4)
        assert p.inverse() * p == Permutation.identity(4)


def test_roundtrip_cycle_form():
    for p in all_perms(5):
        assert Permutation.parse(p.cycle_form(), 5) == p
        assert Permutation.parse(p.image_form(), 5) == p


def test_descent_number_against_naive():
    for p in all_perms(5):
        assert descent_number(p) == naive_descent_number(p)


def test_descent_number_goldens():
    assert descent_number(Permutation((3, 2, 4, 1))) == 3
    assert descent_number(Permutation.identity(4)) == 0
    assert descent_number(Permutation.parse("[4,2,3,1]", 4)) == 3
    assert descent_number(Permutation.parse("[4,2,1,3]", 4)) == 2
    assert descent_number(Permutation.parse("(1 2)(3 4)", 4)) == 2


def test_contiguous_cycle_shape():
    assert contiguous_cycle(1, 2, 3).image_form() == "[3,1,2]"
    assert contiguous_cycle(2, 1, 4).cycle_form() == "(2 3)"
    assert contiguous_cycle(1, 3, 4).image_form() == "[4,1,2,3]"
    with pytest.raises(InvalidParameters):
        contiguous_cycle(2, 3, 4)  # k + l > r


def test_descent_one_is_exactly_the_contiguous_cycles():
    for r in (2, 3, 4, 5):
        cycles = {
            contiguous_cycle(k, l, r)
            for k in range(1, r)
            for l in range(1, r - k + 1)
        }
        for p in all_perms(r):
            kl = classify_descent_one(p)
            if descent_number(p) == 1:
                assert kl is not None and contiguous_cycle(*kl, r) == p
                assert p in cycles
            else:
                assert kl is None


def test_rightmost_descent_golden():
    assert rightmost_descent(Permutation((4, 2, 3, 1))) == DescentLocator(v=3, w=1)
    assert rightmost_descent(Permutation.identity(4)) is None


def test_resolve_rightmost_descent_golden():
    assert resolve_rightmost_descent(Permutation((4, 2, 3, 1))).image_form() == "[4,2,1,3]"
    with pytest.raises(InvalidParameters):
        resolve_rightmost_descent(Permutation.identity(3))


def test_resolution_lowers_descents_to_identity():
    for p in all_perms(5):
        q = p
        expected = descent_number(q)
        while expected:
            q = resolve_rightmost_descent(q)
            expected -= 1
            assert descent_number(q) == expected
        assert q.is_identity()


def test_resolution_factor_is_a_contiguous_cycle():
    # p factors as (cycle at the descent) * resolved, left-to-right
    for p in all_perms(4):
        loc = rightmost_descent(p)
        if loc is None:
            continue
        q = resolve_rightmost_descent(p)
        factor = p * q.inverse()
        assert classify_descent_one(factor) == (loc.v, loc.w)
        assert factor * q == p


@pytest.mark.parametrize("r", range(1, 7))
def test_classify_descent_one_is_contiguous_cycle_equality(r):
    cycles = {contiguous_cycle(k, l, r): (k, l) for k in range(1, r) for l in range(1, r - k + 1)}
    for p in all_perms(r):
        assert classify_descent_one(p) == cycles.get(p)


def test_classify_descent_one_builds_no_permutation(monkeypatch):
    perms = all_perms(5)
    made = []
    real = Permutation.__init__

    def counted(self, images):
        made.append(images)
        real(self, images)

    monkeypatch.setattr(Permutation, "__init__", counted)
    # the ten contiguous cycles of degree 5
    assert sum(classify_descent_one(p) is not None for p in perms) == 10
    assert made == []
    # the stand-in counts
    assert contiguous_cycle(2, 1, 5) and made == [(1, 3, 2, 4, 5)]
