"""Permutations as one-line image tuples, descent statistics, and contiguous
cycles."""

import itertools

import pytest

from igmax.errors import InvalidParameters
from igmax.perms import (
    classify_descent_one,
    compose,
    contiguous_cycle,
    cycle_form,
    descent_number,
    invert,
    rightmost_descent,
)
from perms_reference import identity, perm, resolve_rightmost_descent


def all_perms(r):
    return list(itertools.permutations(range(1, r + 1)))


def naive_descent_number(seq):
    # position counts when its entry exceeds *some* later entry
    return sum(
        1 for i in range(len(seq)) if any(seq[i] > seq[j] for j in range(i + 1, len(seq)))
    )


def test_cycle_form_goldens():
    assert cycle_form((3, 2, 4, 1)) == "(1 3 4)"
    assert cycle_form(identity(3)) == "()"
    assert cycle_form((2, 1, 4, 3)) == "(1 2)(3 4)"
    assert cycle_form((1, 3, 2)) == "(2 3)"


def test_parse_both_forms():
    # the tests' cycle text and the package's one-line tuples
    assert perm("(2 3)", 4) == (1, 3, 2, 4)
    assert cycle_form((1, 3, 2, 4)) == "(2 3)"
    assert perm("()", 5) == identity(5)
    assert perm("(1 2)(3 4)", 4) == (2, 1, 4, 3)
    # comma-separated cycle entries are accepted too
    assert perm("(2,3)(4,5)", 5) == perm("(2 3)(4 5)", 5)


@pytest.mark.parametrize("bad", ["(1 1)", "[1,2,2]", "(1 2", "[1,2]"])
def test_parse_rejects(bad):
    with pytest.raises(InvalidParameters):
        perm(bad, 3)


def test_multiplication_left_to_right():
    p, q = perm("(1 2)", 3), perm("(2 3)", 3)
    # apply p first: 1 -> 2 -> 3
    assert compose(p, q)[0] == 3
    assert cycle_form(compose(p, q)) == "(1 3 2)"
    assert cycle_form(compose(q, p)) == "(1 2 3)"


def test_inverse():
    for p in all_perms(4):
        assert compose(p, invert(p)) == identity(4)
        assert compose(invert(p), p) == identity(4)


def test_roundtrip_cycle_form():
    for p in all_perms(5):
        assert perm(cycle_form(p), 5) == p


def test_descent_number_against_naive():
    for p in all_perms(5):
        assert descent_number(p) == naive_descent_number(p)


def test_descent_number_goldens():
    assert descent_number((3, 2, 4, 1)) == 3
    assert descent_number(identity(4)) == 0
    assert descent_number((4, 2, 3, 1)) == 3
    assert descent_number((4, 2, 1, 3)) == 2
    assert descent_number(perm("(1 2)(3 4)", 4)) == 2


def test_contiguous_cycle_shape():
    assert contiguous_cycle(1, 2, 3) == (3, 1, 2)
    assert cycle_form(contiguous_cycle(2, 1, 4)) == "(2 3)"
    assert contiguous_cycle(1, 3, 4) == (4, 1, 2, 3)
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
    assert rightmost_descent((4, 2, 3, 1)) == (3, 1)
    assert rightmost_descent(identity(4)) is None


def test_resolve_rightmost_descent_golden():
    assert resolve_rightmost_descent((4, 2, 3, 1)) == (4, 2, 1, 3)
    with pytest.raises(InvalidParameters):
        resolve_rightmost_descent(identity(3))


def test_resolution_lowers_descents_to_identity():
    for p in all_perms(5):
        q = p
        expected = descent_number(q)
        while expected:
            q = resolve_rightmost_descent(q)
            expected -= 1
            assert descent_number(q) == expected
        assert q == identity(5)


def test_resolution_factor_is_a_contiguous_cycle():
    # p factors as (cycle at the descent) * resolved, left-to-right
    for p in all_perms(4):
        loc = rightmost_descent(p)
        if loc is None:
            continue
        q = resolve_rightmost_descent(p)
        factor = compose(p, invert(q))
        assert classify_descent_one(factor) == loc
        assert compose(factor, q) == p


@pytest.mark.parametrize("r", range(1, 7))
def test_classify_descent_one_is_contiguous_cycle_equality(r):
    cycles = {contiguous_cycle(k, l, r): (k, l) for k in range(1, r) for l in range(1, r - k + 1)}
    for p in all_perms(r):
        assert classify_descent_one(p) == cycles.get(p)
