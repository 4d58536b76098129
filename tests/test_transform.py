"""Transformations and idempotents."""

import itertools

import pytest

from igmax.combinatorics import Partition, Subset, enumerate_transversal_pairs
from igmax.errors import InvalidParameters, TransversalityViolation

from transform_reference import Transformation, compose, idempotent


def test_parse_and_call():
    t = Transformation.parse("[1,2,3,4,4,4,4]")
    assert t.n == 7
    assert t(6) == 4
    assert t(1) == 1
    assert str(t) == "[1,2,3,4,4,4,4]"
    with pytest.raises(InvalidParameters):
        t(0)
    with pytest.raises(InvalidParameters):
        t(8)


def test_composition_is_left_to_right():
    s = Transformation.parse("[2,2,3]")
    t = Transformation.parse("[3,1,1]")
    # x(s t) = (x s) t
    assert str(s * t) == "[1,1,1]"
    assert str(t * s) == "[3,2,2]"
    assert (s * t)(1) == t(s(1))


def test_identity_neutral():
    e = Transformation.identity(5)
    t = Transformation.parse("[5,4,3,2,1]")
    assert e * t == t == t * e


def test_associativity_exhaustive_degree_three():
    maps = [Transformation(3, imgs) for imgs in itertools.product((1, 2, 3), repeat=3)]
    assert len(maps) == 27
    for s, t, u in itertools.product(maps, repeat=3):
        assert (s * t) * u == s * (t * u)


def test_image_kernel_rank():
    t = Transformation.parse("[1,2,3,4,4,4,4]")
    assert str(t.image()) == "{1,2,3,4}"
    assert str(t.kernel()) == "{{1},{2},{3},{4,5,6,7}}"
    assert t.rank() == 4
    assert t.is_idempotent()


def test_idempotency_detection():
    assert Transformation.parse("[2,2,2]").is_idempotent()  # constants fix their image
    assert not Transformation.parse("[2,1]").is_idempotent()
    assert not Transformation.parse("[2,3,3]").is_idempotent()  # 2 in image, moved


def test_idempotent_construction_golden():
    p = Partition.parse("{{1},{2,3,5},{4,7},{6}}")
    a = Subset.parse("{1,5,6,7}", 7)
    e = idempotent(p, a)
    assert str(e) == "[1,5,5,7,5,6,7]"
    assert e.is_idempotent()
    assert e.kernel() == p
    assert e.image() == a


def test_idempotent_requires_transversal():
    p = Partition.parse("{{1,2},{3,4}}")
    with pytest.raises(TransversalityViolation):
        idempotent(p, Subset.parse("{1,2}", 4))


@pytest.mark.parametrize("n,r", [(4, 2), (5, 3)])
def test_idempotent_kernel_image_roundtrip(n, r):
    for p, a in enumerate_transversal_pairs(n, r):
        e = idempotent(p, a)
        assert e * e == e
        assert e.kernel() == p and e.image() == a
        # fixes its image pointwise
        assert all(e(x) == x for x in a)


def test_compose_degree_mismatch():
    with pytest.raises(InvalidParameters):
        compose(Transformation.identity(2), Transformation.identity(3))
