"""The immutable classes: assignment refused, equality and hashing by field.

The package's value objects and frozen records are plain classes on
``igmax.frozen.Frozen``; these tests pin what they keep: no attribute can be
assigned or deleted once an object is made, two objects are equal when they
are of one class with equal fields (a generator's label aside), and equal
objects hash alike.
"""

import pytest

from igmax.cli import RunConfig
from igmax.combinatorics import Partition, Subset
from igmax.labels import label_with_context
from igmax.presentation import AbstractGenerator, GeneratorId, Relation
from igmax.schreier import IdempotentLetter
from igmax.squares import Square, square_census
from igmax.verification import CosetResult

P = Partition.parse("{{1},{2,3,5},{4,7},{6}}")
Q = Partition.parse("{{1},{2,5},{3,4,7},{6}}")
A = Subset.parse("{1,4,5,6}", 7)
B = Subset.parse("{1,2,4,6}", 7)


def made():
    """One object of each immutable class, made afresh on each call."""
    return {
        "Subset": Subset(7, (1, 4, 5, 6)),
        "Partition": Partition(7, ((1,), (2, 3, 5), (4, 7), (6,))),
        "Square": Square((P, Q), (A, B)),
        "GeneratorId": GeneratorId.of(P, A),
        "AbstractGenerator": AbstractGenerator("g1"),
        "Relation": Relation(((AbstractGenerator("g1"), 1),), (), "coxeter"),
        "IdempotentLetter": IdempotentLetter(P, A),
        "CosetResult": CosetResult(True, 2, 3, 2),
        "RunConfig": RunConfig(5, 3),
        "LabelContext": label_with_context(P, A)[1],
        "SquareCensus": square_census(4, 2),
    }


@pytest.mark.parametrize("name", list(made()))
def test_no_attribute_can_be_assigned_or_deleted(name):
    obj = made()[name]
    field = next(iter(getattr(obj, "__slots__", None) or vars(obj)))
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.other = None


VALUES = ["Subset", "Partition", "Square", "GeneratorId", "AbstractGenerator", "Relation", "IdempotentLetter"]


@pytest.mark.parametrize("name", VALUES + ["CosetResult"])
def test_equal_fields_make_equal_objects(name):
    first, second = made()[name], made()[name]
    assert first is not second and first == second and not first != second
    if name in VALUES:
        assert hash(first) == hash(second) and len({first, second}) == 1
    assert first != made()["Subset" if name != "Subset" else "Partition"]


def test_each_value_object_compares_its_fields():
    assert Subset(7, (1, 4, 5, 6)) != Subset(8, (1, 4, 5, 6))
    assert Partition.of(3, [[1], [2, 3]]) != Partition.of(3, [[1, 3], [2]])
    assert Square((P, Q), (A, B)) != Square((Q, P), (A, B))
    assert IdempotentLetter(P, A) != IdempotentLetter(P, B)
    assert Relation((), (), "top") != Relation((), (), "middle")
    assert CosetResult(True, 2, 3, 2) != CosetResult(True, 2, 4, 2)
    # a generator is its pair: the label rides along
    assert GeneratorId.of(P, A, (1, 2, 3, 4)) == GeneratorId.of(P, A)
    # the hashes are the ones the fields give
    assert hash(Square((P, Q), (A, B))) == hash(((P, Q), (A, B)))
    assert hash(IdempotentLetter(P, A)) == hash((P, A))
