"""Subsets, partitions, transversality, and the enumeration orders."""

import math

import pytest
from hypothesis import given, strategies as st

from igmax.combinatorics import (
    Partition,
    Subset,
    enumerate_partitions,
    enumerate_subsets,
    enumerate_transversal_pairs,
    is_transversal,
    require_transversal,
)
from igmax.errors import InvalidParameters, TransversalityViolation

from combinatorics_reference import count_transversal_pairs, transversal_count


def stirling2(n: int, r: int) -> int:
    # independent oracle: S(n, r) = S(n-1, r-1) + r * S(n-1, r)
    table = [[0] * (r + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, r + 1):
            table[i][j] = table[i - 1][j - 1] + j * table[i - 1][j]
    return table[n][r]


# ---------------------------------------------------------------------------
# Subset
# ---------------------------------------------------------------------------


def test_subset_parse_roundtrip():
    a = Subset.parse("{1,4,5,6}", 7)
    assert str(a) == "{1,4,5,6}"
    assert a.elements == (1, 4, 5, 6)
    assert len(a) == 4
    assert 5 in a and 2 not in a


def test_subset_of_sorts():
    assert Subset.of(7, [6, 1, 5, 4]).elements == (1, 4, 5, 6)


def test_subset_positions():
    a = Subset.of(7, [1, 4, 5, 6])
    assert a.position_of(5) == 3
    assert a.element_at(3) == 5
    assert [a.position_of(x) for x in a] == [1, 2, 3, 4]


def test_subset_replace():
    a = Subset.of(7, [1, 4, 5, 6])
    assert a.replace(4, 2).elements == (1, 2, 5, 6)
    with pytest.raises(InvalidParameters):
        a.replace(3, 2)  # 3 not a member
    with pytest.raises(InvalidParameters):
        a.replace(4, 5)  # 5 already a member


@pytest.mark.parametrize(
    "bad",
    ["{}", "{1,1}", "{1,a}", "1,2", "{0,1}", "{1,9}"],
)
def test_subset_parse_rejects(bad):
    with pytest.raises(InvalidParameters):
        Subset.parse(bad, 8)


# ---------------------------------------------------------------------------
# Partition
# ---------------------------------------------------------------------------


def test_partition_of_canonicalizes():
    p = Partition.of(5, [[3, 2, 5], [4], [1]])
    assert p.blocks == ((1,), (2, 3, 5), (4,))
    assert str(p) == "{{1},{2,3,5},{4}}"
    assert p.minima == (1, 2, 4)
    assert len(p) == 3


def test_partition_parse_infers_ground_set():
    p = Partition.parse("{{1},{2,3,5},{4,7},{6}}")
    assert p.n == 7
    assert p.block_index(7) == 3
    assert p.block(p.block_index(3)) == (2, 3, 5)
    assert p.block_index(2) == p.block_index(5) and p.block_index(1) != p.block_index(2)


@pytest.mark.parametrize(
    "bad",
    [
        "{{1},{2}}",          # does not cover [1,3] when n=3
        "{{1,2},{2,3}}",      # overlap
        "{{1},{},{2,3}}",     # empty block
        "{{1,4}}",            # gap
        "{1,2}",              # not a partition literal
    ],
)
def test_partition_parse_rejects(bad):
    with pytest.raises(InvalidParameters):
        Partition.parse(bad, 3)


def test_partition_convexity():
    assert Partition.parse("{{1,2},{3},{4,5}}").is_convex()
    assert not Partition.parse("{{1,3},{2},{4,5}}").is_convex()


def test_partition_transversals_order_and_count():
    p = Partition.parse("{{1},{2,3,4}}")
    ts = p.transversals()
    assert [str(t) for t in ts] == ["{1,2}", "{1,3}", "{1,4}"]
    assert transversal_count(p) == 3
    assert p.min_transversal() == ts[0]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,r", [(4, 2), (5, 3), (6, 1), (6, 6), (7, 4)])
def test_subset_enumeration_count(n, r):
    subs = list(enumerate_subsets(n, r))
    assert len(subs) == math.comb(n, r)
    assert len(set(subs)) == len(subs)
    # increasing positional-lex order
    assert subs == sorted(subs, key=lambda s: s.elements)


def test_subset_enumeration_endpoints():
    subs = list(enumerate_subsets(5, 3))
    assert str(subs[0]) == "{1,2,3}"
    assert str(subs[-1]) == "{3,4,5}"


@pytest.mark.parametrize("n,r", [(4, 2), (5, 3), (6, 4), (7, 4), (7, 5)])
def test_partition_enumeration_count(n, r):
    parts = list(enumerate_partitions(n, r))
    assert len(parts) == stirling2(n, r)
    assert len(set(parts)) == len(parts)


def test_partition_enumeration_endpoints():
    parts = list(enumerate_partitions(4, 2))
    assert len(parts) == 7
    assert str(parts[0]) == "{{1,2,3},{4}}"
    assert str(parts[-1]) == "{{1},{2,3,4}}"


def test_census_counts_seven_four():
    assert stirling2(7, 4) == 350
    assert math.comb(7, 5) == 21
    assert count_transversal_pairs(7, 4) == 2240


@pytest.mark.parametrize("n,r,expected", [(4, 2, 24), (5, 3, 90), (7, 5, 525)])
def test_transversal_pair_count_matches_enumeration(n, r, expected):
    pairs = list(enumerate_transversal_pairs(n, r))
    assert len(pairs) == expected == count_transversal_pairs(n, r)
    for p, a in pairs[:50]:
        assert is_transversal(a, p)


# ---------------------------------------------------------------------------
# transversality
# ---------------------------------------------------------------------------


def test_is_transversal_examples():
    p = Partition.parse("{{1},{2,3,5},{4,7},{6}}")
    assert is_transversal(Subset.parse("{1,4,5,6}", 7), p)
    assert not is_transversal(Subset.parse("{2,3,4,6}", 7), p)  # two in one block
    with pytest.raises(InvalidParameters):
        is_transversal(Subset.parse("{1,2,4}", 7), p)  # wrong size is an error


def test_require_transversal_raises():
    p = Partition.parse("{{1,2},{3,4}}")
    require_transversal(Subset.parse("{2,3}", 4), p)
    with pytest.raises(TransversalityViolation):
        require_transversal(Subset.parse("{1,2}", 4), p)


def test_min_transversal():
    p = Partition.parse("{{1},{2,3,5},{4,7},{6}}")
    assert str(p.min_transversal()) == "{1,2,4,6}"


@given(st.data())
def test_min_transversal_is_transversal(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    # random set partition: assign each element a block seed, then renumber
    seeds = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    blocks: dict[int, list[int]] = {}
    for x, s in enumerate(seeds, start=1):
        blocks.setdefault(s, []).append(x)
    p = Partition.of(n, blocks.values())
    m = p.min_transversal()
    assert is_transversal(m, p)
    assert m.elements == p.minima
    # and every transversal produced by the partition itself checks out
    for t in p.transversals():
        assert is_transversal(t, p)
