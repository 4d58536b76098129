"""Acceptance gate: one test per shipping criterion, run with -v for the list.

Each test is self-contained apart from the shared theorem fixture; timed
criteria assert their own wall-clock budget.
"""

import math
import time

import pytest

from igmax.combinatorics import (
    Partition,
    Subset,
    enumerate_partitions,
    enumerate_subsets,
    enumerate_transversal_pairs,
)
from igmax.labels import label, label_by_subscripts
from igmax.perms import Permutation, contiguous_cycle
from igmax.pipeline import (
    _corners,
    _Letters,
    _three_quarter_relation,
    coxeter_square_braid,
    coxeter_square_commute,
    coxeter_square_involution,
    descent_reduction,
    replay_log,
)
from igmax.schreier import build_schreier, predecessor
from igmax.squares import Square, _singular_index, enumerate_squares, is_singular_sq2, is_singular_sq3, square_census
from igmax.verification import verify_theorem

from schreier_reference import back_map, into_map
from squares_reference import (
    find_singularizing_idempotent,
    is_rectangular_band,
    label_graph,
    singular_vertex_labels,
)

THEOREM_PAIRS = [(3, 1), (4, 2), (5, 2), (5, 3), (6, 3), (6, 4), (7, 4), (7, 5)]


@pytest.fixture(scope="module")
def theorem_runs():
    """One verify_theorem run per desk-scale pair, shared by 12 and 14."""
    runs = {}
    start = time.perf_counter()
    for n, r in THEOREM_PAIRS:
        runs[(n, r)] = verify_theorem(n, r, budget=50_000)
    return runs, time.perf_counter() - start


def test_criterion_01_desk_counts():
    start = time.perf_counter()
    partitions = sum(1 for _ in enumerate_partitions(7, 4))
    subsets = sum(1 for _ in enumerate_subsets(7, 4))
    pairs = sum(1 for _ in enumerate_transversal_pairs(7, 4))
    elapsed = time.perf_counter() - start
    assert partitions == 350
    assert subsets == 35
    assert pairs == 2240
    assert elapsed < 5.0


def test_criterion_02_label_golden():
    p = Partition.parse("{{1},{2,3,5},{4,7},{6}}")
    a = Subset.parse("{1,4,5,6}", 7)
    assert label(p, a).cycle_form() == "(2 3)"
    assert label_by_subscripts(p, a).cycle_form() == "(2 3)"


def test_criterion_03_reference_squares():
    singular = Square(
        (Partition.parse("{{1},{2,3,5},{4,7},{6}}"), Partition.parse("{{1},{2,3,6},{4,7},{5}}")),
        (Subset.parse("{1,4,5,6}", 7), Subset.parse("{1,5,6,7}", 7)),
    )
    assert [l.cycle_form() for l in singular.corner_labels] == [
        "(2 3)", "(3 4)", "(2 4 3)", "(2 3 4)"]
    assert is_singular_sq2(singular) and is_singular_sq3(singular)

    primed = Square(
        (Partition.parse("{{1},{2,4},{3,6},{5,7}}"), Partition.parse("{{1},{2,6,7},{3,5},{4}}")),
        (Subset.parse("{1,3,4,7}", 7), Subset.parse("{1,4,5,6}", 7)),
    )
    assert [l.cycle_form() for l in primed.corner_labels] == [
        "(2 3)", "(3 4)", "(2 4 3)", "(2 4)"]
    assert not is_singular_sq2(primed) and not is_singular_sq3(primed)


def test_criterion_04_singularity_tests_agree():
    start = time.perf_counter()
    checked = 0
    for n in range(2, 7):
        for r in range(1, n + 1):
            for sq in enumerate_squares(n, r):
                checked += 1
                verdicts = {
                    is_singular_sq2(sq),
                    is_singular_sq3(sq),
                    find_singularizing_idempotent(sq).kind != "none",
                }
                assert len(verdicts) == 1, sq
    assert checked == 63967
    assert time.perf_counter() - start < 600.0


def test_criterion_05_rectangular_bands_are_singular():
    for n in range(2, 6):
        for r in range(1, n + 1):
            for sq in enumerate_squares(n, r):
                if is_rectangular_band(sq):
                    assert is_singular_sq3(sq), sq


def test_criterion_06_schreier_invariants():
    for n in range(1, 8):
        for r in range(1, n + 1):
            sch = build_schreier(n, r)
            known = {sch.word_to(a): a for a in sch.subsets()}
            base = list(range(1, r + 1))
            for a in sch.subsets():
                rho, back = into_map(sch, a), back_map(sch, a)
                assert [rho(i) for i in base] == list(a.elements)
                assert [back(x) for x in a.elements] == base
                word = sch.word_to(a)
                for cut in range(len(word) + 1):
                    assert word[:cut] in known
                if word:
                    assert known[word[:-1]] == predecessor(a)


def test_criterion_07_label_graphs():
    pi = Permutation.parse("(2 3)(4 5)", 5)
    g = label_graph(pi, 7, 5)
    assert [(str(p), str(a)) for p, a in g.vertices] == [
        ("{{1},{2,4},{3},{5,7},{6}}", "{1,3,4,6,7}"),
        ("{{1},{2,5},{3},{4,7},{6}}", "{1,3,5,6,7}"),
    ]
    assert g.edges == ()
    assert len(g.components()) == 2

    for k in range(1, 5):
        for l in range(1, 5 - k + 1):
            cg = label_graph(contiguous_cycle(k, l, 5), 7, 5)
            assert len(cg.components()) == 1, (k, l)


def test_criterion_08_vertex_label_count():
    labels = singular_vertex_labels(7, 5)
    assert len(labels) == 46
    assert len(labels) < math.factorial(5)


def test_criterion_09_no_in_place_elimination():
    q0 = Partition.parse("{{1,4,5,7},{2},{3},{6}}")
    b0 = Subset.parse("{2,3,6,7}", 7)
    assert label_by_subscripts(q0, b0).image_form() == "[4,1,2,3]"

    found = []
    for p in enumerate_partitions(7, 4):
        if p == q0 or not p.meets_once(b0):
            continue
        for a in enumerate_subsets(7, 4):
            if a == b0 or not (p.meets_once(a) and q0.meets_once(a)):
                continue
            sq = Square((p, q0), (a, b0))
            if is_singular_sq3(sq):
                found.append(sq)
    assert len(found) == 45
    patterns = {tuple(l.cycle_form() for l in sq.corner_labels) for sq in found}
    assert len(patterns) == 7

    swap12 = Permutation.parse("(1 2)", 4)
    swap13 = Permutation.parse("(3 2 1)", 4)
    # no square lets the (1 2) factor appear opposite this row
    assert not any(sq.corner_labels[2] == swap12 for sq in found)
    # and the alternative factorization appears exactly once
    hits = [
        sq for sq in found
        if sq.corner_labels[1] == swap12 and sq.corner_labels[2] == swap13
    ]
    assert len(hits) == 1
    assert str(hits[0].kernels[0]) == "{{1,3},{2},{4,6},{5,7}}"
    assert str(hits[0].images[0]) == "{2,3,5,6}"
    assert hits[0].corner_labels[0].cycle_form() == "(1 2)(3 4)"


def test_criterion_10_descent_reduction_golden():
    p = Partition.parse("{{1,7},{2,5},{3,6},{4}}")
    a = Subset.parse("{4,5,6,7}", 7)
    q, b = descent_reduction(p, a, label_by_subscripts(p, a))
    Square((p, q), (a, b))  # the corners make a square
    assert str(q) == "{{1,3,7},{2,5},{4},{6}}"
    assert str(b) == "{1,2,4,6}"
    assert label_by_subscripts(p, b).cycle_form() == "(3 4)"
    assert label_by_subscripts(q, a).image_form() == "[4,2,1,3]"
    assert label_by_subscripts(q, b).is_identity()
    # the square solved for f[P,A], its generators named through the index
    index = _singular_index(7, 4)
    rel = _three_quarter_relation(_corners(index, index.square(p, q, a, b)), "QB", _Letters())

    def named(word):
        return " * ".join(index.name(g) + ("^-1" if e < 0 else "") for g, e in word)

    assert named(rel.lhs) == "f[{{1,7},{2,5},{3,6},{4}}|{4,5,6,7}]"
    assert named(rel.rhs) == (
        "f[{{1,7},{2,5},{3,6},{4}}|{1,2,4,6}] * f[{{1,3,7},{2,5},{4},{6}}|{4,5,6,7}]"
    )


def test_criterion_11_coxeter_squares():
    p, q, a, b = coxeter_square_involution(2, 7, 4)
    sq = Square((p, q), (a, b))
    assert [str(k) for k in sq.kernels] == ["{{1,7},{2,4},{3,5},{6}}", "{{1,2,7},{3,5},{4},{6}}"]
    assert [str(a) for a in sq.images] == ["{1,3,4,6}", "{1,4,5,6}"]
    assert is_singular_sq3(sq)
    assert [l.cycle_form() for l in sq.corner_labels] == ["(2 3)", "()", "()", "(2 3)"]

    (p, q, a, b), (q2, rr, b2, c) = coxeter_square_commute(1, 3, 7, 4)
    s1, s2 = Square((p, q), (a, b)), Square((q2, rr), (b2, c))
    assert [str(k) for k in s1.kernels] == ["{{1,3,4,7},{2},{5},{6}}", "{{1,3,7},{2},{4,6},{5}}"]
    assert [str(a) for a in s1.images] == ["{1,2,5,6}", "{2,3,5,6}"]
    assert [str(k) for k in s2.kernels] == ["{{1,3,7},{2},{4,6},{5}}", "{{1,2,7},{3},{4,6},{5}}"]
    assert [str(a) for a in s2.images] == ["{2,3,5,6}", "{2,3,4,5}"]
    assert is_singular_sq3(s1) and is_singular_sq3(s2)
    assert [l.cycle_form() for l in s1.corner_labels] == ["()", "(1 2)", "(3 4)", "(1 2)(3 4)"]
    assert [l.cycle_form() for l in s2.corner_labels] == ["(1 2)(3 4)", "(1 2)", "(3 4)", "()"]

    p, q, a, b = coxeter_square_braid(2, 7, 4)
    sq = Square((p, q), (a, b))
    assert [str(k) for k in sq.kernels] == ["{{1,7},{2,3,6},{4},{5}}", "{{1,7},{2,6},{3,5},{4}}"]
    assert [str(a) for a in sq.images] == ["{1,2,4,5}", "{1,4,5,6}"]
    assert is_singular_sq3(sq)
    assert [l.cycle_form() for l in sq.corner_labels] == ["()", "(2 4 3)", "(3 4)", "(2 4)"]


def test_criterion_12_theorem_desk_scale(theorem_runs):
    runs, elapsed = theorem_runs
    for (n, r), (report, _log) in runs.items():
        assert report.pipeline, (n, r)
        assert report.homomorphism, (n, r)
        assert report.verdict == f"confirmed S_{r}", (n, r)
        assert report.coset_order == math.factorial(r), (n, r)
    assert elapsed < 1800.0


def test_criterion_13_boundary_no_squares():
    for n in range(2, 8):
        census = square_census(n, n - 1)
        assert census.proper_squares == 0
        assert census.singular_proper == 0


def test_criterion_14_logs_replay(theorem_runs):
    runs, _ = theorem_runs
    for (n, r), (_report, log) in runs.items():
        assert log is not None, (n, r)
        report = replay_log(log)
        assert report.failures == (), (n, r)
        assert report.ok, (n, r)
