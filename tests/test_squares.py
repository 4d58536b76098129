"""Squares, the three singularity tests, witnesses, census, label graphs."""

import itertools

import pytest

from igmax.combinatorics import Partition, Subset
from igmax.errors import InvalidParameters, NotASquare
from igmax.labels import label
from igmax.perms import compose, contiguous_cycle, cycle_form, invert
from igmax.squares import (
    Square,
    _singular_index,
    enumerate_singular_squares,
    enumerate_squares,
    is_singular_ids,
    is_singular_sq2,
    is_singular_sq3,
    square_census,
    square_record,
)

from squares_reference import (
    SingularityEvidence,
    check_left_right,
    constructive_witness,
    find_singular_not_rectangular,
    find_singularizing_idempotent,
    is_degenerate,
    is_rectangular_band,
    label_graph,
    left_right_witness,
    singular_vertex_labels,
    up_down_witness,
)
from perms_reference import identity, perm
from pipeline_reference import ids
from transform_reference import Transformation


def mk(p_text, q_text, a_text, b_text, n):
    return Square(
        (Partition.parse(p_text, n), Partition.parse(q_text, n)),
        (Subset.parse(a_text, n), Subset.parse(b_text, n)),
    )


# the two squares everything else in this file keeps coming back to
SINGULAR = mk("{{1},{2,3,5},{4,7},{6}}", "{{1},{2,3,6},{4,7},{5}}", "{1,4,5,6}", "{1,5,6,7}", 7)
NONSINGULAR = mk("{{1},{2,4},{3,6},{5,7}}", "{{1},{2,6,7},{3,5},{4}}", "{1,3,4,7}", "{1,4,5,6}", 7)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_square_rejects_non_transversal_corner():
    with pytest.raises(NotASquare):
        mk("{{1,2},{3,4}}", "{{1,3},{2,4}}", "{1,2}", "{1,3}", 4)


def test_square_rejects_mixed_sizes():
    with pytest.raises(NotASquare):
        Square(
            (Partition.parse("{{1,2},{3,4}}"), Partition.parse("{{1},{2,3},{4}}")),
            (Subset.parse("{1,3}", 4), Subset.parse("{1,4}", 4)),
        )


def test_degenerate_detection():
    sq = mk("{{1,2},{3,4}}", "{{1,2},{3,4}}", "{1,3}", "{2,4}", 4)
    assert is_degenerate(sq)
    assert is_singular_sq2(sq) and is_singular_sq3(sq)
    proper = mk("{{1},{2,3,4}}", "{{1,2},{3,4}}", "{1,3}", "{1,4}", 4)
    assert not is_degenerate(proper)


# ---------------------------------------------------------------------------
# the two reference squares
# ---------------------------------------------------------------------------


def test_reference_singular_square():
    assert [cycle_form(l) for l in SINGULAR.corner_labels] == [
        "(2 3)", "(3 4)", "(2 4 3)", "(2 3 4)"]
    assert is_singular_sq2(SINGULAR)
    assert is_singular_sq3(SINGULAR)
    # the common quotient both rows produce
    la, lb, lc, ld = SINGULAR.corner_labels
    assert compose(invert(la), lb) == compose(invert(lc), ld) == perm("(2 4 3)", 4)


def test_reference_nonsingular_square():
    assert [cycle_form(l) for l in NONSINGULAR.corner_labels] == [
        "(2 3)", "(3 4)", "(2 4 3)", "(2 4)"]
    assert not is_singular_sq2(NONSINGULAR)
    assert not is_singular_sq3(NONSINGULAR)
    assert find_singularizing_idempotent(NONSINGULAR).kind == "none"
    assert left_right_witness(NONSINGULAR) is None
    assert up_down_witness(NONSINGULAR) is None


def test_reference_square_witness():
    ev = find_singularizing_idempotent(SINGULAR)
    assert ev.kind == "both"
    assert ev.witness is not None
    assert ev.witness.is_idempotent()
    assert check_left_right(ev.witness, SINGULAR)


# ---------------------------------------------------------------------------
# equivalence of the three tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4])
def test_three_tests_agree_small(n):
    for r in range(1, n + 1):
        for sq in enumerate_squares(n, r):
            s2 = is_singular_sq2(sq)
            s3 = is_singular_sq3(sq)
            ev = find_singularizing_idempotent(sq)
            assert s2 == s3 == (ev.kind != "none"), sq


def test_fast_witness_matches_exhaustive_search():
    for sq in enumerate_squares(4, 2):
        fast = find_singularizing_idempotent(sq, method="fast")
        slow = find_singularizing_idempotent(sq, method="exhaustive")
        assert fast.kind == slow.kind


def test_unknown_method_rejected():
    with pytest.raises(InvalidParameters):
        find_singularizing_idempotent(SINGULAR, method="guess")


def test_constructive_witness_on_all_singular_squares():
    for sq in enumerate_singular_squares(5, 3):
        w = constructive_witness(sq)
        assert w.is_idempotent()
        assert check_left_right(w, sq)


def test_every_singular_square_has_both_witness_kinds():
    # observed fact across the computed range; "LR"/"UD"-only never occurs
    for sq in enumerate_singular_squares(4, 2):
        assert find_singularizing_idempotent(sq).kind == "both"
        assert up_down_witness(sq) is not None


def test_transposed_witness_formula_fails():
    """The witness that picks its target from the *other* kernel's block
    (xe = y for B∩P_i = {x}, A∩Q_i = {y}) does not satisfy the LR equations;
    frozen first counterexample plus an exhaustive sweep at (4,2)."""

    def transposed(sq):
        p, q = sq.kernels
        a, b = sq.images
        images = list(range(1, sq.n + 1))
        for i in range(len(p)):
            x = next(v for v in p.blocks[i] if v in b)
            y = next(v for v in q.blocks[i] if v in a)
            images[x - 1] = y
        return Transformation(sq.n, tuple(images))

    first = mk("{{1},{2,3,4}}", "{{1,2},{3,4}}", "{1,3}", "{1,4}", 4)
    assert is_singular_sq2(first)
    e = transposed(first)
    assert str(e) == "[1,2,3,3]"
    assert e.is_idempotent() and not check_left_right(e, first)

    bad = sum(
        1
        for sq in enumerate_singular_squares(4, 2)
        if not check_left_right(transposed(sq), sq)
    )
    assert bad == 48  # i.e. all of them


# ---------------------------------------------------------------------------
# rectangular bands
# ---------------------------------------------------------------------------


def test_rectangular_band_implies_singular():
    for r in (2, 3):
        for sq in enumerate_squares(4, r):
            if is_rectangular_band(sq):
                assert is_singular_sq2(sq)


def test_singular_coincides_with_band_in_range():
    assert find_singular_not_rectangular(4, 2) is None
    assert find_singular_not_rectangular(5, 3) is None


# ---------------------------------------------------------------------------
# enumeration and census
# ---------------------------------------------------------------------------


def test_enumeration_counts_four_two():
    assert sum(1 for _ in enumerate_squares(4, 2)) == 216
    assert sum(1 for _ in enumerate_singular_squares(4, 2)) == 48
    assert all(not is_degenerate(sq) for sq in enumerate_singular_squares(4, 2))


def test_census_four_two():
    c = square_census(4, 2)
    assert c.to_json() == {
        "n": 4,
        "r": 2,
        "partitions": 7,
        "subsets": 6,
        "transversal_pairs": 24,
        "squares": 216,
        "proper_squares": 60,
        "singular_proper": 48,
        "singular_proper_unordered": 12,
        "singular_degenerate": 156,
    }


def test_census_matches_enumeration_five_two():
    c = square_census(5, 2)
    assert c.singular_proper == 840
    assert c.singular_proper == sum(1 for _ in enumerate_singular_squares(5, 2))


@pytest.mark.parametrize("n, r", [(n, r) for n in range(1, 8) for r in range(1, n + 1)])
def test_bucketed_enumeration_is_the_sq3_filter(n, r):
    reference = (
        sq for sq in enumerate_squares(n, r) if not is_degenerate(sq) and is_singular_sq3(sq)
    )
    count = 0
    for got, want in itertools.zip_longest(enumerate_singular_squares(n, r), reference):
        assert got == want
        count += 1
    assert square_census(n, r).singular_proper == count


def test_index_looks_up_its_own_kernels_and_images():
    index = _singular_index(5, 3)
    assert str(index.parts[index.kernel_with([[5, 2], [1], [4, 3]])]) == "{{1},{2,5},{3,4}}"
    assert str(index.subsets[index.image_with([4, 1, 2])]) == "{1,2,4}"
    # a block string with the blocks named in another order
    assert index.kernel_id(bytearray([0, 7, 3, 9, 9, 3])) == index.kernel_with([[1], [2, 5], [3, 4]])
    for k, p in enumerate(index.parts):
        assert ids(index, p) == (k,) and index.kernel_id(bytearray(index.block_of[k])) == k
    for a, s in enumerate(index.subsets):
        assert ids(index, s) == (a,)
    for blocks in ([[1], [2, 3, 4, 5]], [[1, 2], [2, 3], [4, 5]], [[1], [2], [3, 4, 5, 6]], [[], [1, 2], [3, 4, 5]]):
        with pytest.raises(InvalidParameters):
            index.kernel_with(blocks)
    with pytest.raises(InvalidParameters):
        index.kernel_id(bytearray([0, 0, 1, 1, 1, 1]))
    for elements in ([1, 2], [1, 1, 2], [1, 2, 6], [0, 1, 2]):
        with pytest.raises(InvalidParameters):
            index.image_with(elements)


@pytest.mark.parametrize("n, r", [(4, 2), (5, 3), (6, 3)])
def test_id_singularity_test_agrees_with_sq2_and_sq3(n, r):
    # every ordered square, degenerate ones included, through the index's ids
    index = _singular_index(n, r)
    verdicts = set()
    for sq in enumerate_squares(n, r):
        got = is_singular_ids(index, *ids(index, *sq.kernels, *sq.images))
        assert got == is_singular_sq2(sq), sq.to_json()
        assert got == is_singular_sq3(sq), sq.to_json()
        verdicts.add(got)
    assert verdicts == {True, False}


def test_index_numbers_the_pairs_in_generator_order():
    index = _singular_index(5, 3)
    pairs = [(p, a) for p in index.parts for a in p.transversals()]
    assert [(index.parts[k], index.subsets[a]) for k, a in index.pairs] == pairs
    for g, (p, a) in enumerate(pairs):
        k, i = ids(index, p, a)
        assert index.generator_of[k][i] == g
        assert index.labels[g] == label(p, a)
        assert index.name(g) == f"f[{p}|{a}]"
    k, i = ids(index, Partition.parse("{{1,2},{3,4},{5}}", 5), Subset.parse("{1,2,5}", 5))
    assert i not in index.generator_of[k]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_boundary_rank_has_no_proper_singular_squares(n):
    assert square_census(n, n - 1).singular_proper == 0


def test_full_rank_census_degenerate_only():
    c = square_census(3, 3)
    assert c.partitions == c.subsets == c.transversal_pairs == 1
    assert c.proper_squares == 0
    assert c.squares == c.singular_degenerate == 1


# ---------------------------------------------------------------------------
# vertex labels and label graphs
# ---------------------------------------------------------------------------


def test_singular_vertex_labels_four_two():
    labs = singular_vertex_labels(4, 2)
    assert [cycle_form(l) for l in labs] == ["()", "(1 2)"]


def test_label_graph_adjacent_transposition_connected():
    g = label_graph(contiguous_cycle(1, 1, 2), 4, 2)
    assert len(g.vertices) == 6
    assert len(g.edges) == 5
    assert len(g.components()) == 1


def test_label_graph_degree_mismatch():
    with pytest.raises(InvalidParameters):
        label_graph(identity(3), 4, 2)


def test_label_graph_identity_component_structure():
    g = label_graph(identity(2), 4, 2)
    assert len(g.vertices) == 18
    assert len(g.components()) == 1
    # edges join equal kernels or equal images, never both absent
    for i, j in g.edges:
        vi, vj = g.vertices[i], g.vertices[j]
        assert vi[0] == vj[0] or vi[1] == vj[1]


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


def test_square_record_shape():
    rec = square_record(SINGULAR)
    assert rec["P"] == [[1], [2, 3, 5], [4, 7], [6]]
    assert rec["labels"] == {"PA": "(2 3)", "PB": "(3 4)", "QA": "(2 4 3)", "QB": "(2 3 4)"}
    assert rec["singular"] is True
    assert set(rec) == {"P", "Q", "A", "B", "labels", "singular"}

    ev = find_singularizing_idempotent(SINGULAR)
    assert ev.to_json()["kind"] == "both"


def test_evidence_json_none():
    assert SingularityEvidence("none", None).to_json() == {"kind": "none", "witness": None}
