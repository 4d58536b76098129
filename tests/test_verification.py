"""Independent oracles: coset enumeration, label homomorphism, verdicts."""

import math

import pytest
from hypothesis import given, settings, strategies as st

import coset_reference
import igmax.verification as verification
from igmax.errors import InvalidParameters, VerificationFailed
from igmax.labels import label_by_subscripts
from igmax.pipeline import replay_log
from igmax.presentation import (
    AbstractGenerator,
    GroupPresentation,
    Relation,
    build_presentation,
    coxeter_presentation,
    inverse_word,
)
from igmax.perms import Permutation
from igmax.verification import (
    CosetResult,
    _BudgetHit,
    _Enumerator,
    _generated_order,
    _relators,
    _tietze,
    coset_enumerate,
    label_homomorphism_check,
    presentations_match,
    verify_theorem,
)


# ---------------------------------------------------------------------------
# coset enumeration
# ---------------------------------------------------------------------------


def test_coset_orders_of_symmetric_groups():
    for r in (2, 3, 4, 5):
        res = coset_enumerate(coxeter_presentation(r))
        assert res.closed
        assert res.order == math.factorial(r)
        assert res.live_cosets == res.order
        assert res.cosets_defined >= res.order


def test_coset_trivial_group():
    res = coset_enumerate(coxeter_presentation(1))
    assert res.closed and res.order == 1


def test_coset_on_concrete_presentation():
    # the (4,2) pair presentation collapses to the 2-element group
    res = coset_enumerate(build_presentation(4, 2))
    assert res.closed and res.order == 2


def test_coset_budget_exhaustion():
    res = coset_enumerate(coxeter_presentation(4), max_cosets=5)
    assert not res.closed
    assert res.order is None
    assert res.cosets_defined == 5
    doc = res.to_json()
    assert doc == {
        "closed": False,
        "order": None,
        "cosets_defined": 5,
        "live_cosets": doc["live_cosets"],
    }


def test_coset_audit_rejects_an_open_table():
    enum = _Enumerator(1, [(0, 0)], 100)  # one generator of order 2
    enum.run()
    enum.audit()
    del enum.rows[1][0]
    with pytest.raises(VerificationFailed):
        enum.audit()


def test_coset_audit_rejects_columns_that_are_not_inverse():
    enum = _Enumerator(1, [(0, 0)], 100)
    enum.run()
    enum.audit()
    enum.rows[1][1] = 1  # 1·a^-1 = 1 although 1·a = 2
    with pytest.raises(VerificationFailed, match="not inverse"):
        enum.audit()


def test_relators_keep_one_word_per_inverse_pair():
    g, h = AbstractGenerator("g"), AbstractGenerator("h")
    gh = ((g, 1), (h, 1))
    pres = GroupPresentation(
        (g, h),
        (
            Relation(gh, (), "t"),
            Relation((), gh, "t"),  # the inverse relator
            Relation(((g, 1),), ((h, -1),), "t"),  # the same relator again
            Relation(((g, 1), (g, -1)), (), "t"),  # freely trivial
            Relation(((h, 1), (g, 1)), (), "t"),  # a rotation, which is kept
            Relation(((h, -1), (g, -1)), (), "t"),  # the inverse of the first
        ),
    )
    assert _relators(pres) == [(0, 2), (2, 0)]


def test_coset_determinism():
    a = coset_enumerate(coxeter_presentation(4))
    b = coset_enumerate(coxeter_presentation(4))
    assert a == b


# The HLT core skips the inverse and duplicate relators that cannot change
# its table, so on a presentation's own relators it must define the very
# cosets the plain HLT enumerator of coset_reference.py defines: same closure,
# order and counts at every budget.  coset_enumerate runs that core on the
# Tietze-reduced presentation, which defines fewer cosets, so against the
# reference it must give the same order.


def unreduced_enumerate(pres, budget):
    """The HLT core on ``_relators(pres)``, with no Tietze pass."""
    enum = _Enumerator(len(pres.generators), _relators(pres), budget)
    try:
        enum.run()
    except _BudgetHit:
        return CosetResult(False, None, enum.defined, len(enum.live()))
    enum.audit()
    live = len(enum.live())
    return CosetResult(True, live, enum.defined, live)


REFERENCE_CASES = [(build_presentation, (n, r)) for n in range(3, 7) for r in range(1, n - 1)] + [
    (coxeter_presentation, (r,)) for r in range(1, 6)
]


@pytest.mark.parametrize(
    "build,args", REFERENCE_CASES, ids=[f"{build.__name__}{args}" for build, args in REFERENCE_CASES]
)
def test_coset_counts_match_the_reference(build, args):
    pres = build(*args)
    for budget in (5, 50, 500, 5_000, 50_000):
        expected = coset_reference.coset_enumerate(pres, budget)
        assert unreduced_enumerate(pres, budget) == expected
    # expected is now the reference under 50,000
    res = coset_enumerate(pres, 50_000)
    assert res.closed and expected.closed
    assert res.order == res.live_cosets == expected.order


def test_coset_counts_match_the_reference_at_seven_five():
    pres = build_presentation(7, 5)
    res = unreduced_enumerate(pres, 50_000)
    assert res == coset_reference.coset_enumerate(pres, 50_000)
    assert res == CosetResult(True, 120, 32040, 120)
    reduced = coset_enumerate(pres, 50_000)
    assert reduced.closed and reduced.order == 120


def test_coset_oracle_reaches_seven_four():
    # and (8,6), which the enumeration of the unreduced presentation does not
    # close under the default budget
    for (n, r), order in (((7, 4), 24), ((8, 6), 720)):
        res = coset_enumerate(build_presentation(n, r))
        assert res.closed, (n, r)
        assert res.order == res.live_cosets == order


@pytest.mark.parametrize("budget", [0, -3, True, 2.5, "5", None])
def test_coset_budget_must_be_a_positive_int(budget):
    with pytest.raises(InvalidParameters):
        coset_enumerate(coxeter_presentation(1), budget)


def test_coset_audit_catches_a_wrong_elimination(monkeypatch):
    # g -> 1 recorded for a generator the relators set equal to a nontrivial
    # one: the reduced table is sound, but its extension to the input's
    # generators breaks an input relator, so no order may come out
    import igmax.verification as verification

    pres = build_presentation(5, 3)
    tietze = verification._tietze

    def wrong(n_gens, relators):
        survivors, reduced, eliminated = tietze(n_gens, relators)
        i = next(
            i
            for i, (g, word) in enumerate(eliminated)
            if len(word) == 1 and not pres.generators[g].label.is_identity()
        )
        eliminated[i] = (eliminated[i][0], ())
        return survivors, reduced, eliminated

    monkeypatch.setattr(verification, "_tietze", wrong)
    with pytest.raises(VerificationFailed, match="relator does not close on a live coset"):
        coset_enumerate(pres)


GENS = tuple(AbstractGenerator(name) for name in "abc")


@st.composite
def small_presentations(draw):
    """1-3 generators and short relations, with duplicates and inverses of
    earlier relations mixed in, sometimes with the sides swapped."""
    gens = GENS[: draw(st.integers(1, 3))]
    letters = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
    words = st.lists(letters, max_size=5).map(tuple)
    relations = []
    for _ in range(draw(st.integers(0, 6))):
        earlier = draw(st.sampled_from(range(len(relations)))) if relations else None
        kind = draw(st.sampled_from(("new", "duplicate", "inverse", "swapped")))
        if earlier is None or kind == "new":
            relations.append(Relation(draw(words), draw(st.lists(letters, max_size=2).map(tuple)), "t"))
            continue
        rel = relations[earlier]
        if kind == "duplicate":
            relations.append(rel)
        elif kind == "inverse":
            relations.append(Relation(inverse_word(rel.relator()), (), "t"))
        else:
            relations.append(Relation(rel.rhs, rel.lhs, "t"))
    return GroupPresentation(gens, tuple(relations))


@settings(max_examples=150, deadline=None)
@given(small_presentations())
def test_coset_counts_match_the_reference_on_random_presentations(pres):
    expected = coset_reference.coset_enumerate(pres, 2_000)
    assert unreduced_enumerate(pres, 2_000) == expected
    res = coset_enumerate(pres, 2_000)
    if res.closed and expected.closed:
        assert res.order == expected.order


# ---------------------------------------------------------------------------
# label homomorphism
# ---------------------------------------------------------------------------


def test_homomorphism_four_two():
    rep = label_homomorphism_check(build_presentation(4, 2))
    assert rep.ok
    assert rep.relations_checked == 60
    assert rep.relations_satisfied
    assert rep.image_order == 2
    assert rep.surjective
    assert rep.first_failure is None


def test_homomorphism_five_three():
    rep = label_homomorphism_check(build_presentation(5, 3))
    assert rep.ok and rep.image_order == 6


def test_homomorphism_needs_pair_generators():
    with pytest.raises(InvalidParameters):
        label_homomorphism_check(coxeter_presentation(3))


def test_homomorphism_flags_bogus_relation():
    pres = build_presentation(4, 2)
    idents = [g for g in pres.generators if g.label.is_identity()]
    others = [g for g in pres.generators if not g.label.is_identity()]
    bad = Relation(((idents[0], 1),), ((others[0], 1),), "bottom")
    broken = GroupPresentation(pres.generators, pres.relations + (bad,), dict(pres.meta))
    rep = label_homomorphism_check(broken)
    assert not rep.ok
    assert not rep.relations_satisfied
    assert rep.relations_checked == 61
    assert rep.first_failure == str(bad)
    assert rep.surjective  # the image is unchanged


def test_generated_order_of_subgroups():
    assert _generated_order({Permutation((2, 1, 3))}, 3) == 2
    assert _generated_order({Permutation((2, 3, 1))}, 3) == 3
    assert _generated_order({Permutation((2, 1, 3)), Permutation((1, 3, 2))}, 3) == 6
    assert _generated_order({Permutation((2, 1, 4, 3))}, 4) == 2
    assert _generated_order(set(), 4) == 1


# ---------------------------------------------------------------------------
# presentation comparison
# ---------------------------------------------------------------------------


def test_presentations_match_positive():
    assert presentations_match(coxeter_presentation(3), coxeter_presentation(3))


def test_presentations_match_ignores_relation_order():
    pres = coxeter_presentation(3)
    flipped = GroupPresentation(pres.generators, tuple(reversed(pres.relations)), {})
    assert presentations_match(pres, flipped)


def test_presentations_match_negative():
    assert not presentations_match(coxeter_presentation(2), coxeter_presentation(3))
    pres = coxeter_presentation(3)
    g = pres.generators[0]
    extra = Relation(((g, 1),) * 3, (), "derived")
    bigger = GroupPresentation(pres.generators, pres.relations + (extra,), {})
    assert not presentations_match(pres, bigger)


# ---------------------------------------------------------------------------
# assembled verdicts
# ---------------------------------------------------------------------------


def test_verify_four_two():
    report, log = verify_theorem(4, 2)
    assert report.pipeline
    assert report.homomorphism
    assert report.coset_order is None
    assert report.verdict == "confirmed S_2"
    assert log is not None and replay_log(log).ok
    doc = report.to_json()
    assert doc["verdict"] == "confirmed S_2"
    assert "coset_detail" not in doc
    assert "homomorphism_detail" not in doc
    assert doc["replay_detail"]["discharged"] == doc["replay_detail"]["relations"] == 60


def test_verify_four_two_with_coset_oracle():
    report, _ = verify_theorem(4, 2, budget=1000)
    assert report.coset_order == 2
    assert report.verdict == "confirmed S_2"
    assert report.coset_result.closed
    assert report.to_json()["coset_detail"]["order"] == 2


def test_verify_exhausted_budget_stays_one_sided():
    # an inconclusive enumeration must not contradict the derivation
    report, _ = verify_theorem(5, 3, budget=5)
    assert report.coset_order is None
    assert not report.coset_result.closed
    assert report.verdict == "confirmed S_3"


def test_verify_boundary_case():
    # C(n-1, 2) generators stay free at r = n-1, as greedy Tietze elimination found
    for n in range(3, 9):
        report, log = verify_theorem(n, n - 1)
        assert log is None
        assert not report.pipeline
        assert report.coset_order is None
        assert report.boundary_free_consistent
        assert report.verdict == (
            "not confirmed: boundary r = n-1, free-type regime "
            f"({math.comb(n - 1, 2)} generators, no relations survive)"
        )
        assert report.to_json()["boundary_free_consistent"] is True


def test_boundary_tietze_leaves_survivors_and_no_relator(monkeypatch):
    with pytest.warns(UserWarning):
        pres = build_presentation(4, 3)
    survivors, left, _ = _tietze(len(pres.generators), _relators(pres))
    assert len(survivors) == 3 and left == []
    # g g = 1 on a surviving generator is neither g = h nor g = 1, and no
    # Tietze move removes it
    g = pres.generators[survivors[0]]
    square = Relation(((g, 1), (g, 1)), (), "derived")
    tampered = GroupPresentation(pres.generators, pres.relations + (square,))
    assert _tietze(len(pres.generators), _relators(tampered))[1] != []
    monkeypatch.setattr(verification, "build_presentation", lambda n, r: tampered)
    report, _ = verify_theorem(4, 3)
    assert report.verdict == "not confirmed: boundary r = n-1, simplification left relations"
    assert report.boundary_free_consistent is False


def test_verify_rejects_a_coset_budget_below_one():
    with pytest.raises(InvalidParameters):
        verify_theorem(4, 2, budget=0)


@pytest.mark.parametrize("budget", [0, -5, True, 2.5])
def test_verify_rejects_a_bad_budget_before_it_builds(monkeypatch, budget):
    def unbuilt(n, r):
        raise AssertionError("built a presentation for a budget that was never valid")

    monkeypatch.setattr(verification, "build_presentation", unbuilt)
    with pytest.raises(InvalidParameters, match="the coset budget must be an int of at least 1"):
        verify_theorem(7, 4, budget=budget)


def test_verify_rejects_bad_rank():
    with pytest.raises(InvalidParameters):
        verify_theorem(4, 4)
    with pytest.raises(InvalidParameters):
        verify_theorem(4, 0)


def test_verify_builds_the_presentation_once(monkeypatch):
    import igmax.pipeline
    import igmax.verification

    builds = []

    def counting_build(n, r):
        builds.append((n, r))
        return build_presentation(n, r)

    monkeypatch.setattr(igmax.pipeline, "build_presentation", counting_build)
    monkeypatch.setattr(igmax.verification, "build_presentation", counting_build)
    report, _ = verify_theorem(5, 3)
    assert report.verdict == "confirmed S_3"
    assert builds == [(5, 3)]


def test_verify_rests_on_one_replay(monkeypatch):
    import igmax.pipeline
    import igmax.verification

    replays = []
    replay = igmax.pipeline.replay_log

    def counting_replay(log, pres=None):
        replays.append((log.n, log.r))
        return replay(log, pres)

    def no_homomorphism_check(pres):
        pytest.fail("verify ran the label homomorphism check below the boundary")

    monkeypatch.setattr(igmax.pipeline, "replay_log", counting_replay)
    monkeypatch.setattr(igmax.verification, "label_homomorphism_check", no_homomorphism_check)
    report, _ = verify_theorem(5, 3)
    assert report.verdict == "confirmed S_3"
    assert replays == [(5, 3)]
    assert report.replay_report.ok


def test_verify_replays_the_log_it_produced(monkeypatch):
    # one unsound step: the first bottom step cites a proper square that is not singular
    import dataclasses

    import igmax.pipeline
    from igmax.squares import _singular_index, enumerate_squares, is_singular_sq3

    bogus = next(sq for sq in enumerate_squares(4, 2) if not sq.is_degenerate() and not is_singular_sq3(sq))
    run = igmax.pipeline.run_pipeline

    def unsound(n, r):
        final, log = run(n, r)
        i = next(i for i, st in enumerate(log.steps) if st.rule == "bottom")
        # a step holds its witness square as the ids of its kernels and images
        square = _singular_index(n, r).square(*bogus.kernels, *bogus.images)
        log.steps[i] = dataclasses.replace(log.steps[i], square=square)
        return final, log

    monkeypatch.setattr(igmax.pipeline, "run_pipeline", unsound)
    report, _ = verify_theorem(4, 2, budget=1000)
    assert not report.pipeline
    assert report.coset_order == 2
    assert report.verdict.startswith("not confirmed: pipeline")
    assert "witness square is not singular" in dict(report.replay_report.failures).values()
