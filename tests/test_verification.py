"""Independent oracles: coset enumeration, label homomorphism, verdicts."""

import math

import pytest

from igmax.errors import InvalidParameters, VerificationFailed
from igmax.labels import label_by_subscripts
from igmax.pipeline import replay_log
from igmax.presentation import (
    GroupPresentation,
    Relation,
    build_presentation,
    coxeter_presentation,
)
from igmax.perms import Permutation
from igmax.verification import (
    _Enumerator,
    _boundary_survivors,
    _generated_order,
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


def test_coset_determinism():
    a = coset_enumerate(coxeter_presentation(4))
    b = coset_enumerate(coxeter_presentation(4))
    assert a == b


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
    report, _ = verify_theorem(5, 3, budget=10)
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


def test_boundary_survivors_need_top_and_middle_shapes():
    with pytest.warns(UserWarning):
        pres = build_presentation(4, 3)
    assert _boundary_survivors(pres) == 3
    g, h = pres.generators[:2]
    other = Relation(((g, 1), (h, 1)), (), "derived")
    assert _boundary_survivors(GroupPresentation(pres.generators, pres.relations + (other,))) is None


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
    from igmax.squares import enumerate_squares, is_singular_sq3

    bogus = next(sq for sq in enumerate_squares(4, 2) if not sq.is_degenerate() and not is_singular_sq3(sq))
    run = igmax.pipeline.run_pipeline

    def unsound(n, r, pres=None):
        final, log = run(n, r, pres)
        i = next(i for i, st in enumerate(log.steps) if st.rule == "bottom")
        log.steps[i] = dataclasses.replace(log.steps[i], square=bogus)
        return final, log

    monkeypatch.setattr(igmax.pipeline, "run_pipeline", unsound)
    report, _ = verify_theorem(4, 2, budget=1000)
    assert not report.pipeline
    assert report.coset_order == 2
    assert report.verdict.startswith("not confirmed: pipeline")
    assert "witness square is not singular" in dict(report.replay_report.failures).values()
