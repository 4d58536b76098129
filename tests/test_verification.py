"""Independent oracles: coset enumeration, label homomorphism, verdicts."""

import math
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import coset_reference
from perms_reference import generated_order, is_identity
from pipeline_reference import ids
from squares_reference import is_degenerate
import igmax.verification as verification
from igmax.errors import InvalidParameters, VerificationFailed
from igmax.replay import replay_log
from igmax.presentation import (
    GroupPresentation,
    RelationFamilies,
    build_presentation,
    coxeter_presentation,
    relation_families,
)
from igmax.squares import _SingularIndex, _singular_index
from igmax.verification import (
    CosetResult,
    _BudgetHit,
    _Enumerator,
    _reduced,
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
        res = coset_enumerate(coxeter_presentation(r).families)
        assert res.closed
        assert res.order == math.factorial(r)
        assert res.live_cosets == res.order
        assert res.cosets_defined >= res.order


def test_coset_trivial_group():
    res = coset_enumerate(coxeter_presentation(1).families)
    assert res.closed and res.order == 1


def test_coset_on_concrete_presentation():
    # the (4,2) pair presentation collapses to the 2-element group
    res = coset_enumerate(relation_families(4, 2))
    assert res.closed and res.order == 2


def test_coset_budget_exhaustion():
    res = coset_enumerate(coxeter_presentation(4).families, max_cosets=5)
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
    # the letters of g, g^-1, h, h^-1
    g, g_, h, h_ = range(4)
    relations = [
        ((g, h), ()),
        ((), (g, h)),  # the inverse relator
        ((g,), (h_,)),  # the same relator again
        ((g, g_), ()),  # freely trivial
        ((h, g), ()),  # a rotation, which is kept
        ((h_, g_), ()),  # the inverse of the first
    ]
    assert _reduced(relations) == [(0, 2), (2, 0)]


def test_coset_determinism():
    a = coset_enumerate(coxeter_presentation(4).families)
    b = coset_enumerate(coxeter_presentation(4).families)
    assert a == b


# The HLT core skips the inverse and duplicate relators that cannot change
# its table, so on a presentation's own relators it must define the very
# cosets the plain HLT enumerator of coset_reference.py defines: same closure,
# order and counts at every budget.  coset_enumerate runs that core on the
# Tietze-reduced presentation, which defines fewer cosets, and on the (n, r)
# relation families it reads a star of k-1 relations per SQ3 bucket instead
# of the k(k-1) of the bottom family, which has the same normal closure; so
# against the reference on the full presentation it must give the same order.


def unreduced_enumerate(families, budget):
    """The HLT core on the reduced relators of every relation, with no Tietze pass."""
    relators = _reduced(map(families.letters, range(families.relation_count)))
    enum = _Enumerator(families.generator_count, relators, budget)
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
    families = build(*args).families
    for budget in (5, 50, 500, 5_000, 50_000):
        expected = coset_reference.coset_enumerate(families, budget)
        assert unreduced_enumerate(families, budget) == expected
    # expected is now the reference under 50,000
    res = coset_enumerate(families, 50_000)
    assert res.closed and expected.closed
    assert res.order == res.live_cosets == expected.order


def test_coset_counts_match_the_reference_at_seven_five():
    families = relation_families(7, 5)
    res = unreduced_enumerate(families, 50_000)
    assert res == coset_reference.coset_enumerate(families, 50_000)
    assert res == CosetResult(True, 120, 32040, 120)
    reduced = coset_enumerate(relation_families(7, 5), 50_000)
    assert reduced.closed and reduced.order == 120


def test_coset_oracle_reaches_seven_four():
    # and (8,6), which the enumeration of the unreduced presentation does not
    # close under the default budget
    for (n, r), order in (((7, 4), 24), ((8, 6), 720)):
        res = coset_enumerate(relation_families(n, r))
        assert res.closed, (n, r)
        assert res.order == res.live_cosets == order


def test_the_star_family_defines_no_more_cosets_than_the_full_one():
    # the cosets the oracle defined on the full bottom family; a chain
    # x_{P1} = x_{P2}, x_{P2} = x_{P3}, ... per bucket defines 1,579 and 17,258
    for (n, r), full in (((7, 5), 216), ((8, 6), 1_795)):
        res = coset_enumerate(relation_families(n, r))
        assert res.closed and res.order == math.factorial(r)
        assert res.cosets_defined <= full, (n, r)


def test_the_star_family_spans_each_bucket_pair_once():
    families = relation_families(5, 3)
    star = families.spanning_bottom()
    buckets = len(families.bucket_ends)
    sizes = [(end - start) // 2 for start, end in zip((0, *families.bucket_ends), families.bucket_ends)]
    # the buckets come in mutually inverse pairs with the same members
    assert buckets % 2 == 0 and families.bottom == sum(k * (k - 1) for k in sizes)
    assert 2 * len(star) == sum(k - 1 for k in sizes)
    for (p, q), (s, t) in star:
        assert p & 1 and s & 1 and not q & 1 and not t & 1
        assert p >> 1 < q >> 1 and s >> 1 < t >> 1


def test_coset_audit_checks_the_whole_bottom_family(monkeypatch):
    # After the enumeration, two generators that no top or middle relation
    # names swap columns, so that a bucket's members give x_P two
    # permutations.  The star relators the enumeration read may not cover
    # the broken relation; the audit of every bucket must catch it.
    families = relation_families(5, 3)
    bottom = range(len(families.words), families.relation_count)
    named = {x >> 1 for lhs, rhs in families.words for x in lhs + rhs}
    columns = verification._columns
    swapped = []

    def swap(table, reduced_ids, n_gens, survivors, eliminated):
        ids = columns(table, reduced_ids, n_gens, survivors, eliminated)
        free = [g for g in range(n_gens) if g not in named]
        for i, g in enumerate(free):
            for h in free[i + 1 :]:
                if ids[2 * g] == ids[2 * h]:
                    continue
                trial = list(ids)
                trial[2 * g : 2 * g + 2], trial[2 * h : 2 * h + 2] = ids[2 * h : 2 * h + 2], ids[2 * g : 2 * g + 2]
                for lhs, rhs in map(families.letters, bottom):
                    if table.evaluate(lhs, trial) != table.evaluate(rhs, trial):
                        swapped.append((g, h))
                        return trial
        raise AssertionError("no two free generators break a bottom relation")

    monkeypatch.setattr(verification, "_columns", swap)
    with pytest.raises(VerificationFailed, match="a bucket's x_P disagree"):
        coset_enumerate(families)
    assert len(swapped) == 1


@pytest.mark.parametrize("budget", [0, -3, True, 2.5, "5", None])
def test_coset_budget_must_be_a_positive_int(budget):
    with pytest.raises(InvalidParameters):
        coset_enumerate(coxeter_presentation(1).families, budget)


def test_coset_audit_catches_a_wrong_elimination(monkeypatch):
    # g -> 1 recorded for a generator the relators set equal to a nontrivial
    # one: the reduced table is sound, but its extension to the input's
    # generators breaks an input relator, so no order may come out
    import igmax.verification as verification

    labels = _singular_index(5, 3).labels
    tietze = verification._tietze

    def wrong(n_gens, relators):
        survivors, reduced, eliminated = tietze(n_gens, relators)
        i = next(
            i
            for i, (g, word) in enumerate(eliminated)
            if len(word) == 1 and not is_identity(labels[g])
        )
        eliminated[i] = (eliminated[i][0], ())
        return survivors, reduced, eliminated

    monkeypatch.setattr(verification, "_tietze", wrong)
    with pytest.raises(VerificationFailed, match="relator does not close on a live coset"):
        coset_enumerate(relation_families(5, 3))


def inverse_letters(word):
    return tuple(x ^ 1 for x in reversed(word))


@st.composite
def small_presentations(draw):
    """1-3 generators and short relations of int letters, with duplicates
    and inverses of earlier relations mixed in, sometimes with the sides
    swapped."""
    gens = draw(st.integers(1, 3))
    letters = st.integers(0, 2 * gens - 1)
    words = st.lists(letters, max_size=5).map(tuple)
    relations = []
    for _ in range(draw(st.integers(0, 6))):
        earlier = draw(st.sampled_from(range(len(relations)))) if relations else None
        kind = draw(st.sampled_from(("new", "duplicate", "inverse", "swapped")))
        if earlier is None or kind == "new":
            relations.append((draw(words), draw(st.lists(letters, max_size=2).map(tuple))))
            continue
        lhs, rhs = relations[earlier]
        if kind == "duplicate":
            relations.append((lhs, rhs))
        elif kind == "inverse":
            # (lhs rhs^-1)^-1 = rhs lhs^-1
            relations.append((rhs + inverse_letters(lhs), ()))
        else:
            relations.append((rhs, lhs))
    return RelationFamilies(relations, ["t"] * len(relations), generator_count=gens)


@settings(max_examples=150, deadline=None)
@given(small_presentations())
def test_coset_counts_match_the_reference_on_random_presentations(families):
    expected = coset_reference.coset_enumerate(families, 2_000)
    assert unreduced_enumerate(families, 2_000) == expected
    res = coset_enumerate(families, 2_000)
    if res.closed and expected.closed:
        assert res.order == expected.order


# ---------------------------------------------------------------------------
# label homomorphism
# ---------------------------------------------------------------------------


def test_homomorphism_four_two():
    families, index = relation_families(4, 2), _singular_index(4, 2)
    assert families.relation_count == 60
    assert label_homomorphism_check(families, index) is None
    # and the labels generate the whole of S_2
    assert generated_order(set(index.labels), 2) == 2


def test_homomorphism_five_three():
    index = _singular_index(5, 3)
    assert label_homomorphism_check(relation_families(5, 3), index) is None
    assert generated_order(set(index.labels), 3) == 6


def test_homomorphism_flags_bogus_relation():
    # the first generator of identity label set equal to the first of another label
    families, index = relation_families(4, 2), _singular_index(4, 2)
    ident = next(g for g, lam in enumerate(index.labels) if is_identity(lam))
    other = next(g for g, lam in enumerate(index.labels) if not is_identity(lam))
    words = [families.letters(i) for i in range(families.relation_count)]
    tags = [families.tag(i) for i in range(families.relation_count)]
    broken = RelationFamilies(words + [((2 * ident,), (2 * other,))], tags + ["bottom"], generator_count=24)
    assert broken.relation_count == 61
    assert label_homomorphism_check(broken, index) == "f[{{1},{2,3,4}}|{1,2}] = f[{{1,2,4},{3}}|{3,4}]"


def test_generated_order_of_subgroups():
    # the tests' oracle that the labels generate S_r
    assert generated_order({(2, 1, 3)}, 3) == 2
    assert generated_order({(2, 3, 1)}, 3) == 3
    assert generated_order({(2, 1, 3), (1, 3, 2)}, 3) == 6
    assert generated_order({(2, 1, 4, 3)}, 4) == 2
    assert generated_order(set(), 4) == 1


# ---------------------------------------------------------------------------
# presentation comparison
# ---------------------------------------------------------------------------


def test_presentations_match_positive():
    assert presentations_match(coxeter_presentation(3), coxeter_presentation(3))


def test_presentations_match_ignores_relation_order():
    pres = coxeter_presentation(3)
    families = pres.families
    flipped = RelationFamilies(families.words[::-1], families.tags[::-1], generator_count=2)
    assert presentations_match(pres, GroupPresentation(pres.generators, flipped, {}))


def test_presentations_match_negative():
    assert not presentations_match(coxeter_presentation(2), coxeter_presentation(3))
    pres = coxeter_presentation(3)
    families = pres.families
    # g1^3 = 1
    bigger = RelationFamilies(families.words + [((0, 0, 0), ())], families.tags + ["derived"], generator_count=2)
    assert not presentations_match(pres, GroupPresentation(pres.generators, bigger, {}))


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
    assert set(doc) == {"n", "r", "pipeline", "homomorphism", "coset_order", "verdict", "replay_detail"}
    assert doc["replay_detail"]["discharged"] == doc["replay_detail"]["relations"] == 60


def test_verify_four_two_with_coset_oracle():
    report, _ = verify_theorem(4, 2, budget=1000)
    assert report.coset_order == 2
    assert report.verdict == "confirmed S_2"
    assert report.coset_result.closed
    assert report.to_json()["coset_detail"]["order"] == 2


def test_verify_exhausted_budget_stays_one_sided():
    # an inconclusive enumeration must not contradict the derivation, and
    # the verdict must not claim more than the two routes found
    report, _ = verify_theorem(5, 3, budget=5)
    assert report.coset_order is None
    assert not report.coset_result.closed
    assert report.pipeline and report.homomorphism
    assert report.verdict == "inconclusive"


def test_verify_boundary_case():
    # at r = n-1 the group is free of rank (n-1)(n-2)/2, the rank of the
    # kernel-image graph, the subdivision of K_n
    for n in range(2, 13):
        report, log = verify_theorem(n, n - 1)
        assert log is None
        assert not report.pipeline
        assert report.homomorphism
        assert report.coset_order is None
        assert report.verdict == f"confirmed free of rank {(n - 1) * (n - 2) // 2}"
        assert report.to_json() == {
            "n": n, "r": n - 1, "pipeline": False, "homomorphism": True, "coset_order": None,
            "verdict": report.verdict,
        }


def boundary_families_with(words=(), drop=None, bottom=None):
    """The (4, 3) relation families with ``words`` added, relation ``drop``
    left out, or one bottom relation, four letters, added."""
    families = relation_families(4, 3)
    keep = [i for i in range(len(families.words)) if i != drop]
    return RelationFamilies(
        [families.words[i] for i in keep] + list(words),
        [families.tags[i] for i in keep] + ["derived"] * len(words),
        bottom=0 if bottom is None else 1,
        read_bottom=lambda: array("i", bottom),
        generator_count=families.generator_count,
    )


def tampered_boundary_verdict(capsys) -> str:
    """The (4, 3) verdict, which ``verify`` must print and exit 4 on."""
    from igmax.cli import main

    report, _ = verify_theorem(4, 3)
    assert main(["verify", "--n", "4", "--r", "3", "--allow-boundary"]) == 4
    assert capsys.readouterr().out.endswith(f"verdict: {report.verdict}\n")
    return report.verdict


def test_boundary_tietze_leaves_survivors_and_no_relator(monkeypatch, capsys):
    families = relation_families(4, 3)
    assert families.bottom == 0
    survivors, left, _ = _tietze(families.generator_count, _reduced(families.words))
    assert len(survivors) == 3 and left == []
    # g g = 1 on a surviving generator is neither g = h nor g = 1, and no
    # Tietze move removes it
    g = survivors[0]
    tampered = boundary_families_with(words=[((2 * g, 2 * g), ())])
    assert _tietze(tampered.generator_count, _reduced(tampered.words))[1] != []
    monkeypatch.setattr(verification, "relation_families", lambda n, r: tampered)
    assert tampered_boundary_verdict(capsys) == "not confirmed: Tietze moves leave a relator"


def test_boundary_verdict_fails_without_a_top_relation(monkeypatch, capsys):
    # one generator fewer is joined to another, so one more survives
    top = relation_families(4, 3).tags.index("top")
    tampered = boundary_families_with(drop=top)
    monkeypatch.setattr(verification, "relation_families", lambda n, r: tampered)
    verdict = tampered_boundary_verdict(capsys)
    assert verdict == "not confirmed: 4 generators survive, the kernel-image graph has rank 3"
    assert verify_theorem(4, 3)[0].homomorphism  # the relations left still hold on the labels


def test_boundary_verdict_fails_with_a_bottom_relation(monkeypatch, capsys):
    tampered = boundary_families_with(bottom=[1, 2, 3, 4])
    monkeypatch.setattr(verification, "relation_families", lambda n, r: tampered)
    assert tampered_boundary_verdict(capsys) == "not confirmed: the bottom family is not empty"


def test_boundary_verdict_fails_when_a_relation_fails_on_the_labels(monkeypatch, capsys):
    # the first top relation g = h, with g given another label: the group
    # and the graph are unchanged, but the relation no longer holds on the labels
    real = _singular_index(4, 3)
    (g,), (h,) = relation_families(4, 3).words[relation_families(4, 3).tags.index("top")]
    labels = list(real.labels)
    labels[g // 2] = next(lam for lam in real.labels if lam != labels[h // 2])
    tampered = _SingularIndex(4, 3, real.parts, real.subsets, real.transversal_ids, labels, real.buckets)
    monkeypatch.setattr(verification, "_singular_index", lambda n, r: tampered)
    failure = label_homomorphism_check(relation_families(4, 3), tampered)
    assert tampered_boundary_verdict(capsys) == f"not confirmed: {failure} fails on the labels"
    assert not verify_theorem(4, 3)[0].homomorphism


def test_verify_refuses_a_budget_at_the_boundary(monkeypatch):
    def unbuilt(n, r):
        raise AssertionError("built relations for a budget that was never valid")

    monkeypatch.setattr(verification, "relation_families", unbuilt)
    with pytest.raises(InvalidParameters, match="the coset oracle needs r <= n-2"):
        verify_theorem(4, 3, budget=1000)


def test_verify_rejects_a_coset_budget_below_one():
    with pytest.raises(InvalidParameters):
        verify_theorem(4, 2, budget=0)


@pytest.mark.parametrize("budget", [0, -5, True, 2.5])
def test_verify_rejects_a_bad_budget_before_it_builds(monkeypatch, budget):
    def unbuilt(n, r):
        raise AssertionError("built relations for a budget that was never valid")

    monkeypatch.setattr(verification, "relation_families", unbuilt)
    monkeypatch.setattr(verification.pipeline, "run_pipeline", unbuilt)
    with pytest.raises(InvalidParameters, match="the coset budget must be an int of at least 1"):
        verify_theorem(7, 4, budget=budget)


def test_verify_rejects_bad_rank():
    with pytest.raises(InvalidParameters):
        verify_theorem(4, 4)
    with pytest.raises(InvalidParameters):
        verify_theorem(4, 0)


def test_verify_builds_no_presentation(monkeypatch, capsys):
    # the replay, the coset oracle and the boundary's checks all read the
    # relation families off the index, so no presentation is built, with
    # the oracle or without, and at the boundary r = n-1 too
    import igmax.pipeline
    import igmax.presentation
    from igmax.cli import main

    builds = []

    def counting_build(n, r):
        builds.append((n, r))
        return build_presentation(n, r)

    for module in (igmax.pipeline, igmax.presentation, verification):
        monkeypatch.setattr(module, "build_presentation", counting_build)
    for budget in (None, 1000):
        report, _ = verify_theorem(5, 3, budget=budget)
        assert report.verdict == "confirmed S_3"
    assert main(["verify", "--n", "4", "--r", "3", "--allow-boundary"]) == 0
    assert builds == []
    # the stand-in counts: present builds one
    assert main(["present", "--n", "4", "--r", "3"]) == 0
    capsys.readouterr()
    assert builds == [(4, 3)]


def test_verify_rests_on_one_replay(monkeypatch):
    import igmax.replay
    import igmax.verification

    replays = []
    replay = igmax.replay.replay_log

    def counting_replay(log):
        replays.append((log.n, log.r))
        return replay(log)

    def no_homomorphism_check(families, index):
        pytest.fail("verify ran the label homomorphism check below the boundary")

    monkeypatch.setattr(igmax.replay, "replay_log", counting_replay)
    monkeypatch.setattr(igmax.verification, "label_homomorphism_check", no_homomorphism_check)
    report, _ = verify_theorem(5, 3)
    assert report.verdict == "confirmed S_3"
    assert replays == [(5, 3)]
    assert report.replay_report.ok


def test_verify_replays_the_log_it_produced(monkeypatch):
    # one unsound step: the first bottom step cites a proper square that is not singular
    import igmax.pipeline
    from igmax.replay import DerivationLog, DerivationStep
    from igmax.squares import _singular_index, enumerate_squares, is_singular_sq3

    bogus = next(sq for sq in enumerate_squares(4, 2) if not is_degenerate(sq) and not is_singular_sq3(sq))
    run = igmax.pipeline.run_pipeline

    def unsound(n, r):
        final, log = run(n, r)
        i = next(i for i, st in enumerate(log.steps) if st.rule == "bottom")
        # a step holds its witness square as the ids of its kernels and images
        square = ids(_singular_index(n, r), *bogus.kernels, *bogus.images)
        steps = list(log.steps)
        st = steps[i]
        steps[i] = DerivationStep(st.rule, st.conclusion, st.premises, square, st.data)
        return final, DerivationLog(log.n, log.r, steps, log.final, log.meta)

    monkeypatch.setattr(igmax.pipeline, "run_pipeline", unsound)
    report, _ = verify_theorem(4, 2, budget=1000)
    assert not report.pipeline
    assert report.coset_order == 2
    assert report.verdict.startswith("not confirmed: pipeline")
    assert "witness square is not singular" in dict(report.replay_report.failures).values()
