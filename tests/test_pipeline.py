"""The reduction pipeline: constructions, derivations, logs, replay."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import igmax
import igmax.pipeline as pipeline_module

from igmax.combinatorics import Partition, Subset, enumerate_transversal_pairs
from igmax.errors import InvalidParameters, VerificationFailed
from igmax.labels import label_by_subscripts
from igmax.perms import Permutation, contiguous_cycle, descent_number
from igmax.pipeline import (
    Derivation,
    DerivationLog,
    _braid_mirror_square,
    _corners,
    _Letters,
    _three_quarter_relation,
    canonical_cycle_pair,
    coxeter_square_braid,
    coxeter_square_commute,
    coxeter_square_involution,
    cycle_split,
    descent_reduction,
    replay_log,
    run_pipeline,
)
from igmax.presentation import GroupPresentation, Relation, build_presentation
from igmax.squares import Square, _singular_index, is_singular_sq2, is_singular_sq3
from igmax.verification import presentations_match
from igmax.presentation import GeneratorId, coxeter_presentation, substitute
from igmax.perms import ProductTable, letter_images, rightmost_descent
from perms_reference import resolve_rightmost_descent


def clean(report):
    """Steps replayed without a single failure (full-run flags aside)."""
    return report.failures == ()


# ---------------------------------------------------------------------------
# pure constructions
# ---------------------------------------------------------------------------


def test_canonical_cycle_pair_golden():
    p, a = canonical_cycle_pair(2, 1, 5, 3)
    assert (str(p), str(a)) == ("{{1,5},{2,4},{3}}", "{1,3,4}")
    assert label_by_subscripts(p, a) == contiguous_cycle(2, 1, 3)


def test_canonical_cycle_pair_all_params():
    for n, r in [(5, 3), (6, 4), (7, 5)]:
        for k in range(1, r):
            for l in range(1, r - k + 1):
                p, a = canonical_cycle_pair(k, l, n, r)
                assert label_by_subscripts(p, a) == contiguous_cycle(k, l, r)


def test_canonical_cycle_pair_rejects():
    with pytest.raises(InvalidParameters):
        canonical_cycle_pair(1, 1, 4, 3)  # r > n - 2
    with pytest.raises(InvalidParameters):
        canonical_cycle_pair(3, 1, 6, 3)  # k + l > r


def named(index, word):
    """A word of generator ids as text, each generator named through ``index``."""
    return " * ".join(index.name(g) + ("^-1" if e < 0 else "") for g, e in word)


def test_cycle_split_structure():
    for (k, l, n, r) in [(1, 2, 5, 3), (1, 2, 6, 4), (2, 2, 6, 4), (1, 3, 6, 4)]:
        p, q, a, b = cycle_split(k, l, n, r)
        sq = Square((p, q), (a, b))
        assert is_singular_sq3(sq)
        # solved for the (Q,B) corner: lhs is that single generator
        index = _singular_index(n, r)
        rel = _three_quarter_relation(_corners(index, index.square(p, q, a, b)), "PA", _Letters())
        assert len(rel.lhs) == 1
        g = rel.lhs[0][0]
        assert index.pairs[g] == (index.kernel_ids[q.blocks], index.image_ids[b.elements])
        assert index.labels[g] == contiguous_cycle(k, l, r)
        # two factors: transposition at k, then the shorter cycle
        (g1, _), (g2, _) = rel.rhs
        assert index.labels[g1] == contiguous_cycle(k, 1, r)
        assert index.labels[g2] == contiguous_cycle(k + 1, l - 1, r)


def test_cycle_split_rejects_short_cycle():
    with pytest.raises(InvalidParameters):
        cycle_split(1, 1, 5, 3)


def test_descent_reduction_golden():
    P = Partition.parse("{{1,7},{2,5},{3,6},{4}}")
    A = Subset.parse("{4,5,6,7}", 7)
    assert label_by_subscripts(P, A).image_form() == "[4,2,3,1]"
    Q, B = descent_reduction(P, A, label_by_subscripts(P, A))
    Square((P, Q), (A, B))  # the corners make a square
    assert str(Q) == "{{1,3,7},{2,5},{4},{6}}"
    assert str(B) == "{1,2,4,6}"
    assert label_by_subscripts(P, B).cycle_form() == "(3 4)"
    assert label_by_subscripts(Q, A).image_form() == "[4,2,1,3]"
    assert label_by_subscripts(Q, B).is_identity()
    index = _singular_index(7, 4)
    rel = _three_quarter_relation(_corners(index, index.square(P, Q, A, B)), "QB", _Letters())
    assert named(index, rel.lhs) == "f[{{1,7},{2,5},{3,6},{4}}|{4,5,6,7}]"
    assert named(index, rel.rhs) == (
        "f[{{1,7},{2,5},{3,6},{4}}|{1,2,4,6}] * f[{{1,3,7},{2,5},{4},{6}}|{4,5,6,7}]"
    )


def test_descent_reduction_strictly_decreases():
    # every label of descent >= 2 at (6,3) and (7,4) reduces across a
    # singular square whose corners carry the label, the contiguous cycle at
    # its rightmost descent, the label with that descent resolved, and the
    # identity
    for p, a in [*enumerate_transversal_pairs(6, 3), *enumerate_transversal_pairs(7, 4)]:
        lam = label_by_subscripts(p, a)
        if descent_number(lam) < 2:
            continue
        r = len(p)
        q, b = descent_reduction(p, a, lam)
        sq = Square((p, q), (a, b))
        lpa, lpb, lqa, lqb = sq.corner_labels
        loc = rightmost_descent(lam)
        assert lpa == lam
        assert lpb == contiguous_cycle(loc.v, loc.w, r)
        assert lqa == resolve_rightmost_descent(lam)
        assert lqb.is_identity()
        assert descent_number(lqa) == descent_number(lam) - 1
        assert is_singular_sq3(sq) and is_singular_sq2(sq)


def test_descent_reduction_rejects_low_descent():
    P = Partition.parse("{{1},{2},{3,4,5}}")
    with pytest.raises(InvalidParameters):
        descent_reduction(P, P.min_transversal(), label_by_subscripts(P, P.min_transversal()))


def test_coxeter_square_constructions():
    p, q, a, b = coxeter_square_involution(2, 7, 4)
    sq = Square((p, q), (a, b))
    assert is_singular_sq3(sq)
    assert [l.cycle_form() for l in sq.corner_labels] == ["(2 3)", "()", "()", "(2 3)"]

    (p, q, a, b), (q2, rr, b2, c) = coxeter_square_commute(1, 3, 7, 4)
    sq1, sq2 = Square((p, q), (a, b)), Square((q2, rr), (b2, c))
    assert is_singular_sq3(sq1) and is_singular_sq3(sq2)
    # the shared corner pair carries the product label
    assert sq1.corner_labels[3].cycle_form() == "(1 2)(3 4)"
    assert (sq1.kernels[1], sq1.images[1]) == (sq2.kernels[0], sq2.images[0])

    p, q, a, b = coxeter_square_braid(2, 7, 4)
    sq = Square((p, q), (a, b))
    assert is_singular_sq3(sq)
    assert [l.cycle_form() for l in sq.corner_labels] == ["()", "(2 4 3)", "(3 4)", "(2 4)"]


SWEEP = [(n, r) for n in range(4, 8) for r in range(1, n - 1)]


@pytest.mark.parametrize("n,r", SWEEP, ids=[f"{n}-{r}" for n, r in SWEEP])
def test_every_construction_gives_the_square_the_derivation_relies_on(n, r):
    # the constructions check none of their squares; for every k (and l)
    # each one's corners make a proper singular square whose corner labels
    # (PA, PB, QA, QB) are the ones the derivation solves it with
    e, t = Permutation.identity(r), lambda k: contiguous_cycle(k, 1, r)
    made = []  # (construction, corners, corner labels or None, PA^-1 PB or None)
    for k in range(1, r):
        for l in range(2, r - k + 1):
            labels = (e, contiguous_cycle(k + 1, l - 1, r), t(k), contiguous_cycle(k, l, r))
            made.append((f"cycle_split({k}, {l})", cycle_split(k, l, n, r), labels, None))
        made.append((f"involution({k})", coxeter_square_involution(k, n, r), (t(k), e, e, t(k)), None))
        if k <= r - 2:
            made.append((f"braid({k})", coxeter_square_braid(k, n, r), None, None))
            made.append((f"mirror({k})", _braid_mirror_square(k, n, r), None, t(k)))
        for l in range(k + 2, r):
            for i, corners in enumerate(coxeter_square_commute(k, l, n, r)):
                made.append((f"commute({k}, {l}) square {i + 1}", corners, None, None))
    for what, (p, q, a, b), labels, quotient in made:
        sq = Square((p, q), (a, b))
        assert not sq.is_degenerate() and is_singular_sq2(sq) and is_singular_sq3(sq), what
        if labels is not None:
            assert sq.corner_labels == labels, what
        if quotient is not None:
            assert sq.corner_labels[0].inverse() * sq.corner_labels[1] == quotient, what


# ---------------------------------------------------------------------------
# single-fact derivations, each replayed
# ---------------------------------------------------------------------------


def test_derive_identity_one_chain():
    # the chain kernel {1},...,{r-1},[r,n] walks its free element down to r
    P = Partition.parse("{{1},{2},{3,4,5,6}}")
    for a in (4, 5, 6):
        eng = Derivation(6, 3)
        eng.one(P, Subset.of(6, (1, 2, a)))
        assert clean(replay_log(eng.log))


def test_derive_identity_convex():
    P = Partition.parse("{{1,2},{3,4},{5,6}}")
    for A in P.transversals():
        eng = Derivation(6, 3)
        eng.one(P, A)
        assert clean(replay_log(eng.log))


def test_derive_identity_general_all_identity_pairs():
    count = 0
    for p, a in enumerate_transversal_pairs(5, 3):
        if not label_by_subscripts(p, a).is_identity():
            continue
        count += 1
        eng = Derivation(5, 3)
        eng.one(p, a)
        assert clean(replay_log(eng.log))
    assert count == 54


def test_derive_same_row():
    # non-identity label: the equality crosses a flush-row square
    P = Partition.parse("{{1,2,3},{4,6},{5}}")
    A = Subset.parse("{1,5,6}", 6)
    B = Subset.parse("{2,5,6}", 6)
    assert label_by_subscripts(P, A).cycle_form() == "(2 3)"
    assert label_by_subscripts(P, A) == label_by_subscripts(P, B)
    eng = Derivation(6, 3)
    eng.same_row(P, A, B)
    assert clean(replay_log(eng.log))


def test_derive_same_column():
    # kernels with different minima chains force the recursive column walk
    P = Partition.parse("{{1,2,3,5},{4},{6}}")
    Q = Partition.parse("{{1,2,5},{3,4},{6}}")
    A = Subset.parse("{4,5,6}", 6)
    assert P.minima != Q.minima
    assert label_by_subscripts(P, A).cycle_form() == "(1 2)"
    assert label_by_subscripts(P, A) == label_by_subscripts(Q, A)
    eng = Derivation(6, 3)
    eng.same_column(P, Q, A)
    assert clean(replay_log(eng.log))


def test_derive_cycle_equal_every_cycle_class():
    # every generator whose label is a contiguous cycle connects to its
    # class representative through logged singular squares
    eng = Derivation(6, 3)
    checked = 0
    for p, a in enumerate_transversal_pairs(6, 3):
        lam = label_by_subscripts(p, a)
        if descent_number(lam) != 1:
            continue
        eng.cycle_eq(p, a)
        checked += 1
    assert checked == 242
    assert clean(replay_log(eng.log))


def test_derive_cycle_equal_rejects_other_labels():
    P = Partition.parse("{{1,2},{3,5},{4,6}}")
    A = Subset.parse("{2,3,4}", 6)
    assert label_by_subscripts(P, A).is_identity()
    with pytest.raises(InvalidParameters):
        Derivation(6, 3).cycle_eq(P, A)


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


def test_run_pipeline_four_two():
    final, log = run_pipeline(4, 2)
    assert len(final.generators) == 1
    assert len(final.relations) == 1
    assert presentations_match(final, coxeter_presentation(2))
    assert log.meta == {"steps": 107, "generators": 24, "relations": 60, "survivors": 1}

    report = replay_log(log)
    assert report.ok
    assert report.steps_checked == 107
    assert report.discharged == report.relations == 60
    assert report.final_matches


def test_run_pipeline_trivial_group():
    final, log = run_pipeline(3, 1)
    assert len(final.generators) == 0
    assert len(final.relations) == 0
    assert len(log) == 9
    assert replay_log(log).ok


def test_run_pipeline_five_three():
    final, log = run_pipeline(5, 3)
    assert presentations_match(final, coxeter_presentation(3))
    assert log.meta == {"steps": 597, "generators": 90, "relations": 394, "survivors": 2}
    assert replay_log(log).ok


def test_finish_needs_every_coxeter_relation():
    eng = Derivation(5, 3)
    eng.derive_involution(1)
    eng.derive_involution(2)
    eng.derive_braid(1)
    eng._final_steps.pop()
    with pytest.raises(VerificationFailed, match="Coxeter"):
        eng.finish()


def test_assert_survivors_needs_the_canonical_pairs():
    with pytest.raises(VerificationFailed, match="survivors"):
        Derivation(4, 2).assert_survivors()


def _resolved(n, r):
    eng = Derivation(n, r)
    for g in build_presentation(n, r).generators:
        eng.resolve(g.partition, g.subset)
    return eng


@pytest.mark.parametrize("n,r", [(n, r) for n in range(3, 7) for r in range(1, n - 1)])
def test_discharge_factors_through_the_labels(n, r):
    # reference: rewrite each relation through the resolution map and
    # evaluate it over the canonical generators; its labels must agree
    eng = _resolved(n, r)
    pres = build_presentation(n, r)
    gens = pres.generators
    # the derivation names generators by id: generator i is gens[i]
    words = {g: tuple((gens[h], e) for h, e in eng.resolve(g.partition, g.subset)[1]) for g in gens}
    canon = [GeneratorId.of(*p) for p in eng.canonical_pairs()]
    table = ProductTable(r)
    canonical = {x: table.intern(p) for x, p in letter_images({g: g.label for g in canon}).items()}
    labels = {x: table.intern(p) for x, p in letter_images({g: g.label for g in gens}).items()}

    def rewrite(word):
        for g in {h for h, _ in word}:
            word = substitute(word, g, words[g])
        return word

    for rel in pres.relations:
        lhs = table.evaluate(rewrite(rel.lhs), canonical)
        rhs = table.evaluate(rewrite(rel.rhs), canonical)
        assert lhs == rhs == table.evaluate(rel.lhs, labels) == table.evaluate(rel.rhs, labels)
    eng.discharge_all()
    pzs = [st.data["pz"] for st in eng.log.steps if st.rule == "discharge"]
    assert pzs == list(range(len(pres.relations)))


def test_discharge_rejects_a_resolution_word_off_its_label():
    eng = _resolved(5, 3)
    g, (idx, word) = next((g, res) for g, res in eng._res_memo.items() if res[0] is not None)
    canonical = eng.canonical_generators()[0]
    eng._res_memo[g] = (idx, word + ((canonical, 1),))
    with pytest.raises(VerificationFailed, match="does not evaluate to its label"):
        eng.discharge_all()


def test_discharge_needs_every_resolution():
    eng = _resolved(5, 3)
    del eng._res_memo[next(iter(eng._res_memo))]
    with pytest.raises(VerificationFailed, match="no resolution for"):
        eng.discharge_all()


# ---------------------------------------------------------------------------
# log serialization and tamper detection
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def log_four_two():
    _, log = run_pipeline(4, 2)
    return log


def test_log_json_roundtrip(log_four_two):
    doc = json.loads(json.dumps(log_four_two.to_json()))
    back = DerivationLog.from_json(doc)
    assert back.n == 4 and back.r == 2
    assert len(back) == len(log_four_two)
    assert replay_log(back).ok


def test_log_rejects_other_documents():
    with pytest.raises(InvalidParameters):
        DerivationLog.from_json({"format": "something-else"})


def test_replay_catches_tampered_conclusion(log_four_two):
    doc = copy.deepcopy(log_four_two.to_json())
    # flip the sign on the first bottom step's conclusion
    for sd in doc["steps"]:
        if sd["rule"] == "bottom":
            sd["conclusion"]["lhs"][0][2] *= -1
            break
    report = replay_log(DerivationLog.from_json(doc))
    assert not report.ok
    assert any("bottom" in msg or "conclusion" in msg for _, msg in report.failures)


def test_replay_catches_forward_premise(log_four_two):
    doc = copy.deepcopy(log_four_two.to_json())
    for sd in doc["steps"]:
        if sd["rule"] == "corner":
            sd["premises"][0] = len(doc["steps"]) - 1  # not yet derived
            break
    report = replay_log(DerivationLog.from_json(doc))
    assert not report.ok
    assert report.failures


def test_replay_catches_swapped_square(log_four_two):
    from igmax.squares import enumerate_squares, is_singular_sq3

    bogus = next(
        sq
        for sq in enumerate_squares(4, 2)
        if not sq.is_degenerate() and not is_singular_sq3(sq)
    )
    doc = copy.deepcopy(log_four_two.to_json())
    for sd in doc["steps"]:
        if sd["rule"] == "bottom":
            p, q = bogus.kernels
            a, b = bogus.images
            sd["square"] = [str(p), str(q), str(a), str(b)]
            break
    report = replay_log(DerivationLog.from_json(doc))
    assert not report.ok
    assert any("singular" in msg for _, msg in report.failures)


def test_replay_catches_missing_discharge(log_four_two):
    # redirecting one discharge at an already-covered relation leaves a gap:
    # no step fails, but the relation count comes up short
    doc = copy.deepcopy(log_four_two.to_json())
    first = next(sd for sd in doc["steps"] if sd["rule"] == "discharge")
    first["pz"] = 59 if first["pz"] != 59 else 0
    report = replay_log(DerivationLog.from_json(doc))
    assert report.failures == ()
    assert report.discharged == report.relations - 1
    assert not report.ok


def test_replay_discharge_index_out_of_range(log_four_two):
    doc = copy.deepcopy(log_four_two.to_json())
    idx, first = next((i, sd) for i, sd in enumerate(doc["steps"]) if sd["rule"] == "discharge")
    first["pz"] = 10**6
    report = replay_log(DerivationLog.from_json(doc))
    assert report.failures == ((idx, f"relation index {10**6} out of range"),)
    assert not report.ok


@pytest.mark.parametrize("pz", [True, False, 1.0, "1", None])
def test_replay_discharge_index_must_be_an_int(log_four_two, pz):
    # True == 1 and False == 0 as Python ints: a bool must not discharge them
    doc = copy.deepcopy(log_four_two.to_json())
    idx, first = next((i, sd) for i, sd in enumerate(doc["steps"]) if sd["rule"] == "discharge")
    first["pz"] = pz
    report = replay_log(DerivationLog.from_json(json.loads(json.dumps(doc))))
    assert report.failures == ((idx, f"relation index {pz} out of range"),)
    assert report.discharged == report.relations - 1
    assert not report.ok


def test_log_parser_shares_one_square_per_witness_text():
    _, log = run_pipeline(6, 3)
    back = DerivationLog.from_json(json.loads(json.dumps(log.to_json())))
    cited = [st.square for st in back.steps if st.square is not None]
    assert len({id(sq) for sq in cited}) == len(set(cited))


def _with_copies(doc, copied):
    """``doc`` with a copy of each step whose index is in ``copied`` right
    after it, and every premise renumbered to match."""
    renumber, steps = [], []
    for i, sd in enumerate(doc["steps"]):
        renumber.append(len(steps))
        steps += [sd, copy.deepcopy(sd)] if i in copied else [sd]
    for sd in steps:
        if "premises" in sd:
            sd["premises"] = [renumber[i] for i in sd["premises"]]
    return {**doc, "steps": steps}


def test_replay_checks_each_distinct_square_once(monkeypatch):
    # the producer cites each of the 454 distinct squares of (6,3) in one
    # bottom step; the format admits more, so every bottom step is repeated
    _, log = run_pipeline(6, 3)
    doc = log.to_json()
    bottoms = [i for i, sd in enumerate(doc["steps"]) if sd["rule"] == "bottom"]
    assert len(bottoms) == len({tuple(doc["steps"][i]["square"]) for i in bottoms}) == 454
    back = DerivationLog.from_json(json.loads(json.dumps(_with_copies(doc, set(bottoms)))))
    cited = [st.square for st in back.steps if st.rule == "bottom"]
    assert (len(cited), len(set(cited))) == (908, 454)
    calls = []
    real = pipeline_module.is_singular_ids

    def counted(index, *sq):
        calls.append(sq)
        return real(index, *sq)

    monkeypatch.setattr(pipeline_module, "is_singular_ids", counted)
    assert replay_log(back).ok
    assert len(calls) == 454


def test_replay_reports_every_step_citing_a_bad_square():
    from igmax.squares import enumerate_squares

    _, log = run_pipeline(6, 3)
    first = next(i for i, st in enumerate(log.steps) if st.rule == "bottom")
    doc = _with_copies(log.to_json(), {first})
    steps = [first, first + 1]  # one square, cited by two bottom steps
    bogus = next(sq for sq in enumerate_squares(6, 3) if not sq.is_degenerate() and not is_singular_sq3(sq))
    for i in steps:
        doc["steps"][i]["square"] = [str(x) for x in bogus.kernels + bogus.images]
    report = replay_log(DerivationLog.from_json(json.loads(json.dumps(doc))))
    for i in steps:
        assert (i, "witness square is not singular") in report.failures
    assert not report.ok


@pytest.mark.parametrize("n,r", [(n, r) for n in range(4, 7) for r in range(1, n - 1)] + [(7, 4)])
def test_the_producer_concludes_each_fact_once(n, r):
    _, log = run_pipeline(n, r)
    steps = [st for part in log.steps.parts if type(part) is list for st in part]
    bottoms = [st.square for st in steps if st.rule == "bottom"]
    cited = {st.square for st in steps if st.square is not None}
    assert sorted(bottoms) == sorted(cited)  # one bottom step per witness square
    facts = [st.conclusion for st in steps if st.rule != "bottom" and st.conclusion is not None]
    assert len(facts) == len(set(facts))
    for st in steps:
        if st.rule == "transitive" and len(st.premises) == 1:
            assert log.steps[st.premises[0]].conclusion != st.conclusion
    if (n, r) == (7, 4):
        assert (len(bottoms), len(steps)) == (1974, 6592)


def test_the_log_format_admits_repeated_facts():
    # a log may conclude a fact twice: the producer does not, the replayer
    # takes it, and the format (version 1) is the same either way
    _, log = run_pipeline(5, 3)
    doc = log.to_json()
    rules = [sd["rule"] for sd in doc["steps"]]
    copied = {rules.index("bottom"), rules.index("flush-row")}
    doc = _with_copies(doc, copied)
    assert doc["version"] == 1 and len(doc["steps"]) == len(log) + 2
    report = replay_log(DerivationLog.from_json(json.loads(json.dumps(doc))))
    assert report.ok and report.discharged == report.relations
    assert report.steps_checked == len(log) + 2


def _step_by_step(log):
    """``log`` with its steps as a plain list, which replay_log reads one
    step at a time."""
    out = DerivationLog(log.n, log.r, final=log.final, meta=log.meta)
    out.steps = list(log.steps)
    return out


@pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "middle", "last"])
def test_a_discharge_run_with_a_failing_relation_names_its_step(monkeypatch, where):
    _, log = run_pipeline(5, 3)
    pz = (log.meta["relations"] - 1) * where // 2
    idx = next(i for i, st in enumerate(log.steps) if st.rule == "discharge" and st.data["pz"] == pz)
    real = GroupPresentation.label_equations

    def cleared(self, *args):
        holds = real(self, *args)
        holds[pz] = 0
        return holds

    monkeypatch.setattr(GroupPresentation, "label_equations", cleared)
    want = ((idx, f"relation {pz} does not hold under the resolution map"),)
    for replayed in (log, _step_by_step(log)):
        report = replay_log(replayed)
        assert report.failures == want
        assert report.discharged == report.relations - 1


def test_a_step_citing_a_discharge_step_of_a_run_fails_as_step_by_step():
    # a discharge step of a run that passes as one is verified, as each
    # step of a run read step by step is, but concludes nothing
    doc = run_pipeline(5, 3)[1].to_json()
    first = next(i for i, sd in enumerate(doc["steps"]) if sd["rule"] == "discharge")
    doc["steps"][-1]["premises"][0] = first
    log = DerivationLog.from_json(doc)
    report = replay_log(log)
    assert [i for i, _ in report.failures] == [len(log) - 1]
    assert replay_log(_step_by_step(log)).failures == report.failures


def test_a_discharge_run_reached_while_a_generator_is_unresolved_names_each_step():
    # a middle step that no longer checks leaves its generator unresolved,
    # so the run is read step by step and each relation over it fails
    doc = run_pipeline(5, 3)[1].to_json()
    middle = next(sd for sd in doc["steps"] if sd["rule"] == "middle")
    middle["rule"] = "top"
    log = DerivationLog.from_json(doc)
    report = replay_log(log)
    unresolved = [(i, msg) for i, msg in report.failures if msg.startswith("no resolution for ")]
    assert unresolved and report.discharged == report.relations - len(unresolved)
    assert all(log.steps[i].rule == "discharge" for i, _ in unresolved)
    assert replay_log(_step_by_step(log)).failures == report.failures


def test_replay_discharge_needs_a_verified_resolution(log_four_two):
    # a middle step that no longer checks resolves nothing, so every
    # relation over its generator has no resolution to discharge through
    doc = copy.deepcopy(log_four_two.to_json())
    middle = next(sd for sd in doc["steps"] if sd["rule"] == "middle")
    middle["rule"] = "top"
    report = replay_log(DerivationLog.from_json(doc))
    assert not report.ok
    assert any(msg.startswith("no resolution for ") for _, msg in report.failures)


def test_replay_checks_each_discharged_relation_on_its_labels():
    # a presentation whose bottom relation has a right side of other labels:
    # every generator is resolved, so only the label equation can fail
    _, log = run_pipeline(5, 3)
    pres = build_presentation(5, 3)
    pz, rel = next((i, rel) for i, rel in enumerate(pres.relations) if rel.tag == "bottom")
    extra = next(g for g in pres.generators if not g.label.is_identity())
    relations = list(pres.relations)
    relations[pz] = Relation(rel.lhs, rel.rhs + ((extra, 1),), rel.tag)
    changed = GroupPresentation(pres.generators, tuple(relations), pres.meta)
    idx = next(i for i, st in enumerate(log.steps) if st.rule == "discharge" and st.data["pz"] == pz)
    report = replay_log(log, changed)
    assert report.failures == ((idx, f"relation {pz} does not hold under the resolution map"),)
    assert report.discharged == report.relations - 1
    assert not report.ok


def test_producer_checks_each_distinct_square_once(monkeypatch):
    calls = []
    real = pipeline_module.is_singular_ids

    def counted(index, *sq):
        calls.append(sq)
        return real(index, *sq)

    monkeypatch.setattr(pipeline_module, "is_singular_ids", counted)
    _, log = run_pipeline(6, 3)
    bottoms = {st.square for st in log.steps if st.rule == "bottom"}
    assert set(calls) == bottoms
    assert len(calls) == len(bottoms)


def test_reduce_and_replay_label_each_pair_once(monkeypatch, tmp_path, capsys):
    # the index labels each (kernel, image) pair once and everything else,
    # the square constructions included, reads its labels
    import igmax.presentation as presentation_module
    import igmax.squares as squares_module
    from igmax.cli import main

    calls = []

    def counted(p, a):
        calls.append((p, a))
        return label_by_subscripts(p, a)

    for module in (squares_module, presentation_module):
        monkeypatch.setattr(module, "label_by_subscripts", counted)
    path = str(tmp_path / "log.json")
    squares_module._singular_index.cache_clear()
    assert main(["reduce", "--n", "6", "--r", "3", "--log", path]) == 0
    generators = len(build_presentation(6, 3).generators)
    reduce_calls = len(calls)
    calls.clear()
    squares_module._singular_index.cache_clear()
    assert main(["replay", "--log", path]) == 0
    capsys.readouterr()
    assert reduce_calls == generators
    assert len(calls) == generators


def test_require_singular_survives_optimize_flag():
    # a proper square that is not singular, checked with asserts stripped
    script = (
        "from igmax.combinatorics import Partition, Subset\n"
        "from igmax.errors import VerificationFailed\n"
        "from igmax.pipeline import _require_singular\n"
        "from igmax.squares import _singular_index\n"
        "assert False, 'asserts must be off'\n"
        "index = _singular_index(7, 4)\n"
        "sq = index.square(Partition.parse('{{1},{2,4},{3,6},{5,7}}'), Partition.parse('{{1},{2,6,7},{3,5},{4}}'),\n"
        "                  Subset.parse('{1,3,4,7}', 7), Subset.parse('{1,4,5,6}', 7))\n"
        "try:\n"
        "    _require_singular(index, sq)\n"
        "except VerificationFailed as exc:\n"
        "    print('raised:', exc)\n"
    )
    src = str(Path(igmax.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised: square fails the singularity tests")


# Swaps the first two canonical pairs for the replay, and in the log's
# coxeter-match step.  At r = 3 the Coxeter relations are symmetric under the
# swap, so only the check of the canonical labels can catch it.
SWAPPED_CANONICAL = """
import igmax.pipeline as pipeline
_, log = pipeline.run_pipeline(5, 3)
real = pipeline.canonical_cycle_pair
pipeline.canonical_cycle_pair = lambda k, l, n, r: real(3 - k if l == 1 else k, l, n, r)
match = log.steps[-1]
match.data["canonical"].reverse()
report = pipeline.replay_log(log)
for idx, msg in report.failures:
    print(idx, msg)
print("ok" if report.ok else "FAIL")
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_replay_checks_the_canonical_labels(flags):
    src = str(Path(igmax.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, *flags, "-c", SWAPPED_CANONICAL], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    _, log = run_pipeline(5, 3)
    assert done.stdout == (
        f"{len(log) - 1} canonical pair 1 does not carry the adjacent transposition\n"
        "FAIL\n"
    )


def test_no_assert_statements_in_the_package():
    # python -O strips assert, so no check of the package may rest on one
    import ast

    root = Path(igmax.__file__).resolve().parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_module_of_the_package_is_reached_from_the_cli():
    # src/ holds product code only: each module must be imported, at module
    # or function level, on some path from igmax.cli; oracles that only the
    # tests run live in tests/*_reference.py
    import ast

    root = Path(igmax.__file__).resolve().parent
    modules = {".".join(path.relative_to(root).with_suffix("").parts) for path in root.rglob("*.py")}
    reached, todo = {"__init__"}, ["cli"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(ast.parse((root / (name.replace(".", "/") + ".py")).read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # from .x import y, or from . import x
                todo.extend([node.module] if node.module else [alias.name for alias in node.names])
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("igmax."):
                todo.append(node.module.removeprefix("igmax."))
            elif isinstance(node, ast.Import):
                todo.extend(a.name.removeprefix("igmax.") for a in node.names if a.name.startswith("igmax."))
    assert modules - reached == set()
