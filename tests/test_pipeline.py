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
import igmax.replay as replay_module
from igmax.combinatorics import Partition, Subset
from igmax.errors import InvalidParameters, VerificationFailed
from igmax.labels import label
from igmax.perms import compose, contiguous_cycle, cycle_form, descent_number, invert
from igmax.pipeline import (
    Derivation,
    _braid_mirror_square,
    coxeter_square_braid,
    coxeter_square_commute,
    coxeter_square_involution,
    cycle_rep,
    cycle_split,
    descent_reduction,
    run_pipeline,
)
from igmax.presentation import RelationFamilies, build_presentation, relation_families
from igmax.replay import (
    DerivationLog,
    _corners,
    _three_quarter_relation,
    replay_log,
)
from igmax.squares import Square, _singular_index, is_singular_sq2, is_singular_sq3
from igmax.verification import presentations_match, verify_theorem
from igmax.presentation import coxeter_presentation
from igmax.perms import ProductTable, rightmost_descent
from perms_reference import identity, is_identity, resolve_rightmost_descent
import pipeline_reference
from pipeline_reference import canonical_cycle_pair, ids
from squares_reference import is_degenerate
from words_reference import letter_images, substitute


def clean(report):
    """Steps replayed without a single failure (full-run flags aside)."""
    return report.failures == ()


def square_of(index, sq):
    """The square whose ids in ``index`` are ``sq``, as objects."""
    p, q, a, b = sq
    return Square((index.parts[p], index.parts[q]), (index.subsets[a], index.subsets[b]))


# ---------------------------------------------------------------------------
# pure constructions
# ---------------------------------------------------------------------------


def test_canonical_cycle_pair_golden():
    index = _singular_index(5, 3)
    p, a = cycle_rep(2, 1, 5, 3)
    assert (str(index.parts[p]), str(index.subsets[a])) == ("{{1,5},{2,4},{3}}", "{1,3,4}")
    assert index.labels[index.generator_of[p][a]] == contiguous_cycle(2, 1, 3)


def test_canonical_cycle_pair_all_params():
    for n, r in [(5, 3), (6, 4), (7, 5)]:
        index = _singular_index(n, r)
        for k in range(1, r):
            for l in range(1, r - k + 1):
                p, a = cycle_rep(k, l, n, r)
                assert label(index.parts[p], index.subsets[a]) == contiguous_cycle(k, l, r)


def test_canonical_cycle_pair_rejects():
    for k, l, n, r in [
        (1, 1, 4, 3),  # r > n - 2
        (3, 1, 6, 3),  # k + l > r
        (1, 0, 6, 3),  # l = 0
    ]:
        with pytest.raises(InvalidParameters):
            cycle_rep(k, l, n, r)


def named(index, word):
    """A word of int letters as text, each generator named through ``index``."""
    return " * ".join(index.name(x >> 1) + ("^-1" if x & 1 else "") for x in word)


def test_cycle_split_structure():
    for (k, l, n, r) in [(1, 2, 5, 3), (1, 2, 6, 4), (2, 2, 6, 4), (1, 3, 6, 4)]:
        p, q, a, b = cycle_split(k, l, n, r)
        index = _singular_index(n, r)
        assert is_singular_sq3(square_of(index, (p, q, a, b)))
        # solved for the (Q,B) corner: lhs is that single generator
        rel = _three_quarter_relation(_corners(index, (p, q, a, b)), "PA", index.letters)
        assert len(rel.lhs) == 1 and rel.lhs[0] % 2 == 0
        g = rel.lhs[0] >> 1
        assert index.pairs[g] == (q, b)
        assert index.labels[g] == contiguous_cycle(k, l, r)
        # two factors: transposition at k, then the shorter cycle
        g1, g2 = (x >> 1 for x in rel.rhs)
        assert index.labels[g1] == contiguous_cycle(k, 1, r)
        assert index.labels[g2] == contiguous_cycle(k + 1, l - 1, r)


def test_cycle_split_rejects_short_cycle():
    with pytest.raises(InvalidParameters):
        cycle_split(1, 1, 5, 3)


def test_descent_reduction_golden():
    P = Partition.parse("{{1,7},{2,5},{3,6},{4}}")
    A = Subset.parse("{4,5,6,7}", 7)
    assert label(P, A) == (4, 2, 3, 1)
    index = _singular_index(7, 4)
    p, a = ids(index, P, A)
    q, b = descent_reduction(index, p, a, label(P, A))
    Q, B = index.parts[q], index.subsets[b]
    Square((P, Q), (A, B))  # the corners make a square
    assert str(Q) == "{{1,3,7},{2,5},{4},{6}}"
    assert str(B) == "{1,2,4,6}"
    assert cycle_form(label(P, B)) == "(3 4)"
    assert label(Q, A) == (4, 2, 1, 3)
    assert is_identity(label(Q, B))
    rel = _three_quarter_relation(_corners(index, (p, q, a, b)), "QB", index.letters)
    assert named(index, rel.lhs) == "f[{{1,7},{2,5},{3,6},{4}}|{4,5,6,7}]"
    assert named(index, rel.rhs) == (
        "f[{{1,7},{2,5},{3,6},{4}}|{1,2,4,6}] * f[{{1,3,7},{2,5},{4},{6}}|{4,5,6,7}]"
    )


def test_descent_reduction_strictly_decreases():
    # every label of descent >= 2 at (6,3) and (7,4) reduces across a
    # singular square whose corners carry the label, the contiguous cycle at
    # its rightmost descent, the label with that descent resolved, and the
    # identity
    for n, r in [(6, 3), (7, 4)]:
        index = _singular_index(n, r)
        for (p, a), lam in zip(index.pairs, index.labels):
            if descent_number(lam) < 2:
                continue
            q, b = descent_reduction(index, p, a, lam)
            sq = square_of(index, (p, q, a, b))
            lpa, lpb, lqa, lqb = sq.corner_labels
            assert lpa == lam
            assert lpb == contiguous_cycle(*rightmost_descent(lam), r)
            assert lqa == resolve_rightmost_descent(lam)
            assert is_identity(lqb)
            assert descent_number(lqa) == descent_number(lam) - 1
            assert is_singular_sq3(sq) and is_singular_sq2(sq)


def test_descent_reduction_rejects_low_descent():
    P = Partition.parse("{{1},{2},{3,4,5}}")
    index = _singular_index(5, 3)
    m = Subset(P.n, P.minima)
    with pytest.raises(InvalidParameters):
        descent_reduction(index, *ids(index, P, m), label(P, m))


def test_coxeter_square_constructions():
    index = _singular_index(7, 4)
    sq = square_of(index, coxeter_square_involution(2, 7, 4))
    assert is_singular_sq3(sq)
    assert [cycle_form(l) for l in sq.corner_labels] == ["(2 3)", "()", "()", "(2 3)"]

    first, second = coxeter_square_commute(1, 3, 7, 4)
    sq1, sq2 = square_of(index, first), square_of(index, second)
    assert is_singular_sq3(sq1) and is_singular_sq3(sq2)
    # the shared corner pair carries the product label
    assert cycle_form(sq1.corner_labels[3]) == "(1 2)(3 4)"
    assert (sq1.kernels[1], sq1.images[1]) == (sq2.kernels[0], sq2.images[0])

    sq = square_of(index, coxeter_square_braid(2, 7, 4))
    assert is_singular_sq3(sq)
    assert [cycle_form(l) for l in sq.corner_labels] == ["()", "(2 4 3)", "(3 4)", "(2 4)"]


SWEEP = [(n, r) for n in range(4, 8) for r in range(1, n - 1)]


@pytest.mark.parametrize("n,r", SWEEP, ids=[f"{n}-{r}" for n, r in SWEEP])
def test_every_construction_gives_the_square_the_derivation_relies_on(n, r):
    # the constructions check none of their squares; for every k (and l)
    # each one's corners make a proper singular square whose corner labels
    # (PA, PB, QA, QB) are the ones the derivation solves it with
    e, t = identity(r), lambda k: contiguous_cycle(k, 1, r)
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
    index = _singular_index(n, r)
    for what, corners, labels, quotient in made:
        sq = square_of(index, corners)
        assert not is_degenerate(sq) and is_singular_sq2(sq) and is_singular_sq3(sq), what
        if labels is not None:
            assert sq.corner_labels == labels, what
        if quotient is not None:
            assert compose(invert(sq.corner_labels[0]), sq.corner_labels[1]) == quotient, what


@pytest.mark.parametrize("n,r", SWEEP, ids=[f"{n}-{r}" for n, r in SWEEP])
def test_the_id_constructions_make_the_object_constructions_squares(n, r):
    # tests/pipeline_reference.py keeps the constructions on kernel and image
    # objects; the producer's, on ids, must name the same squares
    index = _singular_index(n, r)

    def square_ids(corners):
        return ids(index, *corners)

    for k in range(1, r):
        for l in range(1, r - k + 1):
            assert cycle_rep(k, l, n, r) == ids(index, *canonical_cycle_pair(k, l, n, r)), (k, l)
        for l in range(2, r - k + 1):
            assert cycle_split(k, l, n, r) == square_ids(pipeline_reference.cycle_split(k, l, n, r)), (k, l)
        assert coxeter_square_involution(k, n, r) == square_ids(pipeline_reference.coxeter_square_involution(k, n, r))
        if k <= r - 2:
            assert coxeter_square_braid(k, n, r) == square_ids(pipeline_reference.coxeter_square_braid(k, n, r))
            assert _braid_mirror_square(k, n, r) == square_ids(pipeline_reference.braid_mirror_square(k, n, r))
        for l in range(k + 2, r):
            made = coxeter_square_commute(k, l, n, r)
            assert made == tuple(map(square_ids, pipeline_reference.coxeter_square_commute(k, l, n, r))), (k, l)
    reduced = 0
    for (p, a), lam in zip(index.pairs, index.labels):
        if descent_number(lam) >= 2:
            want = pipeline_reference.descent_reduction(index.parts[p], index.subsets[a], lam)
            assert descent_reduction(index, p, a, lam) == ids(index, *want), (p, a)
            reduced += 1
    assert (reduced > 0) == (r >= 3)


# ---------------------------------------------------------------------------
# single-fact derivations, each replayed
# ---------------------------------------------------------------------------


def test_derive_identity_one_chain():
    # the chain kernel {1},...,{r-1},[r,n] walks its free element down to r
    P = Partition.parse("{{1},{2},{3,4,5,6}}")
    for a in (4, 5, 6):
        eng = Derivation(6, 3)
        eng.one(*ids(eng.index, P, Subset.of(6, (1, 2, a))))
        assert clean(replay_log(eng.log))


def test_derive_identity_convex():
    P = Partition.parse("{{1,2},{3,4},{5,6}}")
    for A in P.transversals():
        eng = Derivation(6, 3)
        eng.one(*ids(eng.index, P, A))
        assert clean(replay_log(eng.log))


def test_derive_identity_general_all_identity_pairs():
    count = 0
    for (p, a), lam in zip(_singular_index(5, 3).pairs, _singular_index(5, 3).labels):
        if not is_identity(lam):
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
    assert cycle_form(label(P, A)) == "(2 3)"
    assert label(P, A) == label(P, B)
    eng = Derivation(6, 3)
    eng.same_row(*ids(eng.index, P, A), ids(eng.index, P, B)[1])
    assert clean(replay_log(eng.log))


def test_derive_same_column():
    # kernels with different minima chains force the recursive column walk
    P = Partition.parse("{{1,2,3,5},{4},{6}}")
    Q = Partition.parse("{{1,2,5},{3,4},{6}}")
    A = Subset.parse("{4,5,6}", 6)
    assert P.minima != Q.minima
    assert cycle_form(label(P, A)) == "(1 2)"
    assert label(P, A) == label(Q, A)
    eng = Derivation(6, 3)
    eng.same_column(*ids(eng.index, P, A)[:1], *ids(eng.index, Q, A))
    assert clean(replay_log(eng.log))


def test_derive_cycle_equal_every_cycle_class():
    # every generator whose label is a contiguous cycle connects to its
    # class representative through logged singular squares
    eng = Derivation(6, 3)
    checked = 0
    for (p, a), lam in zip(eng.index.pairs, eng.labels):
        if descent_number(lam) != 1:
            continue
        eng.cycle_eq(p, a)
        checked += 1
    assert checked == 242
    assert clean(replay_log(eng.log))


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


def test_assert_survivors_needs_the_canonical_pairs():
    with pytest.raises(VerificationFailed, match="survivors"):
        Derivation(4, 2).assert_survivors()


def _resolved(n, r):
    eng = Derivation(n, r)
    for p, a in eng.index.pairs:
        eng.resolve(p, a)
    return eng


@pytest.mark.parametrize("n,r", [(n, r) for n in range(3, 7) for r in range(1, n - 1)])
def test_discharge_factors_through_the_labels(n, r):
    # reference: rewrite each relation through the resolution map and
    # evaluate it over the canonical generators; its labels must agree
    eng = _resolved(n, r)
    pres = build_presentation(n, r)
    gens = pres.generators
    # the derivation's letter 2i is generator i, gens[i], and 2i + 1 its inverse
    words = {
        g: tuple((gens[x >> 1], -1 if x & 1 else 1) for x in eng.resolve(*pair)[1])
        for g, pair in zip(gens, eng.index.pairs)
    }
    canon = [gens[g] for g in eng.canonical_generators()]
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
    pzs = [int(st) for st in eng.log.steps if st.rule == "discharge"]
    assert pzs == list(range(len(pres.relations)))


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
            sd["conclusion"]["lhs"][0][1] *= -1
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
        if not is_degenerate(sq) and not is_singular_sq3(sq)
    )
    doc = copy.deepcopy(log_four_two.to_json())
    for sd in doc["steps"]:
        if sd["rule"] == "bottom":
            sd["square"] = list(ids(_singular_index(4, 2), *bogus.kernels, *bogus.images))
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
    # True == 1 and False == 0 as Python ints: a discharge record whose pz
    # is not an int makes the log malformed, and the message names it
    doc = copy.deepcopy(log_four_two.to_json())
    first = next(sd for sd in doc["steps"] if sd["rule"] == "discharge")
    first["pz"] = pz
    doc = json.loads(json.dumps(doc))
    with pytest.raises(VerificationFailed) as caught:
        DerivationLog.from_json(doc)
    record = {"rule": "discharge", "pz": pz}
    assert str(caught.value) == (
        f"malformed derivation log: InvalidParameters: discharge step {record!r}"
        ' is not {"pz": <int>, "rule": "discharge"}'
    )


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
    real = replay_module.is_singular_ids

    def counted(index, *sq):
        calls.append(sq)
        return real(index, *sq)

    monkeypatch.setattr(replay_module, "is_singular_ids", counted)
    assert replay_log(back).ok
    assert len(calls) == 454


def test_replay_reports_every_step_citing_a_bad_square():
    from igmax.squares import enumerate_squares

    _, log = run_pipeline(6, 3)
    first = next(i for i, st in enumerate(log.steps) if st.rule == "bottom")
    doc = _with_copies(log.to_json(), {first})
    steps = [first, first + 1]  # one square, cited by two bottom steps
    bogus = next(sq for sq in enumerate_squares(6, 3) if not is_degenerate(sq) and not is_singular_sq3(sq))
    for i in steps:
        doc["steps"][i]["square"] = list(ids(_singular_index(6, 3), *bogus.kernels, *bogus.images))
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
    # takes it, and the format (version 2) is the same either way
    _, log = run_pipeline(5, 3)
    doc = log.to_json()
    rules = [sd["rule"] for sd in doc["steps"]]
    copied = {rules.index("bottom"), rules.index("flush-row")}
    doc = _with_copies(doc, copied)
    assert doc["version"] == 2 and len(doc["steps"]) == len(log) + 2
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
    # relation pz gets a right side of other labels, and the buckets are
    # said to disagree, so that each bottom relation is evaluated by itself
    _, log = run_pipeline(5, 3)
    pz = (log.meta["relations"] - 1) * where // 2
    idx = next(i for i, st in enumerate(log.steps) if st.rule == "discharge" and int(st) == pz)
    extra = next(2 * g for g, lam in enumerate(_singular_index(5, 3).labels) if not is_identity(lam))
    real = RelationFamilies.letters

    def changed(self, i):
        lhs, rhs = real(self, i)
        return (lhs, rhs + (extra,)) if i == pz else (lhs, rhs)

    monkeypatch.setattr(RelationFamilies, "letters", changed)
    monkeypatch.setattr(RelationFamilies, "buckets_agree", lambda self, product, ids: False)
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


def test_replay_checks_each_discharged_relation_on_its_labels(monkeypatch):
    # relations whose first bottom relation has a right side of other labels:
    # every generator is resolved, so only the label equation can fail
    _, log = run_pipeline(5, 3)
    real = relation_families(5, 3)
    words = [real.letters(i) for i in range(real.relation_count)]
    tags = [real.tag(i) for i in range(real.relation_count)]
    pz = tags.index("bottom")
    extra = next(2 * g for g, lam in enumerate(_singular_index(5, 3).labels) if not is_identity(lam))
    words[pz] = (words[pz][0], words[pz][1] + (extra,))
    monkeypatch.setattr(replay_module, "relation_families", lambda n, r: RelationFamilies(words, tags))
    idx = next(i for i, st in enumerate(log.steps) if st.rule == "discharge" and int(st) == pz)
    report = replay_log(log)
    assert report.failures == ((idx, f"relation {pz} does not hold under the resolution map"),)
    assert report.discharged == report.relations - 1
    assert not report.ok


def test_producer_checks_each_distinct_square_once(monkeypatch):
    # over one verify, each distinct witness square is tested singular
    # once in all: by the replay, and not again by the producer that made it
    calls = []
    real = replay_module.is_singular_ids

    def counted(index, *sq):
        calls.append(sq)
        return real(index, *sq)

    for module in (pipeline_module, replay_module):
        monkeypatch.setattr(module, "is_singular_ids", counted, raising=False)
    report, log = verify_theorem(6, 3)
    assert report.verdict == "confirmed S_3"
    bottoms = {st.square for st in log.steps if st.rule == "bottom"}
    assert len(bottoms) == 454
    assert sorted(calls) == sorted(bottoms)


def test_the_derivation_looks_no_object_up_and_classifies_each_label_once(monkeypatch):
    # the constructions compute kernel, image and generator ids: at (7,4),
    # which made 3,257 kernel, 3,993 image and 22,754 generator lookups and
    # 3,443 classifications while it computed on objects, no kernel or image
    # object is made once the index is, and no generator's label is
    # classified twice
    import igmax.squares as squares_module

    calls = []

    def counting(name, real):
        def counted(*args):
            calls.append(name)
            return real(*args)

        return counted

    squares_module._singular_index.cache_clear()
    _singular_index(7, 4)
    for cls in (Partition, Subset):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    monkeypatch.setattr(pipeline_module, "classify_descent_one", counting("classify", pipeline_module.classify_descent_one))
    _, log = run_pipeline(7, 4)
    assert log.meta["generators"] == 2240
    assert [c for c in calls if c != "classify"] == []
    assert 0 < calls.count("classify") <= 2240
    # the stand-ins count
    assert Subset(3, Partition.of(3, [[1], [2, 3]]).minima) and calls[-2:] == ["Partition", "Subset"]


def test_reduce_and_replay_label_each_pair_once(monkeypatch, tmp_path, capsys):
    # the index labels each (kernel, image) pair once and everything else,
    # the square constructions included, reads its labels
    import igmax.presentation as presentation_module
    import igmax.squares as squares_module
    from igmax.cli import main

    calls = []
    for module, name in [
        (squares_module, "label"),
        (squares_module, "pick_label"),
        (presentation_module, "label"),
    ]:

        def counted(p, a, real=getattr(module, name)):
            calls.append((p, a))
            return real(p, a)

        monkeypatch.setattr(module, name, counted)
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


# Swaps the first two canonical pairs for the replay, and in the log's
# coxeter-match step.  At r = 3 the Coxeter relations are symmetric under the
# swap, so only the check of the canonical labels can catch it.
SWAPPED_CANONICAL = """
import igmax.pipeline as pipeline
import igmax.replay as replay
_, log = pipeline.run_pipeline(5, 3)
real = replay.cycle_rep
replay.cycle_rep = lambda k, l, n, r: real(3 - k if l == 1 else k, l, n, r)
match = log.steps[-1]
match.data["canonical"].reverse()
report = replay.replay_log(log)
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
