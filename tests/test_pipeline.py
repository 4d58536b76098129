"""The reduction pipeline: constructions, derivations, logs, replay."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import igmax

from igmax.combinatorics import Partition, Subset, enumerate_transversal_pairs
from igmax.errors import InvalidParameters, VerificationFailed
from igmax.labels import label_by_subscripts
from igmax.perms import contiguous_cycle, descent_number
from igmax.pipeline import (
    Derivation,
    DerivationLog,
    canonical_cycle_pair,
    coxeter_square_braid,
    coxeter_square_commute,
    coxeter_square_involution,
    cycle_split,
    descent_reduction,
    replay_log,
    run_pipeline,
)
from igmax.presentation import word_str
from igmax.squares import is_singular_sq3
from igmax.verification import presentations_match
from igmax.presentation import GeneratorId, coxeter_presentation, substitute
from igmax.perms import evaluate_word, letter_images


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


def test_cycle_split_structure():
    for (k, l, n, r) in [(1, 2, 5, 3), (1, 2, 6, 4), (2, 2, 6, 4), (1, 3, 6, 4)]:
        sq, rel = cycle_split(k, l, n, r)
        assert is_singular_sq3(sq)
        # solved for the (Q,B) corner: lhs is that single generator
        assert len(rel.lhs) == 1
        g = rel.lhs[0][0]
        assert g.partition == sq.kernels[1] and g.subset == sq.images[1]
        assert g.label == contiguous_cycle(k, l, r)
        # two factors: transposition at k, then the shorter cycle
        (g1, _), (g2, _) = rel.rhs
        assert g1.label == contiguous_cycle(k, 1, r)
        assert g2.label == contiguous_cycle(k + 1, l - 1, r)


def test_cycle_split_rejects_short_cycle():
    with pytest.raises(InvalidParameters):
        cycle_split(1, 1, 5, 3)


def test_descent_reduction_golden():
    P = Partition.parse("{{1,7},{2,5},{3,6},{4}}")
    A = Subset.parse("{4,5,6,7}", 7)
    assert label_by_subscripts(P, A).image_form() == "[4,2,3,1]"
    Q, B, rel = descent_reduction(P, A)
    assert str(Q) == "{{1,3,7},{2,5},{4},{6}}"
    assert str(B) == "{1,2,4,6}"
    assert label_by_subscripts(P, B).cycle_form() == "(3 4)"
    assert label_by_subscripts(Q, A).image_form() == "[4,2,1,3]"
    assert label_by_subscripts(Q, B).is_identity()
    assert word_str(rel.lhs) == "f[{{1,7},{2,5},{3,6},{4}}|{4,5,6,7}]"
    assert word_str(rel.rhs) == (
        "f[{{1,7},{2,5},{3,6},{4}}|{1,2,4,6}] * f[{{1,3,7},{2,5},{4},{6}}|{4,5,6,7}]"
    )


def test_descent_reduction_strictly_decreases():
    # every label of descent >= 2 at (6,3) reduces with the promised shapes
    for p, a in enumerate_transversal_pairs(6, 3):
        lam = label_by_subscripts(p, a)
        if descent_number(lam) < 2:
            continue
        q, b, _ = descent_reduction(p, a)
        assert descent_number(label_by_subscripts(q, a)) == descent_number(lam) - 1


def test_descent_reduction_rejects_low_descent():
    P = Partition.parse("{{1},{2},{3,4,5}}")
    with pytest.raises(InvalidParameters):
        descent_reduction(P, P.min_transversal())


def test_coxeter_square_constructions():
    sq, rel = coxeter_square_involution(2, 7, 4)
    assert is_singular_sq3(sq)
    assert [l.cycle_form() for l in sq.corner_labels] == ["(2 3)", "()", "()", "(2 3)"]

    (sq1, sq2), rel = coxeter_square_commute(1, 3, 7, 4)
    assert is_singular_sq3(sq1) and is_singular_sq3(sq2)
    # the shared corner pair carries the product label
    assert sq1.corner_labels[3].cycle_form() == "(1 2)(3 4)"
    assert (sq1.kernels[1], sq1.images[1]) == (sq2.kernels[0], sq2.images[0])

    sq, rel = coxeter_square_braid(2, 7, 4)
    assert is_singular_sq3(sq)
    assert [l.cycle_form() for l in sq.corner_labels] == ["()", "(2 4 3)", "(3 4)", "(2 4)"]


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
    assert log.meta == {"steps": 116, "generators": 24, "relations": 60, "survivors": 1}

    report = replay_log(log)
    assert report.ok
    assert report.steps_checked == 116
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
    assert log.meta == {"steps": 658, "generators": 90, "relations": 394, "survivors": 2}
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
    for g in eng.pres.generators:
        eng.resolve(g.partition, g.subset)
    return eng


@pytest.mark.parametrize("n,r", [(n, r) for n in range(3, 7) for r in range(1, n - 1)])
def test_discharge_factors_through_the_labels(n, r):
    # reference: rewrite each relation through the resolution map and
    # evaluate it over the canonical generators; its labels must agree
    eng = _resolved(n, r)
    words = {g: eng.resolve(g.partition, g.subset)[1] for g in eng.pres.generators}
    canon = [GeneratorId.of(*p) for p in eng.canonical_pairs()]
    canonical = letter_images({g: g.label for g in canon})
    labels = letter_images({g: g.label for g in eng.pres.generators})

    def rewrite(word):
        for g in {h for h, _ in word}:
            word = substitute(word, g, words[g])
        return word

    for rel in eng.pres.relations:
        lhs = evaluate_word(rewrite(rel.lhs), canonical, r)
        rhs = evaluate_word(rewrite(rel.rhs), canonical, r)
        assert lhs == rhs == evaluate_word(rel.lhs, labels, r) == evaluate_word(rel.rhs, labels, r)
    eng.discharge_all()
    pzs = [st.data["pz"] for st in eng.log.steps if st.rule == "discharge"]
    assert pzs == list(range(len(eng.pres.relations)))


def test_discharge_rejects_a_resolution_word_off_its_label():
    eng = _resolved(5, 3)
    pair, (idx, word) = next((p, res) for p, res in eng._res_memo.items() if res[0] is not None)
    canonical = GeneratorId.of(*eng.canonical_pairs()[0])
    eng._res_memo[pair] = (idx, word + ((canonical, 1),))
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


def test_replay_discharge_needs_a_verified_resolution(log_four_two):
    # a middle step that no longer checks resolves nothing, so every
    # relation over its generator has no resolution to discharge through
    doc = copy.deepcopy(log_four_two.to_json())
    middle = next(sd for sd in doc["steps"] if sd["rule"] == "middle")
    middle["rule"] = "top"
    report = replay_log(DerivationLog.from_json(doc))
    assert not report.ok
    assert any(msg.startswith("no resolution for ") for _, msg in report.failures)


def test_require_singular_survives_optimize_flag():
    # a proper square that is not singular, checked with asserts stripped
    script = (
        "from igmax.combinatorics import Partition, Subset\n"
        "from igmax.errors import VerificationFailed\n"
        "from igmax.pipeline import _require_singular\n"
        "from igmax.squares import Square\n"
        "assert False, 'asserts must be off'\n"
        "sq = Square((Partition.parse('{{1},{2,4},{3,6},{5,7}}'), Partition.parse('{{1},{2,6,7},{3,5},{4}}')),\n"
        "            (Subset.parse('{1,3,4,7}', 7), Subset.parse('{1,4,5,6}', 7)))\n"
        "try:\n"
        "    _require_singular(sq)\n"
        "except VerificationFailed as exc:\n"
        "    print('raised:', exc)\n"
    )
    src = str(Path(igmax.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised: square fails the label test")


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
