"""Every replay check, pinned by the exact message it reports.

Each row of ``ROWS`` tampers one step of the (5,3) log (or, for a check no
log edit can reach, the replay's inputs) and names the failure it expects.
``test_every_replay_failure_message_has_a_row`` reads replay.py and
requires one row per message the replay can raise.  The forged (6,3) log
and the ``_flush_source`` cases pin the reading of inverse letters in flush
premises.
"""

import ast
import copy
import json
from pathlib import Path

import pytest

import igmax.replay as replay_module
from igmax.combinatorics import Partition, Subset
from igmax.pipeline import Derivation, run_pipeline
from igmax.perms import ProductTable, cycle_form
from igmax.presentation import (
    Relation,
    RelationFamilies,
    build_presentation,
    relation_families,
    word_text,
)
from igmax.replay import (
    DerivationLog,
    DerivationStep,
    Equation,
    _eq_relation,
    _flush_source,
    _ReplayFailure,
    cycle_rep,
    replay_log,
)
from igmax.squares import _singular_index, enumerate_squares, is_singular_sq3
from perms_reference import is_identity
from pipeline_reference import ids
from squares_reference import is_degenerate


@pytest.fixture(scope="module")
def genuine():
    _, log = run_pipeline(5, 3)
    return log.to_json()


def steps_of(doc, rule, premises=None):
    """Indices of the steps of ``rule`` (with that many premises, if given)."""
    return [
        i
        for i, sd in enumerate(doc["steps"])
        if sd["rule"] == rule and (premises is None or len(sd["premises"]) == premises)
    ]


def first(doc, rule, premises=None):
    return steps_of(doc, rule, premises)[0]


INDEX = _singular_index(5, 3)


def square_ids(sq):
    """A square's ids in the (5,3) index, as a log cites it."""
    return list(ids(INDEX, *sq.kernels, *sq.images))


# -- rows: tamper(doc, monkeypatch) -> (step index, message) --


def premise_out_of_range(doc, mp):
    i = first(doc, "transitive", 2)
    doc["steps"][i]["premises"][0] = i
    return i, f"premise {i} out of range"


def premise_not_verified(doc, mp):
    i = first(doc, "middle")
    doc["steps"][i]["rule"] = "nonsense"
    j = next(j for j, sd in enumerate(doc["steps"]) if i in sd.get("premises", ()))
    return j, f"premise {i} was not verified"


def premise_discharge(doc, mp):
    # the coxeter-match step comes after the discharge steps
    i = first(doc, "coxeter-match")
    j = first(doc, "discharge")
    doc["steps"][i]["premises"][0] = j
    return i, f"premise {j} is a discharge step"


def discharge_derivation_step(doc, mp):
    # no log parses to a DerivationStep of rule discharge: the replay is
    # handed the parsed log with one discharge step held as one
    i = first(doc, "discharge")
    from_json = DerivationLog.from_json

    def with_stand_in(d):
        log = from_json(d)
        steps = list(log.steps)
        steps[i] = DerivationStep("discharge", None)
        return DerivationLog(log.n, log.r, steps, log.final, log.meta)

    mp.setattr(DerivationLog, "from_json", with_stand_in)
    return i, "a discharge step must be a DischargeStep"


def discharge_out_of_range(doc, mp):
    i = first(doc, "discharge")
    doc["steps"][i]["pz"] = 10**6
    return i, f"relation index {10**6} out of range"


def discharge_unresolved(doc, mp):
    # the first middle step is the only fact resolving its generator
    i = first(doc, "middle")
    doc["steps"][i]["rule"] = "top"
    g = build_presentation(5, 3).generators[doc["steps"][i]["conclusion"]["lhs"][0][0]]
    pz = build_presentation(5, 3).relations.index(Relation(((g, 1),), (), "middle"))
    j = next(j for j, sd in enumerate(doc["steps"]) if sd["rule"] == "discharge" and sd["pz"] == pz)
    return j, f"no resolution for {g}"


def off_labels(mp):
    """Hand the replay the (5,3) relations with the first bottom relation's
    right side lengthened by a letter of another label; return its index."""
    real = relation_families(5, 3)
    words = [real.letters(i) for i in range(real.relation_count)]
    tags = [real.tag(i) for i in range(real.relation_count)]
    pz = tags.index("bottom")
    extra = next(2 * g for g, lam in enumerate(_singular_index(5, 3).labels) if not is_identity(lam))
    lhs, rhs = words[pz]
    words[pz] = (lhs, rhs + (extra,))
    mp.setattr(replay_module, "relation_families", lambda n, r: RelationFamilies(words, tags))
    return pz


def discharge_off_labels(doc, mp):
    # a bottom relation whose right side has other labels: every generator is
    # resolved, so only the label equation can fail
    pz = off_labels(mp)
    j = next(j for j, sd in enumerate(doc["steps"]) if sd["rule"] == "discharge" and sd["pz"] == pz)
    return j, f"relation {pz} does not hold under the resolution map"


def unknown_rule(doc, mp):
    i = first(doc, "middle")
    doc["steps"][i]["rule"] = "nonsense"
    return i, "unknown rule 'nonsense'"


def middle_shape(doc, mp):
    i = first(doc, "middle")
    doc["steps"][i]["conclusion"]["lhs"][0][1] = -1
    return i, "middle step must conclude f[P, minima(P)] = 1"


def top_shape(doc, mp):
    i = first(doc, "top")
    doc["steps"][i]["conclusion"]["rhs"][0][1] = -1
    return i, "top step must conclude an equality of two generators"


def top_kernels(doc, mp):
    i = first(doc, "top")
    concl = doc["steps"][i]["conclusion"]
    kernel = INDEX.pairs[concl["lhs"][0][0]][0]
    other = next(
        doc["steps"][j]["conclusion"]
        for j in steps_of(doc, "top")
        if INDEX.pairs[doc["steps"][j]["conclusion"]["rhs"][0][0]][0] != kernel
    )
    concl["rhs"] = copy.deepcopy(other["rhs"])
    return i, "top step generators must share a kernel"


def top_relation(doc, mp):
    i = first(doc, "top")
    concl = doc["steps"][i]["conclusion"]
    concl["lhs"], concl["rhs"] = concl["rhs"], concl["lhs"]
    return i, "top step must conclude the top relation f[P,X] = f[P,Y] of its Y"


def bottom_no_square(doc, mp):
    i = first(doc, "bottom")
    del doc["steps"][i]["square"]
    return i, "bottom step needs its witness square"


def bottom_degenerate(doc, mp):
    i = first(doc, "bottom")
    sq = doc["steps"][i]["square"]
    sq[1] = sq[0]
    return i, "witness square is degenerate"


def bottom_not_singular(doc, mp):
    bogus = next(sq for sq in enumerate_squares(5, 3) if not is_degenerate(sq) and not is_singular_sq3(sq))
    i = first(doc, "bottom")
    doc["steps"][i]["square"] = square_ids(bogus)
    return i, "witness square is not singular"


def bottom_conclusion(doc, mp):
    i = first(doc, "bottom")
    doc["steps"][i]["conclusion"]["lhs"][0][1] *= -1
    return i, "bottom conclusion is not the square relation"


def needs_square(doc, mp):
    i = first(doc, "corner")
    del doc["steps"][i]["square"]
    return i, "corner step needs its witness square"


def first_premise_bottom(doc, mp):
    i = first(doc, "corner")
    premises = doc["steps"][i]["premises"]
    premises[0] = premises[1]
    return i, "first premise must be the square's bottom relation"


def corner_identity_premises(doc, mp):
    i = first(doc, "corner")
    premises = doc["steps"][i]["premises"]
    premises[1] = premises[0]
    return i, "corner premises must be identity facts"


def corner_cover(doc, mp):
    i = first(doc, "corner")
    premises = doc["steps"][i]["premises"]
    premises[2] = premises[1]
    return i, "corner premises must cover the three other corners"


def corner_conclusion(doc, mp):
    i = first(doc, "corner")
    doc["steps"][i]["conclusion"]["lhs"][0][1] = -1
    return i, "corner conclusion must zero the target corner"


def three_quarter_premise(doc, mp):
    i = first(doc, "three-quarter")
    data = doc["steps"][i]["data"]
    data["zero"] = next(c for c in ("PA", "PB", "QA", "QB") if c != data["zero"])
    return i, "second premise must zero the stated corner"


def three_quarter_conclusion(doc, mp):
    i = first(doc, "three-quarter")
    doc["steps"][i]["conclusion"]["rhs"][0][1] = -1
    return i, "three-quarter conclusion has the wrong solved form"


def flush_transfer(doc, mp):
    i = first(doc, "flush-row", 3)
    concl = doc["steps"][i]["conclusion"]
    concl["lhs"], concl["rhs"] = concl["rhs"], concl["lhs"]
    return i, "flush-row conclusion does not transfer to the other side"


def transitive_premises(doc, mp):
    b = first(doc, "bottom")
    i = next(i for i in steps_of(doc, "transitive", 2) if i > b)
    doc["steps"][i]["premises"][0] = b
    return i, "transitive premises must be identity or equality facts"


def transitive_one_unconnected(doc, mp):
    i = next(i for i in steps_of(doc, "transitive") if doc["steps"][i]["conclusion"]["rhs"] == [])
    doc["steps"][i]["premises"] = []
    return i, "identity conclusion is not connected to 1"


def transitive_conclusion_shape(doc, mp):
    i = first(doc, "transitive")
    doc["steps"][i]["conclusion"]["lhs"][0][1] = -1
    return i, "transitive conclusion must be an identity or equality fact"


def transitive_eq_unconnected(doc, mp):
    i = next(i for i in steps_of(doc, "transitive") if doc["steps"][i]["conclusion"]["rhs"] != [])
    doc["steps"][i]["premises"] = []
    return i, "equality conclusion is not connected"


def rewrite_bare(doc, mp):
    i = first(doc, "rewrite")
    doc["steps"][i]["premises"][1] = first(doc, "bottom")
    return i, "substitution premises need a bare generator on the left"


def rewrite_eliminate(doc, mp):
    # a transitive step concluding g = g checks; a rewrite citing it cannot
    # eliminate g
    i = next(i for i in steps_of(doc, "rewrite") if doc["steps"][doc["steps"][i]["premises"][1]]["rule"] == "transitive")
    concl = doc["steps"][doc["steps"][i]["premises"][1]]["conclusion"]
    concl["rhs"] = copy.deepcopy(concl["lhs"])
    return i, "substitution must eliminate its generator"


def rewrite_conclusion(doc, mp):
    i = first(doc, "rewrite")
    concl = doc["steps"][i]["conclusion"]
    (concl["lhs"] or concl["rhs"])[0][1] *= -1
    return i, "rewrite conclusion does not follow from the substitutions"


def combine_arity(doc, mp):
    i = first(doc, "combine")
    doc["steps"][i]["premises"].append(first(doc, "middle"))
    return i, "combine takes exactly two premises"


def combine_left_sides(doc, mp):
    i = first(doc, "combine")
    doc["steps"][i]["premises"][1] = first(doc, "middle")
    return i, "combine premises must share their left side"


def combine_conclusion(doc, mp):
    i = first(doc, "combine")
    concl = doc["steps"][i]["conclusion"]
    concl["lhs"], concl["rhs"] = concl["rhs"], concl["lhs"]
    return i, "combine conclusion must equate the two right sides"


def stated_canonical(doc, mp):
    i = first(doc, "coxeter-match")
    doc["steps"][i]["data"]["canonical"].reverse()
    return i, "stated canonical pairs are not the expected ones"


def canonical_labels(doc, mp):
    # at r = 3 the Coxeter relations are symmetric under swapping the two
    # canonical pairs, so only the check of their labels sees the swap
    real = replay_module.cycle_rep
    mp.setattr(replay_module, "cycle_rep", lambda k, l, n, r: real(3 - k if l == 1 else k, l, n, r))
    return stated_canonical(doc, mp)[0], "canonical pair 1 does not carry the adjacent transposition"


def coxeter_canonical_only(doc, mp):
    i = first(doc, "coxeter-match")
    doc["steps"][i]["premises"].append(first(doc, "middle"))
    return i, "final relations must mention only canonical generators"


def coxeter_relations(doc, mp):
    i = first(doc, "coxeter-match")
    doc["steps"][i]["premises"].pop()
    return i, "derived relations do not match the Coxeter presentation"


def resolution_word(doc, mp):
    # no sound step concludes g = word with the word off g's label, so the
    # canonical generators' labels are swapped where words are evaluated
    # instead: the first word over them fails
    c1, c2 = (INDEX.generator_of[p][a] for p, a in (cycle_rep(k, 1, 5, 3) for k in (1, 2)))
    swap = {2 * c1: 2 * c2, 2 * c2: 2 * c1, 2 * c1 + 1: 2 * c2 + 1, 2 * c2 + 1: 2 * c1 + 1}
    real = ProductTable.evaluate
    mp.setattr(ProductTable, "evaluate", lambda table, word, ids: real(table, [swap.get(x, x) for x in word], ids))
    canon = {c1, c2}
    for i, sd in enumerate(doc["steps"]):
        concl = sd.get("conclusion")
        if concl and len(concl["lhs"]) == 1 and concl["lhs"][0][1] == 1 and concl["rhs"]:
            g = concl["lhs"][0][0]
            if g not in canon and all(x[0] in canon for x in concl["rhs"]):
                return i, f"the word for {INDEX.name(g)} does not evaluate to its label"
    raise AssertionError("the log holds no word over the canonical generators")


def flush_equality(doc, mp):
    i = first(doc, "flush-row", 2)
    premises = doc["steps"][i]["premises"]
    premises[1] = next(j for j in steps_of(doc, "top") if j != premises[1])
    return i, "flush premise equality does not match either side"


def flush_identity_shape(doc, mp):
    i = first(doc, "flush-column", 3)
    premises = doc["steps"][i]["premises"]
    premises[1] = premises[0]
    return i, "flush premises must be identity facts"


def flush_identity_cover(doc, mp):
    i = first(doc, "flush-column", 3)
    premises = doc["steps"][i]["premises"]
    premises[2] = premises[1]
    return i, "flush identity premises do not cover one side"


def flush_arity(doc, mp):
    i = first(doc, "flush-column", 3)
    doc["steps"][i]["premises"].append(first(doc, "middle"))
    return i, "flush steps take one equality or two identity premises"


# message template, as written in replay.py -> row
ROWS = {
    "premise {i} out of range": premise_out_of_range,
    "premise {i} was not verified": premise_not_verified,
    "premise {i} is a discharge step": premise_discharge,
    "a discharge step must be a DischargeStep": discharge_derivation_step,
    "relation index {pz} out of range": discharge_out_of_range,
    "no resolution for {g}": discharge_unresolved,
    "relation {pz} does not hold under the resolution map": discharge_off_labels,
    "unknown rule {rule!r}": unknown_rule,
    "middle step must conclude f[P, minima(P)] = 1": middle_shape,
    "top step must conclude an equality of two generators": top_shape,
    "top step generators must share a kernel": top_kernels,
    "top step must conclude the top relation f[P,X] = f[P,Y] of its Y": top_relation,
    "bottom step needs its witness square": bottom_no_square,
    "witness square is degenerate": bottom_degenerate,
    "witness square is not singular": bottom_not_singular,
    "bottom conclusion is not the square relation": bottom_conclusion,
    "{rule} step needs its witness square": needs_square,
    "first premise must be the square's bottom relation": first_premise_bottom,
    "corner premises must be identity facts": corner_identity_premises,
    "corner premises must cover the three other corners": corner_cover,
    "corner conclusion must zero the target corner": corner_conclusion,
    "second premise must zero the stated corner": three_quarter_premise,
    "three-quarter conclusion has the wrong solved form": three_quarter_conclusion,
    "{rule} conclusion does not transfer to the other side": flush_transfer,
    "transitive premises must be identity or equality facts": transitive_premises,
    "identity conclusion is not connected to 1": transitive_one_unconnected,
    "transitive conclusion must be an identity or equality fact": transitive_conclusion_shape,
    "equality conclusion is not connected": transitive_eq_unconnected,
    "substitution premises need a bare generator on the left": rewrite_bare,
    "substitution must eliminate its generator": rewrite_eliminate,
    "rewrite conclusion does not follow from the substitutions": rewrite_conclusion,
    "combine takes exactly two premises": combine_arity,
    "combine premises must share their left side": combine_left_sides,
    "combine conclusion must equate the two right sides": combine_conclusion,
    "stated canonical pairs are not the expected ones": stated_canonical,
    "canonical pair {k} does not carry the adjacent transposition": canonical_labels,
    "final relations must mention only canonical generators": coxeter_canonical_only,
    "derived relations do not match the Coxeter presentation": coxeter_relations,
    "the word for {g} does not evaluate to its label": resolution_word,
    "flush premise equality does not match either side": flush_equality,
    "flush premises must be identity facts": flush_identity_shape,
    "flush identity premises do not cover one side": flush_identity_cover,
    "flush steps take one equality or two identity premises": flush_arity,
}


@pytest.mark.parametrize("template", list(ROWS))
def test_replay_reports_each_tampered_check(template, genuine, monkeypatch):
    doc = copy.deepcopy(genuine)
    idx, message = ROWS[template](doc, monkeypatch)
    report = replay_log(DerivationLog.from_json(json.loads(json.dumps(doc))))
    assert (idx, message) in report.failures
    assert not report.ok


def _template(node: ast.expr) -> str:
    if isinstance(node, ast.Constant):
        return node.value
    return "".join(
        part.value
        if isinstance(part, ast.Constant)
        else "{" + ast.unparse(part.value) + ("!r" if part.conversion == ord("r") else "") + "}"
        for part in node.values
    )


def test_every_replay_failure_message_has_a_row():
    tree = ast.parse(Path(replay_module.__file__).read_text())
    literal, passed_on = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_ReplayFailure":
            (arg,) = node.args
            if isinstance(arg, (ast.Constant, ast.JoinedStr)):
                literal.add(_template(arg))
            else:
                passed_on.append(ast.unparse(arg))
    # the coxeter-match step raises what the shared Coxeter match returns
    assert passed_on == ["mismatch"]
    match = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_coxeter_mismatch")
    returned = {
        n.value.value for n in ast.walk(match) if isinstance(n, ast.Return) and isinstance(n.value, ast.Constant)
    } - {None}
    assert literal | returned == set(ROWS)


# ---------------------------------------------------------------------------
# true and 1.0 equal 1 under ==, so a log that writes them where an int
# belongs must fail, not replay as the log it imitates: an exponent makes
# the log malformed, a premise fails its step
# ---------------------------------------------------------------------------


def exponent_true(doc):
    doc["steps"][first(doc, "top")]["conclusion"]["lhs"][0][1] = True
    return "err", "error: malformed derivation log: InvalidParameters: True is not an exponent"


def exponent_float(doc):
    doc["steps"][first(doc, "top")]["conclusion"]["lhs"][0][1] = 1.0
    return "err", "error: malformed derivation log: InvalidParameters: 1.0 is not an exponent"


def premise_true(doc):
    i = first(doc, "transitive", 2)
    assert doc["steps"][i]["premises"][1] == 1
    doc["steps"][i]["premises"][1] = True
    return "out", f"  step {i}: premise True out of range\n"


@pytest.mark.parametrize(
    "tamper",
    [exponent_true, exponent_float, premise_true],
    ids=["exponent-true", "exponent-float", "premise-true"],
)
def test_replay_cli_rejects_a_non_int_where_an_int_belongs(tamper, genuine, tmp_path, capsys):
    from igmax.cli import main

    doc = copy.deepcopy(genuine)
    stream, message = tamper(doc)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", "--log", str(path)]) == 4
    captured = capsys.readouterr()
    if stream == "err":
        assert captured.out == ""
        assert captured.err.startswith(message)
    else:
        assert captured.err == ""
        assert "failures: 0\n" not in captured.out
        assert message in captured.out
        assert captured.out.endswith("replay: FAIL\n")


# ---------------------------------------------------------------------------
# flush premises are read with their exponents
# ---------------------------------------------------------------------------


def forged_six_three():
    """The (6,3) log with six genuine-looking steps appended.

    Steps 1-4 are sound and conclude f[K|345] = f[Q|345]^-1.  Step 6 flushes
    that premise as if it read f[K|345] = f[Q|345], concluding
    f[K|234] = f[Q|234], whose labels are () and (1 3 2).
    """
    _, log = run_pipeline(6, 3)
    eng = Derivation(6, 3)
    eng.log = log
    index = eng.index
    P, Q, K = ids(
        index, *(Partition.parse(t, 6) for t in ("{{1,2,3,6},{4},{5}}", "{{1,4},{2,5},{3,6}}", "{{1,2,5},{3},{4,6}}"))
    )
    a345, a456, a234 = ids(index, *(Subset.parse(t, 6) for t in ("{3,4,5}", "{4,5,6}", "{2,3,4}")))

    def gen(p, a):
        return index.generator_of[p][a]

    s1 = eng._square(P, Q, a345, a456)[1]
    s2 = eng._add(
        "transitive",
        _eq_relation(gen(P, a456), gen(K, a345), eng.letters),
        (eng.cycle_eq(P, a456), eng.cycle_eq(K, a345)),
    )
    s3 = eng._rewrite(s1, (eng.one(P, a345), eng.one(Q, a456)))
    s4 = eng._add("combine", Equation(log.steps[s2].conclusion.rhs, log.steps[s3].conclusion.rhs), (s2, s3))
    sq, s5 = eng._square(K, Q, a345, a234)
    s6 = eng._add("flush-column", _eq_relation(gen(K, a234), gen(Q, a234), eng.letters), (s5, s4), square=sq)
    gens = build_presentation(6, 3).generators
    names = [g.display() for g in gens].__getitem__
    assert " = ".join(word_text(side, names) for side in log.steps[s4].conclusion) == (
        "f[{{1,2,5},{3},{4,6}}|{3,4,5}] = f[{{1,4},{2,5},{3,6}}|{3,4,5}]^-1"
    )
    assert (cycle_form(index.labels[gen(K, a234)]), cycle_form(index.labels[gen(Q, a234)])) == ("()", "(1 3 2)")
    return log, s6


def test_replay_rejects_a_flush_of_an_inverted_premise():
    log, flush = forged_six_three()
    report = replay_log(DerivationLog.from_json(json.loads(json.dumps(log.to_json()))))
    assert report.failures == ((flush, "flush premise equality does not match either side"),)
    assert not report.ok


def test_replay_cli_rejects_the_forged_log(tmp_path, capsys):
    from igmax.cli import main

    log, flush = forged_six_three()
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(log.to_json()))
    assert main(["replay", "--log", str(path)]) == 4
    out = capsys.readouterr().out
    assert "failures: 1\n" in out
    assert f"  step {flush}: flush premise equality does not match either side\n" in out
    assert out.endswith("replay: FAIL\n")


def test_replay_rejects_a_square_step_whose_first_premise_is_not_a_bottom_step():
    # a rewrite step without substitutions is sound and concludes the
    # square's relation, but only a bottom step checks that its square is
    # singular: a corner step citing the rewrite must still be refused
    _, log = run_pipeline(5, 3)
    eng = Derivation(5, 3)
    eng.log = log
    corner = next(st for st in log.steps if st.rule == "corner")
    rewrite = eng._rewrite(corner.premises[0], ())
    assert log.steps[rewrite].conclusion == log.steps[corner.premises[0]].conclusion
    forged = eng._add(
        "corner", corner.conclusion, (rewrite, *corner.premises[1:]), square=corner.square, data=corner.data
    )
    report = replay_log(DerivationLog.from_json(json.loads(json.dumps(log.to_json()))))
    assert report.failures == ((forged, "first premise must be the square's bottom relation"),)


# generator ids, and their letters 2g and inverse letters 2g + 1
G, H, X, Y = range(4)
SIDES = {"left": (G, H), "right": (X, Y)}


def test_flush_source_accepts_an_equality_of_one_side():
    assert _flush_source([Equation((2 * G,), (2 * H,))], SIDES) == "left"


@pytest.mark.parametrize("lhs_exp,rhs_exp", [(1, -1), (-1, 1), (-1, -1)])
def test_flush_source_rejects_inverted_letters(lhs_exp, rhs_exp):
    premise = Equation((2 * G + (lhs_exp < 0),), (2 * H + (rhs_exp < 0),))
    with pytest.raises(_ReplayFailure, match="^flush premise equality does not match either side$"):
        _flush_source([premise], SIDES)
